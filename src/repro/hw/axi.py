"""AXI4 / AXILite interconnect models.

The paper's system uses three AXI flavours (Figure 6): a 512-bit AXI4
path for PCIe DMA into FPGA DRAM, an AXI4 crossbar in front of the DDR
controllers, and a 32-bit AXI4Lite path through which the host issues
RoCC commands and polls responses via memory-mapped IO registers with
ready/valid queues ("the host can asynchronously add a new command to
the queue, or poll when awaiting a response").

:class:`MmioRegisterFile` is a functional model of that MMIO window --
the accelerated system's host program really does enqueue commands and
poll responses through it, so the host/accelerator handshake in the
simulation follows the same protocol as the deployed system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional


@dataclass(frozen=True)
class AxiPort:
    """One AXI4 data port: width and clocked beat arithmetic."""

    name: str
    data_width_bits: int

    def __post_init__(self) -> None:
        if self.data_width_bits <= 0 or self.data_width_bits % 8 != 0:
            raise ValueError("AXI width must be a positive multiple of 8")

    @property
    def bytes_per_beat(self) -> int:
        return self.data_width_bits // 8

    def beats(self, num_bytes: int) -> int:
        """Beats needed to move ``num_bytes`` (partial beats round up)."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return -(-num_bytes // self.bytes_per_beat)


#: The three ports of Figure 6.
AXI4_DMA_PORT = AxiPort("pcie-dma", 512)
AXI4_MEMORY_PORT = AxiPort("axi4-memory", 512)
AXILITE_CONTROL_PORT = AxiPort("axilite-control", 32)


@dataclass(frozen=True)
class AxiLiteBus:
    """32-bit control bus with a fixed per-access cost in cycles."""

    port: AxiPort = AXILITE_CONTROL_PORT
    access_cycles: int = 4  # address + data + response phases

    def write_cycles(self, num_words: int = 1) -> int:
        if num_words < 0:
            raise ValueError("word count must be non-negative")
        return num_words * self.access_cycles


class QueueFullError(RuntimeError):
    """A bounded ready/valid queue rejected a push."""


@dataclass
class MmioRegisterFile:
    """The response queue behind the AXILite window.

    The AXI hub converts the units' completions to AXILite through this
    queue, which the host-side control program polls
    (:meth:`poll_response`). (Commands reach the units through the router, which
    models no queue for them.)
    """

    response_depth: int = 16
    _responses: Deque[int] = field(default_factory=deque)
    #: Optional repro.telemetry.Telemetry recorder; when set, every
    #: queue operation increments an ``mmio.*`` counter (None = no
    #: overhead beyond one attribute check per access).
    telemetry: Optional[object] = field(default=None, repr=False,
                                        compare=False)

    def push_response(self, payload: int) -> None:
        """Fabric side: post a completion response."""
        if len(self._responses) >= self.response_depth:
            raise QueueFullError("MMIO response queue full")
        self._responses.append(payload)
        if self.telemetry is not None:
            self.telemetry.count("mmio.responses_pushed")

    def poll_response(self) -> Optional[int]:
        """Host side: pop a response, or ``None`` when none is queued."""
        if not self._responses:
            if self.telemetry is not None:
                self.telemetry.count("mmio.empty_polls")
            return None
        if self.telemetry is not None:
            self.telemetry.count("mmio.responses_polled")
        return self._responses.popleft()

