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
from typing import Callable, Deque, Optional


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

    def read_cycles(self, num_words: int = 1) -> int:
        if num_words < 0:
            raise ValueError("word count must be non-negative")
        return num_words * self.access_cycles


class QueueFullError(RuntimeError):
    """A bounded ready/valid queue rejected a push."""


@dataclass
class MmioRegisterFile:
    """Command/response queues behind the AXILite window.

    The AXI hub converts RoCC commands and responses to and from AXILite
    using these queues; ``command_ready`` and ``response_valid`` are the
    two signals the host-side control program polls.
    """

    command_depth: int = 16
    response_depth: int = 16
    _commands: Deque[int] = field(default_factory=deque)
    _responses: Deque[int] = field(default_factory=deque)
    #: Optional repro.telemetry.Telemetry recorder; when set, every
    #: queue operation increments an ``mmio.*`` counter (None = no
    #: overhead beyond one attribute check per access).
    telemetry: Optional[object] = field(default=None, repr=False,
                                        compare=False)

    @property
    def command_ready(self) -> bool:
        return len(self._commands) < self.command_depth

    @property
    def response_valid(self) -> bool:
        return bool(self._responses)

    def push_command(self, encoded: int) -> None:
        """Host side: enqueue one encoded RoCC command."""
        if not self.command_ready:
            raise QueueFullError("MMIO command queue full")
        self._commands.append(encoded)
        if self.telemetry is not None:
            self.telemetry.count("mmio.commands_pushed")

    def pop_command(self) -> Optional[int]:
        """Fabric side: dequeue the next command, if any."""
        if not self._commands:
            return None
        if self.telemetry is not None:
            self.telemetry.count("mmio.commands_popped")
        return self._commands.popleft()

    def push_response(self, payload: int) -> None:
        """Fabric side: post a completion response."""
        if len(self._responses) >= self.response_depth:
            raise QueueFullError("MMIO response queue full")
        self._responses.append(payload)
        if self.telemetry is not None:
            self.telemetry.count("mmio.responses_pushed")

    def poll_response(self) -> Optional[int]:
        """Host side: pop a response if ``response_valid``."""
        if not self._responses:
            if self.telemetry is not None:
                self.telemetry.count("mmio.empty_polls")
            return None
        if self.telemetry is not None:
            self.telemetry.count("mmio.responses_polled")
        return self._responses.popleft()

    def pending_commands(self) -> int:
        return len(self._commands)

    def pending_responses(self) -> int:
        return len(self._responses)


# -- response integrity ------------------------------------------------
#
# A completion response that crosses the AXILite window can be silently
# corrupted (single-event upsets, marginal timing at the shell boundary)
# or never arrive at all. The resilient host protects the response word
# with a CRC-8 so corruption is *detected* (and the dispatch retried)
# rather than mis-routing a completion to the wrong unit; drops are
# caught by the host watchdog (see repro.resilience.policy.HostWatchdog).

#: CRC-8-ATM generator polynomial (x^8 + x^2 + x + 1).
CRC8_POLY = 0x07


def crc8(value: int) -> int:
    """CRC-8 over ``value``'s bytes (big-endian, minimal width)."""
    if value < 0:
        raise ValueError("CRC input must be non-negative")
    data = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC8_POLY if crc & 0x80 else crc << 1) & 0xFF
    return crc


def protect_response(payload: int) -> int:
    """Frame a response payload with its CRC-8 in the low byte."""
    if payload < 0:
        raise ValueError("response payload must be non-negative")
    return (payload << 8) | crc8(payload)


def check_response(word: int) -> Optional[int]:
    """Unframe a protected response; ``None`` if the CRC disagrees."""
    payload = word >> 8
    return payload if crc8(payload) == (word & 0xFF) else None


@dataclass
class LossyMmioRegisterFile(MmioRegisterFile):
    """An MMIO register file whose response path can drop or corrupt.

    ``injector`` decides each pushed response's fate: ``"ok"`` (framed
    with its CRC and delivered), ``"drop"`` (never enqueued -- the host
    watchdog must notice), or ``"corrupt"`` (delivered with a payload
    bit flipped, so :func:`check_response` rejects it). The host side
    must poll with :func:`check_response` instead of trusting raw words.
    """

    injector: Callable[[int], str] = field(default=lambda payload: "ok")
    responses_dropped: int = 0
    responses_corrupted: int = 0

    def push_response(self, payload: int) -> None:
        fate = self.injector(payload)
        if fate == "drop":
            self.responses_dropped += 1
            return
        word = protect_response(payload)
        if fate == "corrupt":
            self.responses_corrupted += 1
            word ^= 1 << 8  # flip payload bit 0: CRC now disagrees
        elif fate != "ok":
            raise ValueError(f"unknown response fate {fate!r}")
        super().push_response(word)
