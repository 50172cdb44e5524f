"""DDR and PCIe-DMA timing models.

F1 exposes 4 channels of DDR4 (16 GB each); the deployed design
instantiates only one -- "even the largest target does not occupy more
than 16 GB of memory. This allows us to trade memory controller area and
wiring for more IR compute units" -- and moves bulk data host->FPGA with
a 512-bit PCIe DMA that the paper measures at "only 0.01% of the total
runtime". These models produce transfer latencies for the system
simulator; both are simple bandwidth/latency channels, which matches the
level of detail the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PcieDmaModel:
    """Host <-> FPGA-DRAM bulk transfers over PCIe DMA.

    Defaults model a Gen3 x16 link with the AWS EDMA driver: ~8 GB/s
    effective streaming bandwidth and a fixed per-transfer setup cost
    (driver call + descriptor ring).
    """

    bandwidth_bytes_per_s: float = 8e9
    setup_latency_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.setup_latency_s < 0:
            raise ValueError("setup latency must be non-negative")

    def transfer_seconds(self, num_bytes: int) -> float:
        """Latency to move ``num_bytes`` in one DMA transaction."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.setup_latency_s + num_bytes / self.bandwidth_bytes_per_s

    def streaming_seconds(self, num_bytes: int) -> float:
        """Per-payload share of a large batched transfer.

        The control program "transfers large data chunks from the host
        to the FPGA-attached DRAM", so one DMA transaction carries many
        targets and the setup latency amortizes to nothing; this is the
        bandwidth-only cost the system model charges per target.
        """
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return num_bytes / self.bandwidth_bytes_per_s

    def streaming_cycles(self, num_bytes: int, clock) -> int:
        """:meth:`streaming_seconds` in whole cycles of ``clock``.

        The system model and the protocol-level simulator both charge
        transfers to the cycle timeline this way; the telemetry layer's
        channel spans use the same rounding so transfer spans tile the
        channel track exactly.
        """
        return int(round(clock.seconds_to_cycles(
            self.streaming_seconds(num_bytes)
        )))


@dataclass(frozen=True)
class DdrChannelModel:
    """One FPGA-attached DDR4 channel.

    Capacity 16 GB (per F1 channel). Bandwidth is the effective figure
    after controller efficiency; latency is the closed-page random access
    cost the MemReaders see on a new burst.
    """

    capacity_bytes: int = 16 * 1024**3
    bandwidth_bytes_per_s: float = 16e9
    access_latency_s: float = 60e-9

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError("capacity and bandwidth must be positive")
        if self.access_latency_s < 0:
            raise ValueError("access latency must be non-negative")

    def fits(self, num_bytes: int) -> bool:
        return 0 <= num_bytes <= self.capacity_bytes
