"""Roofline analysis of the IR accelerator.

Quantifies the paper's Section II-C claim that INDEL realignment is
"completely compute-bound" once the local buffers hold the working set:
per byte streamed into an IR unit, the kernel performs hundreds of
comparisons, so the 32-byte/cycle BRAM ports (not the DDR channel or
PCIe) bound throughput. The roofline places each design point by its
arithmetic intensity (comparisons per DRAM byte) against the compute and
memory roofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hw.clock import F1_CLOCK_125MHZ, ClockRecipe
from repro.realign.site import RealignmentSite


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's position on the roofline."""

    name: str
    arithmetic_intensity: float  # comparisons per DRAM byte
    achievable_rate: float  # comparisons/second under both roofs
    compute_roof: float
    memory_bound_rate: float

    @property
    def compute_bound(self) -> bool:
        """True when the compute roof, not memory, limits the workload."""
        return self.memory_bound_rate >= self.compute_roof


@dataclass(frozen=True)
class RooflineModel:
    """The accelerator's two roofs."""

    num_units: int = 32
    lanes: int = 32
    clock: ClockRecipe = F1_CLOCK_125MHZ
    dram_bandwidth_bytes_per_s: float = 16e9  # one DDR4 channel

    @property
    def compute_roof(self) -> float:
        """Peak comparisons/second of the sea of units."""
        return self.num_units * self.lanes * self.clock.frequency_hz

    def memory_bound_rate(self, arithmetic_intensity: float) -> float:
        """Comparisons/second the DRAM channel alone could sustain."""
        if arithmetic_intensity <= 0:
            raise ValueError("arithmetic intensity must be positive")
        return arithmetic_intensity * self.dram_bandwidth_bytes_per_s

    def place(self, name: str, comparisons: float, dram_bytes: float
              ) -> RooflinePoint:
        if dram_bytes <= 0 or comparisons <= 0:
            raise ValueError("comparisons and bytes must be positive")
        intensity = comparisons / dram_bytes
        memory_rate = self.memory_bound_rate(intensity)
        return RooflinePoint(
            name=name,
            arithmetic_intensity=intensity,
            achievable_rate=min(self.compute_roof, memory_rate),
            compute_roof=self.compute_roof,
            memory_bound_rate=memory_rate,
        )

    def place_site(self, site: RealignmentSite,
                   name: str = "") -> RooflinePoint:
        """Place one IR target: unpruned comparisons against the bytes
        its five channels move (inputs + outputs)."""
        return self.place(
            name or f"site@{site.chrom}:{site.start}",
            comparisons=float(site.unpruned_comparisons()),
            dram_bytes=float(site.input_bytes() + site.output_bytes()),
        )

    def ridge_intensity(self) -> float:
        """Intensity where the two roofs meet; workloads above it are
        compute-bound."""
        return self.compute_roof / self.dram_bandwidth_bytes_per_s


def summarize(points: Sequence[RooflinePoint]) -> dict:
    """Aggregate roofline verdicts for a workload."""
    compute_bound = sum(1 for p in points if p.compute_bound)
    return {
        "points": len(points),
        "compute_bound": compute_bound,
        "compute_bound_fraction": compute_bound / len(points) if points else 0.0,
        "min_intensity": min((p.arithmetic_intensity for p in points),
                             default=0.0),
    }
