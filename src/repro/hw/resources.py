"""FPGA device and utilization model.

The paper deploys on the Xilinx Virtex UltraScale+ VU9P of the F1
instance and reports, for the optimized 32-unit design: block RAM
utilization 87.62% and CLB logic utilization 32.53% (Section III-A
footnote 3). This module derives those figures from the per-unit buffer
inventory (:mod:`repro.hw.bram`) plus a calibrated allowance for the AWS
shell and interconnect, and answers the sizing question "how many units
fit?" that shaped the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw.bram import Bram36Requirement, blocks_for_buffer


@dataclass(frozen=True)
class FpgaDevice:
    """Resource inventory of one FPGA part."""

    name: str
    bram36_tiles: int
    clb_luts: int
    dsp_slices: int
    logic_elements: int  # marketing figure, for Table II parity

    def __post_init__(self) -> None:
        if min(self.bram36_tiles, self.clb_luts, self.dsp_slices) <= 0:
            raise ValueError("device resources must be positive")


#: The F1 FPGA: "2.5 M logic elements, 6,800 DSPs" (paper Table II);
#: 2,160 BRAM36 tiles and ~1.18 M CLB LUTs from the UltraScale+ data sheet.
VIRTEX_ULTRASCALE_PLUS_VU9P = FpgaDevice(
    name="xcvu9p",
    bram36_tiles=2160,
    clb_luts=1_182_240,
    dsp_slices=6840,
    logic_elements=2_500_000,
)


#: BRAM36 tiles used by the AWS F1 shell, DDR controller FIFOs, the AXI
#: crossbar, and the RoCC command router. Calibrated so the deployed
#: 32-unit design reproduces the paper's 87.62% BRAM figure given the
#: 53-tile per-unit inventory derived from the documented buffer sizes.
SYSTEM_BRAM36_OVERHEAD = 197

#: CLB LUTs per IR unit (comparator array, adder trees, control FSMs) and
#: for the system infrastructure; calibrated against the paper's 32.53%.
UNIT_CLB_LUTS = 7_643
SYSTEM_CLB_LUTS = 140_006

#: The IR datapath uses fabric adders, not DSP slices.
UNIT_DSP_SLICES = 0


def ir_unit_bram_inventory(
    max_consensuses: int = 32,
    max_consensus_length: int = 2048,
    max_reads: int = 256,
    max_read_length: int = 256,
    datapath_width_bits: int = 256,
) -> List[Bram36Requirement]:
    """BRAM budget of one IR unit, buffer by buffer (Figure 6 sizes).

    Input buffers are 256 bits wide to supply 32 bytes per cycle to the
    parallel Hamming distance calculator; the selector's three
    read-length buffers and the two output buffers are narrow
    single-port memories ("the buffers only support one read or one
    write per cycle").
    """
    return [
        blocks_for_buffer(
            "consensus-bases", max_consensuses * max_consensus_length,
            datapath_width_bits,
        ),
        blocks_for_buffer(
            "read-bases", max_reads * max_read_length, datapath_width_bits
        ),
        blocks_for_buffer(
            "read-quality-scores", max_reads * max_read_length,
            datapath_width_bits,
        ),
        blocks_for_buffer("selector-ref-dist-pos", max_reads * 4, 32),
        blocks_for_buffer("selector-curr-dist-pos", max_reads * 4, 32),
        blocks_for_buffer("selector-min-dist-pos", max_reads * 4, 32),
        blocks_for_buffer("out-realign-flags", max_reads * 1, 8),
        blocks_for_buffer("out-new-positions", max_reads * 4, 32),
    ]


def ir_unit_bram36(**kwargs) -> int:
    """Total BRAM36 tiles of one IR unit."""
    return sum(req.tiles for req in ir_unit_bram_inventory(**kwargs))


@dataclass(frozen=True)
class UtilizationReport:
    """Resource utilization of an N-unit design on a device."""

    device: FpgaDevice
    num_units: int
    bram36_used: int
    clb_luts_used: int
    dsp_used: int

    @property
    def bram_utilization(self) -> float:
        return self.bram36_used / self.device.bram36_tiles

    @property
    def clb_utilization(self) -> float:
        return self.clb_luts_used / self.device.clb_luts

    @property
    def fits(self) -> bool:
        return (
            self.bram36_used <= self.device.bram36_tiles
            and self.clb_luts_used <= self.device.clb_luts
            and self.dsp_used <= self.device.dsp_slices
        )


def utilization(
    num_units: int,
    device: FpgaDevice = VIRTEX_ULTRASCALE_PLUS_VU9P,
) -> UtilizationReport:
    """Utilization of a sea of ``num_units`` IR accelerators."""
    if num_units < 0:
        raise ValueError("num_units must be non-negative")
    per_unit = ir_unit_bram36()
    return UtilizationReport(
        device=device,
        num_units=num_units,
        bram36_used=num_units * per_unit + SYSTEM_BRAM36_OVERHEAD,
        clb_luts_used=num_units * UNIT_CLB_LUTS + SYSTEM_CLB_LUTS,
        dsp_used=num_units * UNIT_DSP_SLICES,
    )


#: Fraction of BRAM the placer can actually use before routing fails.
#: The paper repeatedly cites "block RAM utilization close to 90%" as the
#: practical ceiling of the BRAM-bound design.
ROUTABLE_BRAM_FRACTION = 0.90


def max_units(device: FpgaDevice = VIRTEX_ULTRASCALE_PLUS_VU9P,
              routable_bram_fraction: float = ROUTABLE_BRAM_FRACTION) -> int:
    """Largest unit count that fits the device -- BRAM-bound, per the paper.

    ``routable_bram_fraction`` models the place-and-route headroom: at
    125 MHz over 90% of the critical path is already routing delay, so
    designs pushing BRAM past ~90% fail timing closure.
    """
    if not 0 < routable_bram_fraction <= 1:
        raise ValueError("routable_bram_fraction must be in (0, 1]")
    per_unit = ir_unit_bram36()
    usable = int(device.bram36_tiles * routable_bram_fraction)
    by_bram = (usable - SYSTEM_BRAM36_OVERHEAD) // per_unit
    by_clb = (device.clb_luts - SYSTEM_CLB_LUTS) // UNIT_CLB_LUTS
    return max(0, min(by_bram, by_clb))
