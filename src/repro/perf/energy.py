"""Energy model for the accelerated and software systems.

The paper motivates domain-specific architectures by "the exceptional
performance and energy efficiency such architectures can offer" and
prices cloud time as its cost proxy; this module adds the energy view:
joules and watt-hours per whole-genome INDEL realignment on each
platform, from documented board/server power envelopes.

Power assumptions (documented, conservative):

- F1 FPGA card: the VU9P accelerator card is provisioned at ~85 W TDP;
  the deployed IR design is BRAM/logic-bound at 125 MHz, modelled at 60%
  of TDP while computing.
- Host shares: the 4-core Xeon host of either instance draws ~120 W
  under the 8-thread GATK3 load, ~40 W while merely feeding the FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Power envelopes in watts.
FPGA_CARD_TDP_W = 85.0
FPGA_ACTIVE_FRACTION = 0.60
HOST_CPU_LOADED_W = 120.0
HOST_CPU_FEEDING_W = 40.0


@dataclass(frozen=True)
class EnergyReport:
    """Energy to run one workload on one platform."""

    system: str
    seconds: float
    average_watts: float

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.average_watts <= 0:
            raise ValueError("duration must be >= 0 and power positive")

    @property
    def joules(self) -> float:
        return self.seconds * self.average_watts

    @property
    def watt_hours(self) -> float:
        return self.joules / 3600.0


def software_energy(system: str, seconds: float) -> EnergyReport:
    """A CPU-only run: the loaded host is the whole budget."""
    return EnergyReport(system=system, seconds=seconds,
                        average_watts=HOST_CPU_LOADED_W)


def accelerated_energy(seconds: float) -> EnergyReport:
    """The F1 run: active FPGA card plus a lightly loaded feeding host."""
    watts = FPGA_CARD_TDP_W * FPGA_ACTIVE_FRACTION + HOST_CPU_FEEDING_W
    return EnergyReport(system="IR ACC", seconds=seconds,
                        average_watts=watts)
