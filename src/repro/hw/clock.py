"""F1 clock recipes.

AWS F1 offers a fixed menu of clock recipes; the paper builds at 125 MHz
("one of the clock recipes offered by the F1 instances") and evaluates --
then rejects -- the 250 MHz recipe because >95% of the critical path at
250 MHz is routing delay through the 32-unit AXI4 memory system
(Section IV, "Frequency").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockRecipe:
    """One FPGA clock configuration."""

    name: str
    frequency_hz: float
    # Fraction of the critical path that is routing delay at this recipe,
    # as reported in Section IV; determines whether timing closes.
    routing_delay_fraction: float
    timing_met: bool

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 0 <= self.routing_delay_fraction <= 1:
            raise ValueError("routing_delay_fraction must be in [0, 1]")

    def cycles_to_seconds(self, cycles: float) -> float:
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        return cycles / self.frequency_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        return seconds * self.frequency_hz


#: The deployed design point: timing closes with >90% routing delay.
F1_CLOCK_125MHZ = ClockRecipe(
    name="f1-recipe-125",
    frequency_hz=125e6,
    routing_delay_fraction=0.90,
    timing_met=True,
)

#: The rejected design point: violated paths in the AXI4 memory system.
F1_CLOCK_250MHZ = ClockRecipe(
    name="f1-recipe-250",
    frequency_hz=250e6,
    routing_delay_fraction=0.95,
    timing_met=False,
)

F1_CLOCK_RECIPES = {recipe.name: recipe for recipe in
                    (F1_CLOCK_125MHZ, F1_CLOCK_250MHZ)}
