"""Unit tests for the energy model."""

import pytest

from repro.perf.energy import (
    EnergyReport,
    accelerated_energy,
    software_energy,
)
from repro.perf.model import GATK3_WHOLE_GENOME_SECONDS


class TestEnergy:
    def test_joules_arithmetic(self):
        report = EnergyReport("x", seconds=100, average_watts=50)
        assert report.joules == 5_000
        assert report.watt_hours == pytest.approx(5_000 / 3600)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyReport("x", seconds=-1, average_watts=10)
        with pytest.raises(ValueError):
            EnergyReport("x", seconds=1, average_watts=0)

    def test_whole_genome_efficiency(self):
        """81x speedup at lower power: >100x energy efficiency."""
        gatk3 = software_energy("GATK3", GATK3_WHOLE_GENOME_SECONDS)
        iracc = accelerated_energy(GATK3_WHOLE_GENOME_SECONDS / 81.0)
        ratio = gatk3.joules / iracc.joules
        assert ratio > 100
        assert iracc.average_watts < gatk3.average_watts
