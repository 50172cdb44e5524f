"""Calibrated software performance models.

The reproduction cannot run GATK3 (Java, licensed data, a 42-hour
measurement); it models the software baselines with a single calibrated
throughput constant, which preserves every *relative* result.

Calibration chain (see DESIGN.md section 5):

1. The paper's absolute anchor: INDEL realignment of chromosomes 1-22
   takes "more than 42 hours on GATK3 ... for $28" on an r3.2xlarge at
   $0.665/hr. $28 / $0.665 = 42.1 hours; we use
   ``GATK3_WHOLE_GENOME_SECONDS = 42.1 * 3600``.
2. The census (:mod:`repro.workloads.chromosomes`) and the full-scale
   shape profile (``REAL_PROFILE``) give the whole-genome unpruned
   comparison count ``W`` via
   :func:`census_unpruned_comparisons`.
3. The modelled GATK3 throughput is then ``W / 42.1 h`` comparisons per
   second at 8 threads -- the single free constant, documented here and
   used consistently everywhere GATK3 time is needed.

ADAM is modelled relative to GATK3: the paper's geometric means give
``81.3 / 41.4 = 1.96x``, consistent with its cost ratio
($28 / $14.5 = 1.93x).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.chromosomes import CHROMOSOME_CENSUS, ChromosomeCensus
from repro.workloads.generator import (
    REAL_PROFILE,
    SiteProfile,
    expected_comparisons_per_site,
)

#: Paper anchor: $28 on r3.2xlarge at $0.665/hr -> 42.1 hours.
GATK3_WHOLE_GENOME_SECONDS = 42.1 * 3600.0

#: GATK3 saturates at 8 threads ("GATK3 does not scale beyond 8 threads").
GATK3_MAX_THREADS = 8

#: ADAM's modelled advantage over GATK3 (paper gmeans: 81.3x / 41.4x).
ADAM_SPEEDUP_OVER_GATK3 = 81.3 / 41.4


def census_unpruned_comparisons(
    profile: SiteProfile = REAL_PROFILE,
) -> float:
    """Whole-genome (Ch1-22) unpruned Algorithm 1 comparisons, expected."""
    return sum(
        census.ir_targets
        * expected_comparisons_per_site(profile, census.complexity)
        for census in CHROMOSOME_CENSUS
    )


def chromosome_unpruned_comparisons(
    census: ChromosomeCensus, profile: SiteProfile = REAL_PROFILE
) -> float:
    """One chromosome's expected full-scale comparison count."""
    return census.ir_targets * expected_comparisons_per_site(
        profile, census.complexity
    )


@dataclass(frozen=True)
class Gatk3PerformanceModel:
    """GATK3 IndelRealigner runtime as a function of kernel work.

    ``comparisons_per_second`` is the 8-thread rate; thread scaling is
    linear up to the 8-thread ceiling (the paper chose its baseline
    host because "GATK3 does not scale beyond 8 threads").
    """

    comparisons_per_second: float
    max_threads: int = GATK3_MAX_THREADS

    def __post_init__(self) -> None:
        if self.comparisons_per_second <= 0:
            raise ValueError("throughput must be positive")

    @classmethod
    def calibrated(cls, profile: SiteProfile = REAL_PROFILE
                   ) -> "Gatk3PerformanceModel":
        """The model anchored to the paper's 42.1-hour measurement."""
        rate = census_unpruned_comparisons(profile) / GATK3_WHOLE_GENOME_SECONDS
        return cls(comparisons_per_second=rate)

    def seconds_for_comparisons(
        self, unpruned_comparisons: float, threads: int = GATK3_MAX_THREADS
    ) -> float:
        """Runtime for a given amount of Algorithm 1 work.

        GATK3 performs the full unpruned scan (it has no computation
        pruning), so the work term is the unpruned comparison count.
        """
        if unpruned_comparisons < 0:
            raise ValueError("work must be non-negative")
        if threads <= 0:
            raise ValueError("thread count must be positive")
        effective = min(threads, self.max_threads)
        rate = self.comparisons_per_second * effective / self.max_threads
        return unpruned_comparisons / rate
