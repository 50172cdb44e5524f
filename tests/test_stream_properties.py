"""Property tests for the streaming data plane (hypothesis).

The invariant under test is single: the streaming engine's output is
byte-identical to the barrier engine's for *any* site set, worker
count, queue depth, or transport -- including when chaos-mode fault
injection drains targets through it as the software fallback.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig, ReorderBuffer, StreamingEngine
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def _sites(n, seed):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.25 + 0.2 * (i % 4))
        for i in range(n)
    ]


class TestReorderBufferProperties:
    @given(st.permutations(list(range(12))))
    @settings(max_examples=100, deadline=None)
    def test_any_completion_order_emits_submission_order(self, order):
        buffer = ReorderBuffer()
        emitted = []
        for index in order:
            emitted.extend(buffer.push(index, index))
        assert emitted == sorted(order)
        assert buffer.pending == 0
        assert buffer.peak_pending <= len(order)

    @given(st.permutations(list(range(8))), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_windowed_submission_bounds_pending(self, order, window):
        """The engine's submission rule -- never have more than
        ``window`` chunks in flight plus parked -- keeps the buffer's
        peak below the window for every completion order."""
        buffer = ReorderBuffer()
        in_flight = set()
        pending_completions = list(order)
        submitted = 0
        while submitted < len(order) or in_flight:
            while (submitted < len(order)
                   and len(in_flight) + buffer.pending < window):
                in_flight.add(submitted)
                submitted += 1
            # Complete the earliest-drawn chunk that is in flight.
            index = next(i for i in pending_completions if i in in_flight)
            pending_completions.remove(index)
            in_flight.remove(index)
            buffer.push(index, index)
        assert buffer.peak_pending <= window
        assert buffer.pending == 0


class TestStreamingEngineProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        batch=st.integers(1, 4),
        workers=st.sampled_from([1, 2]),
        depth=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_barrier_for_any_configuration(
        self, seed, n, batch, workers, depth
    ):
        sites = _sites(n, seed)
        with Engine(EngineConfig(workers=1, batch=batch)) as barrier:
            want = barrier.run_sites(sites)
        with StreamingEngine(
            EngineConfig(workers=workers, batch=batch),
            queue_depth=depth,
        ) as stream:
            got = stream.run_sites(sites)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)
            np.testing.assert_array_equal(a.new_pos, b.new_pos)


class TestFaultInjectionProperties:
    @pytest.fixture(scope="class")
    def sample(self):
        from repro.genomics.simulate import SimulationProfile, simulate_sample

        return simulate_sample(
            {"chr22": 9_000},
            profile=SimulationProfile(coverage=16.0, indel_rate=1.5e-3),
            seed=7,
        )

    @staticmethod
    def _sam(reads):
        return [(r.name, r.pos, str(r.cigar), r.seq) for r in reads]

    @given(chaos_seed=st.integers(0, 1_000),
           rate=st.floats(0.05, 0.9))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chaos_fallback_through_streaming_engine(
        self, sample, chaos_seed, rate
    ):
        """Chaos runs that drain targets to the software fallback stay
        byte-identical when the fallback is a streaming engine."""
        from dataclasses import replace

        from repro.core.system import AcceleratedRealigner, SystemConfig
        from repro.resilience.policy import ResilienceConfig

        clean, _run, _report = AcceleratedRealigner(
            sample.reference, SystemConfig.iracc()
        ).realign(sample.reads)
        config = replace(
            SystemConfig.iracc(),
            resilience=ResilienceConfig.chaos(chaos_seed, rate),
        )
        with StreamingEngine(EngineConfig(workers=2, batch=2)) as engine:
            faulted, _run, _report = AcceleratedRealigner(
                sample.reference, config, engine=engine
            ).realign(sample.reads)
        assert self._sam(faulted) == self._sam(clean)
