"""Property tests for the engine's bounded window (hypothesis).

The invariant under test is single: the engine's output is
byte-identical to the serial kernel's for *any* site set, worker
count, or queue depth -- from one chunk per worker up to a window that
holds every chunk (the old barrier).
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig, ReorderBuffer, dispatch_realign
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
        depth=st.integers(1, 8),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_barrier_for_any_configuration(
        self, seed, n, batch, workers, depth
    ):
        sites = _sites(n, seed)
        want = [dispatch_realign(site) for site in sites]
        # The drawn depth, and the window that holds every chunk.
        barrier = math.ceil(math.ceil(n / batch) / workers)
        for queue_depth in sorted({min(depth, barrier), barrier}):
            with Engine(EngineConfig(workers=workers, batch=batch),
                        queue_depth=queue_depth) as stream:
                got = stream.run_sites(sites)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.same_outputs(b)
                np.testing.assert_array_equal(a.min_whd, b.min_whd)
                np.testing.assert_array_equal(a.new_pos, b.new_pos)
