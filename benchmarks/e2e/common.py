"""What the driver (run.py) and the worker (worker.py) share: the
workload table, the speed calibration, sample statistics and spans.

Nothing here imports ``repro``: the driver stays a plain-Python process
so that every measured interpreter is a fresh child.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"

#: Seeded inputs of each workload at full and smoke scale. ``why`` lives
#: in BENCHMARK.json and the README; sizes live here because prep and
#: the driver both need them.
WORKLOADS = {
    "wgs_60kb": {
        "kind": "cli",
        "full": {"contigs": 1, "length": 60_000, "coverage": 30.0,
                 "indel_rate": None},
        "smoke": {"contigs": 1, "length": 6_000, "coverage": 30.0,
                  "indel_rate": None},
    },
    "panel_80x": {
        "kind": "cli",
        "full": {"contigs": 10, "length": 2_000, "coverage": 80.0,
                 "indel_rate": 3e-3},
        "smoke": {"contigs": 2, "length": 1_500, "coverage": 60.0,
                  "indel_rate": 3e-3},
    },
    "sites_dense": {
        "kind": "sites",
        "full": {"sites": 512},
        "smoke": {"sites": 48},
    },
    "serve_regions": {
        "kind": "serve",
        "full": {"contigs": 32, "length": 2_000, "coverage": 30.0,
                 "indel_rate": None},
        "smoke": {"contigs": 4, "length": 2_000, "coverage": 30.0,
                  "indel_rate": None},
    },
}

#: Fewest timed operations per run, whatever ``--seconds`` says; a
#: serve request counts as a tenth of one.
MIN_OPS = {"full": 3, "smoke": 2}
#: Requests each of the two serve clients sends between two spins.
ROUND_REQUESTS = {"full": 10, "smoke": 5}
#: Fresh launches behind every ``setup_s``.
SETUP_LAUNCHES = {"full": 5, "smoke": 2}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def unfinished(operations: float, spec: dict, deadline: float) -> bool:
    """Whether a timed phase goes on: until its fewest operations are
    done and ``--seconds`` are over."""
    return (operations < MIN_OPS[spec["scale"]]
            or time.perf_counter() < deadline)


# -- speed calibration --------------------------------------------------
#
# This sandbox's cores change speed by up to 1.8x, in states that last
# from a second to minutes: the same in-process realign call reads
# 0.65..1.6 s and the median of ten four-sample runs drifts by up to
# 85 % within a quarter of an hour. No raw time can hold a 25 % bound
# there. Every timed region is therefore bracketed by a spin, fixed
# pure-Python work, and its seconds are scaled to the speed at which the
# spin takes SPIN_REF_S. Two spins, because the machine slows in two
# ways: code that chases Python objects (the front half, SAM parsing,
# imports) slows with spin_objects(), compiled and numeric code (the WHD
# kernels) with spin_integers(); calibrating either kind of work with the
# other spin leaves drifts of 20..38 % (README, "Calibrated seconds").

SPIN_REF_S = 0.055
_SPIN_TEXT = "ACGTTGCAAGCTTAGGCTAACCGGTTAACGTACGATCGATCGGATCCTAGGATCCAAGCTT" * 4


def spin_integers() -> float:
    """Wall seconds of a fixed integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    return time.perf_counter() - start


class _Column:
    __slots__ = ("pos", "bases", "quals")

    def __init__(self, pos: int):
        self.pos = pos
        self.bases = []
        self.quals = []


def spin_objects() -> float:
    """Wall seconds of a fixed pileup-shaped loop: a dict of small
    objects under tuple keys, list appends, string indexing. The
    collector is off meanwhile, so the time does not depend on what the
    caller has allocated."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        columns = {}
        get = columns.get
        for row in range(1400):
            first = row * 37 % 5000
            for i in range(240):
                key = ("c", first + i)
                column = get(key)
                if column is None:
                    column = columns[key] = _Column(first + i)
                column.bases.append(_SPIN_TEXT[i])
                column.quals.append(i & 63)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Scale for the seconds of a region timed between two spins."""
    return SPIN_REF_S / ((before + after) / 2)


def calibrated(call, spin=spin_objects):
    """Run ``call()`` between two spins.

    Returns ``(result, raw wall seconds, factor)``; raw seconds times
    the factor are seconds at reference speed.
    """
    before = spin()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, speed_factor(before, spin())


# -- statistics ----------------------------------------------------------

def summarise(values) -> dict:
    """n, median, quartiles and range of a sample (inclusive method, so
    a sample of one or two still has quartiles)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * share), 1) - 1]


def serve_latencies(rounds):
    """Calibrated seconds of every round trip, and of the whole
    closed-loop campaign."""
    latencies = [latency * r["factor"] for r in rounds
                 for _job, latency, _ok in r["requests"]]
    return latencies, sum(r["wall"] * r["factor"] for r in rounds)


# -- digests -------------------------------------------------------------

def sam_body_sha256(path) -> str:
    """sha256 of a SAM file's read lines (header lines skipped)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for line in handle:
            if not line.startswith(b"@"):
                digest.update(line)
    return digest.hexdigest()


def lines_sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- spans ---------------------------------------------------------------

class Tracer:
    """In-memory spans, written out once as Chrome trace_event JSON."""

    def __init__(self) -> None:
        self.spans = []

    @contextmanager
    def span(self, name: str, parent=None, op_id: int = 0):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op_id": op_id}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of the finished spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def write(self, path) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {"name": s["name"], "ph": "X", "pid": 1, "tid": s["op_id"],
             "ts": (s["start"] - origin) * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6,
             "args": {"parent": s["parent"], "op_id": s["op_id"]}}
            for s in self.spans if s["end"] is not None
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
