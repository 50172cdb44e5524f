"""Parent against change, in one command: alternating pairs of runs.

    python benchmarks/ab.py PARENT CHANGE [--pairs 10] [--seed 2019]
        [--protocol e2e] [--workload panel_80x] [--scale full|smoke]
    python benchmarks/ab.py PARENT CHANGE --protocol scale [--workers 1]

PARENT and CHANGE are git revisions of this repository, each exported
with ``git archive`` into a temporary directory. Each tree's compiled
library is built once, before anything is timed. Then the protocol
runs once per tree per pair, and the pairs alternate which tree runs
first, so drift on the machine falls on both sides alike.

- ``e2e``: one workload through each tree's own
  ``benchmarks/e2e/run.py --trace 0``; its end-to-end medians are one
  sample per run. Refused when the two trees' ``benchmarks/e2e/``
  differ: both sides must be judged by the same harness.
- ``scale``: ``repro simulate`` writes one 960 kb input at 30x (with
  PARENT's tree), then each pair launches a fresh ``repro realign``
  per tree: wall, CPU and peak RSS from ``wait4``, and the two outputs
  compared byte for byte.

Per metric the table gives each side's median, q1-q3 and min-max, and
in how many pairs the change was lower.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: The scale protocol's input: one contig, bases and coverage.
SCALE_LENGTH, SCALE_COVERAGE = 960_000, 30


# -- statistics ------------------------------------------------------------

def summary(values) -> dict:
    """Median, quartiles (inclusive method, as the e2e harness's) and
    range of one side's samples."""
    values = [float(v) for v in values]
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def lower_in(parent, change) -> int:
    """Pairs in which the change's sample is strictly lower."""
    return sum(c < p for p, c in zip(parent, change, strict=True))


def table(samples: dict) -> str:
    """One markdown table: ``samples`` maps a metric to its
    ``(parent, change)`` sample lists, paired by index."""
    def number(x):
        return f"{x:.4g}"

    rows = ["| metric | parent median | parent q1–q3 | parent min–max "
            "| change median | change q1–q3 | change min–max | Δ median "
            "| change lower |",
            "|---|---|---|---|---|---|---|---|---|"]
    for metric, (parent, change) in samples.items():
        a, b = summary(parent), summary(change)
        delta = ((b["median"] - a["median"]) / a["median"]
                 if a["median"] else float("nan"))
        rows.append(
            f"| {metric} | {number(a['median'])} "
            f"| {number(a['q1'])}–{number(a['q3'])} "
            f"| {number(a['min'])}–{number(a['max'])} "
            f"| {number(b['median'])} "
            f"| {number(b['q1'])}–{number(b['q3'])} "
            f"| {number(b['min'])}–{number(b['max'])} "
            f"| {delta:+.1%} | {lower_in(parent, change)} / {len(parent)} |")
    return "\n".join(rows)


# -- trees -----------------------------------------------------------------

def export(revision: str, into: Path) -> Path:
    """The tree of ``revision``, exported with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", revision],
        check=True, stdout=subprocess.PIPE).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def tree_env(tree: Path) -> dict:
    """Environment of a tree's processes: its own ``src``, its own
    compiled-library cache, and no ``REPRO_*`` knob."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               XDG_CACHE_HOME=str(tree / ".ab-cache"))
    return env


def build(tree: Path) -> None:
    """Compile the tree's C library into its cache, outside timing."""
    subprocess.run([sys.executable, "-c",
                    "from repro.engine.native import warmup_native; "
                    "warmup_native()"], env=tree_env(tree), check=True)


def same_harness(a: Path, b: Path) -> bool:
    """Whether two trees' ``benchmarks/e2e/`` hold the same files."""
    def files(tree):
        root = tree / "benchmarks" / "e2e"
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()
                and not {"out", "__pycache__"} & set(path.parts)}
    return files(a) == files(b)


# -- protocols -------------------------------------------------------------

def launch(argv, env: dict, cwd=None) -> dict:
    """One fresh process: wall and CPU seconds and peak RSS (MB) from
    ``wait4``, and its standard output."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            text=True)
    out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv[:4]} exited with "
                           f"{os.waitstatus_to_exitcode(status)}")
    return {"wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "stdout": out}


def e2e_run(tree: Path, args) -> dict:
    """One ``run.py`` of one workload in ``tree``: its end-to-end
    medians by metric name."""
    argv = [sys.executable, "benchmarks/e2e/run.py", "--workload",
            args.workload, "--seed", str(args.seed), "--scale", args.scale,
            "--trace", "0"]
    out = launch(argv, tree_env(tree), cwd=tree)["stdout"]
    record = json.loads(out.strip().splitlines()[-1])
    if not record["correct"]:
        raise RuntimeError(f"{tree}: {record['failed']} of "
                           f"{record['attempted']} operations failed")
    return {name: metric["value"]
            for name, metric in record["metrics"].items()}


def scale_input(tree: Path, args, workdir: Path) -> Path:
    """``repro simulate`` once, with ``tree``."""
    sample = workdir / "input"
    subprocess.run([sys.executable, "-m", "repro", "simulate", "--out",
                    str(sample), "--length", str(SCALE_LENGTH), "--coverage",
                    str(SCALE_COVERAGE), "--seed", str(args.seed)],
                   env=tree_env(tree), check=True, stdout=subprocess.DEVNULL)
    return sample


def scale_run(tree: Path, args, sample: Path, out: Path) -> dict:
    """A fresh ``repro realign`` of the scale input in ``tree``."""
    argv = [sys.executable, "-m", "repro", "realign", "--reference",
            str(sample / "reference.fa"), "--sam", str(sample / "aligned.sam"),
            "--out", str(out)]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    run = launch(argv, tree_env(tree))
    return {key: run[key] for key in ("wall_s", "cpu_s", "peak_rss_mb")}


# -- main ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--protocol", choices=("e2e", "scale"),
                        default="e2e")
    parser.add_argument("--workload", default="panel_80x")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {"parent": export(args.parent, workdir / "parent"),
                 "change": export(args.change, workdir / "change")}
        if args.protocol == "e2e" and not same_harness(*trees.values()):
            print("error: the two trees' benchmarks/e2e/ differ; an A/B "
                  "needs one judge", file=sys.stderr)
            return 2
        for tree in trees.values():
            build(tree)
        sample = (scale_input(trees["parent"], args, workdir)
                  if args.protocol == "scale" else None)
        samples, identical = {}, 0
        for pair in range(args.pairs):
            order = ["parent", "change"][::1 if pair % 2 == 0 else -1]
            runs = {}
            for side in order:
                if sample is None:
                    runs[side] = e2e_run(trees[side], args)
                else:
                    runs[side] = scale_run(trees[side], args, sample,
                                           workdir / f"{side}.sam")
            if sample is not None:
                identical += (workdir / "parent.sam").read_bytes() == \
                    (workdir / "change.sam").read_bytes()
            for metric in runs["parent"]:
                parent, change = samples.setdefault(metric, ([], []))
                parent.append(runs["parent"][metric])
                change.append(runs["change"][metric])
            print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
                  + ", ".join(f"{m} {runs['parent'][m]:.4g} -> "
                              f"{runs['change'][m]:.4g}"
                              for m in runs["parent"]), flush=True)
        what = (f"{args.workload} ({args.scale})" if sample is None else
                f"scale {SCALE_LENGTH} bp, {SCALE_COVERAGE}x"
                + (f", --workers {args.workers}" if args.workers else ""))
        print(f"\n{args.parent} -> {args.change}, {what}, seed {args.seed}, "
              f"{args.pairs} alternating pairs\n")
        print(table(samples))
        if sample is not None:
            print(f"\noutputs identical in {identical} / {args.pairs} pairs")
            return 0 if identical == args.pairs else 1
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
