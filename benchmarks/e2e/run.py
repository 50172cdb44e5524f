"""End-to-end benchmark of the repro package: driver.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 2019]
        [--workloads NAME ...] [--trace] [--scale full|smoke]
        [--seconds N]
    python benchmarks/e2e/run.py --compare A.json B.json

Generates each workload's inputs from the seed, runs it, checks every
output against an oracle and prints every metric by name. With one
workload the last line of standard output is the JSON object
BENCHMARK.json's contract asks for. See README.md.

This process never imports ``repro``; everything measured runs in a
fresh child interpreter whose environment child_env() builds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SETUP_LAUNCHES,
    WORKLOADS,
    calibrated,
    load_contract,
    sam_body_sha256,
    serve_latencies,
    summarise,
    unfinished,
)

#: Set in every child: a fixed hash seed, one thread per numeric library.
SET_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> tuple:
    """The environment of every child, and the REPRO_* names left out of
    it: no knob of the package, one thread per numeric library, a fixed
    hash seed, and caches (the compiled kernels) inside out/."""
    stripped = sorted(name for name in os.environ
                      if name.startswith("REPRO_"))
    env = {name: value for name, value in os.environ.items()
           if name not in stripped}
    env.update(SET_ENV)
    env["XDG_CACHE_HOME"] = str(OUT_DIR / "cache")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else "")
    return env, stripped


def call_worker(phase: str, spec: dict, env: dict) -> dict:
    """One phase of worker.py in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), phase,
         json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker phase {phase} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def launch(argv, env: dict) -> dict:
    """One fresh process from launch to exit: wall seconds, user+sys CPU
    seconds and peak RSS from wait4, and the exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def sample_launch(argv, env: dict) -> dict:
    """launch() between two spins; ``wall_s``/``cpu_s`` are calibrated."""
    result, _wall, factor = calibrated(lambda: launch(argv, env))
    result.update(wall_s=result["wall"] * factor,
                  cpu_s=result["cpu"] * factor)
    return result


# -- one workload, tracing off -------------------------------------------
#
# Each measure_* returns the samples behind the four end-to-end metrics
# (calibrated seconds), the raw wall of its operations, and how many
# operations it attempted and how many missed their oracle.

def measure_cli(spec: dict, env: dict) -> dict:
    """``python -m repro realign`` with all defaults, a fresh process per
    operation. Set-up is the same command on a header and one read, so
    it is what every launch pays before any real work; the two kinds of
    launch alternate so that both see the same stretch of the run."""
    workdir = Path(spec["workdir"])
    out = workdir / "out.sam"
    realign = [sys.executable, "-m", "repro", "realign",
               "--reference", str(workdir / "reference.fa")]
    setup_cmd = realign + ["--sam", str(workdir / "tiny.sam"),
                           "--out", str(workdir / "tiny.out.sam")]
    op_cmd = realign + ["--sam", str(workdir / "reads.sam"),
                        "--out", str(out)]
    launch(setup_cmd, env)  # untimed warm-up: page cache, .pyc files
    setups, ops, failed = [], [], 0
    deadline = time.perf_counter() + spec["seconds"]
    while unfinished(len(ops), spec, deadline):
        setups.append(sample_launch(setup_cmd, env))
        out.unlink(missing_ok=True)
        op = sample_launch(op_cmd, env)
        ops.append(op)
        failed += not (op["exit"] == 0 and out.exists() and
                       sam_body_sha256(out) == spec["prep"]["oracle"])
    while len(setups) < SETUP_LAUNCHES[spec["scale"]]:
        setups.append(sample_launch(setup_cmd, env))
    return {"setup_s": [s["wall_s"] for s in setups],
            "wall_s": [op["wall_s"] for op in ops],
            "cpu_s": [op["cpu_s"] for op in ops],
            "peak_rss_mb": [op["rss_mb"] for op in ops],
            "raw_wall": [op["wall"] for op in ops],
            "attempted": len(ops), "failed": failed}


def measure_sites(spec: dict, env: dict) -> dict:
    """``Engine(EngineConfig()).run_sites(sites)`` in one worker; set-up
    is a fresh interpreter up to a constructed engine."""
    setup_cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
                 "sites_setup", "{}"]
    launch(setup_cmd, env)  # untimed warm-up
    setups = [sample_launch(setup_cmd, env)
              for _ in range(SETUP_LAUNCHES[spec["scale"]])]
    result = call_worker("sites_ops", spec, env)
    ops = result["samples"]
    return {"setup_s": [s["wall_s"] for s in setups],
            "wall_s": [op["wall"] * op["factor"] for op in ops],
            "cpu_s": [op["cpu"] * op["factor"] for op in ops],
            "peak_rss_mb": [result["peak_rss_mb"]],
            "raw_wall": [op["wall"] for op in ops],
            "attempted": len(ops),
            "failed": sum(op["digest"] != spec["prep"]["oracle"]
                          for op in ops)}


def measure_serve(spec: dict, env: dict) -> dict:
    """Requests against ``python -m repro serve``. An operation is one
    round trip; its CPU is the server's, per request of a round."""
    result = call_worker("serve_ops", spec, env)
    rounds = result["rounds"]
    latencies, _campaign_s = serve_latencies(rounds)
    requests = [request for r in rounds for request in r["requests"]]
    return {"setup_s": [s["wall"] * s["factor"] for s in result["setups"]],
            "wall_s": latencies,
            "cpu_s": [r["server_cpu"] / len(r["requests"]) * r["factor"]
                      for r in rounds],
            "peak_rss_mb": [result["peak_rss_mb"]],
            "raw_wall": [latency for _job, latency, _ok in requests],
            "attempted": len(requests),
            "failed": sum(not ok for _job, _latency, ok in requests)}


MEASURE = {"cli": measure_cli, "sites": measure_sites,
           "serve": measure_serve}


def end_to_end(measured: dict, contract: dict) -> dict:
    """Summary of each end-to-end metric's samples, with unit and bound."""
    metrics = {}
    for metric in contract["end_to_end"]:
        summary = summarise(measured[metric["name"]])
        summary.update(unit=metric["unit"], bound=metric["bound"],
                       value=summary["median"])
        metrics[metric["name"]] = summary
    return metrics


def run_workload(name: str, args, contract: dict, env: dict) -> dict:
    """Prep, the timed operations and, with ``--trace``, the traced pass."""
    workload = WORKLOADS[name]
    workdir = OUT_DIR / "work" / f"{name}-{args.seed}-{os.getpid()}"
    spec = {"workload": name, "kind": workload["kind"], "scale": args.scale,
            "seed": args.seed, "seconds": args.seconds,
            "size": workload[args.scale], "workdir": str(workdir)}
    try:
        spec["prep"] = prep = call_worker("prep", spec, env)
        record = {"workload": name, "seed": args.seed, "scale": args.scale,
                  "harness": {key: prep[key] for key in (
                      "input_sha256", "oracle_kernel", "reads", "jobs",
                      "prep_s", "oracle_s", "native_build_s",
                      "native_available", "numpy")}}
        measured = MEASURE[workload["kind"]](spec, env)
        record.update(
            attempted=measured["attempted"], failed=measured["failed"],
            end_to_end=end_to_end(measured, contract),
            raw_wall_s=statistics.median(measured["raw_wall"]),
        )
        if args.trace:
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
            try:
                traced = call_worker("trace", spec, env)
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                # Probes are guarded one by one; should the traced pass
                # die as a whole, the end-to-end numbers still stand.
                traced = {"metrics": dict.fromkeys(units),
                          "reasons": dict.fromkeys(units, str(error)),
                          "attempted": 0, "failed": 0}
            record["per_layer"] = {
                metric: {"value": value, "unit": units[metric],
                         **({"reason": traced["reasons"][metric]}
                            if metric in traced["reasons"] else {})}
                for metric, value in traced["metrics"].items()
            }
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- output ----------------------------------------------------------------

def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['scale']}): {record['attempted']} attempted, "
          f"{record['failed']} failed")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<14} {m['median']:>12.4f} {m['unit']:<6} "
              f"n={m['n']:<4} q1={m['q1']:.4f} q3={m['q3']:.4f} "
              f"bound={m['bound']}")
    for name, m in record.get("per_layer", {}).items():
        if m["value"] is None:
            print(f"  {name:<40} null  ({m['reason']})")
        else:
            print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def contract_line(record: dict, trace: bool) -> str:
    """The object the benchmark contract wants on the last line. It has
    no place for a missing value: a probe that failed reads 0 there, and
    its reason is in the lines above and in the result file."""
    group = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"] or 0, "unit": m["unit"]}
                    for name, m in group.items()},
    })


def environment(args, stripped) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a repository
    return {"seed": args.seed, "scale": args.scale, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": commit, "stripped_env": stripped,
            "set_env": SET_ENV}


# -- compare ---------------------------------------------------------------

def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Per workload and end-to-end metric: both medians, B over A, and
    ok / worse / unresolved. Exit 1 on worse or on different inputs.

    A result file holds samples of one run, so the spread that decides
    ``unresolved`` is the median's own: the quartile distance over the
    median, over the square root of the sample count."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    bad = False
    for name in sorted(set(a) & set(b)):
        sha_a = a[name]["harness"]["input_sha256"]
        sha_b = b[name]["harness"]["input_sha256"]
        if sha_a != sha_b:
            print(f"{name}: inputs differ ({sha_a[:12]} vs {sha_b[:12]}): "
                  "not comparable")
            bad = True
            continue
        for metric, ma in a[name]["end_to_end"].items():
            mb = b[name]["end_to_end"][metric]
            ratio = mb["median"] / ma["median"]
            loss = ratio - 1 if better[metric] == "lower" else 1 - ratio
            spread = max((m["q3"] - m["q1"]) / m["median"] / m["n"] ** 0.5
                         for m in (ma, mb))
            apart = (mb["max"] < ma["min"] if better[metric] == "lower"
                     else mb["min"] > ma["max"])
            if spread > ma["bound"] and not apart:
                verdict = "unresolved"
            elif loss > ma["bound"]:
                verdict = "worse"
                bad = True
            else:
                verdict = "ok"
            print(f"{name:<14} {metric:<12} A {ma['median']:.4f}  "
                  f"B {mb['median']:.4f} {ma['unit']:<3}  B/A "
                  f"{ratio:.3f} (base A)  spread {spread:.3f}  "
                  f"bound {ma['bound']}  {verdict}")
    return 1 if bad else 0


# -- entry -----------------------------------------------------------------

def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=names, default=names)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the traced pass and its per-layer "
                             "metrics (bare flag, or 0/1)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="how long each workload's timed phase lasts")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    env, stripped = child_env()
    records = {}
    for name in args.workloads:
        records[name] = run_workload(name, args, contract, env)
        print_record(records[name])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{args.seed}.json"
    with open(result_path, "w") as handle:
        json.dump({"environment": environment(args, stripped),
                   "workloads": records}, handle, indent=1)
    print(f"result -> {result_path}")
    if len(records) == 1:
        print(contract_line(records[args.workloads[0]], bool(args.trace)))
    return 1 if any(r["failed"] for r in records.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
