"""Command-line driver: ``python -m repro <command>``.

Commands:

- ``figure2`` / ``figure3`` / ``figure4`` / ``figure7`` / ``figure9`` /
  ``tables`` / ``microarch`` / ``comparisons`` -- print one experiment's
  paper-versus-measured tables (the same code the benchmark harness
  runs).
- ``resilience`` -- chaos-mode sweep: modelled speedup vs. injected
  fault rate, with watchdog/retry/quarantine/fallback recovery.
- ``all`` -- run every experiment in order.
- ``simulate`` -- write a synthetic sample (FASTA + SAM) to a directory.
- ``realign`` -- run the software INDEL realigner over a SAM file.
- ``evaluate`` -- run an accuracy scenario (toy / cohort / adversarial)
  through the before/after pipeline and print the outcome scorecard
  (mismatch totals, concordance vs. truth, truth-INDEL F1); ``--out``
  writes the full deterministic ``EvaluationReport`` JSON.
- ``trace`` -- run a bench workload through the sync / async / recovery
  schedulers with telemetry on and write a Chrome ``trace_event`` file
  (open it at https://ui.perfetto.dev).
- ``serve`` -- run the realignment service: an asyncio TCP server with
  request coalescing, admission control, deadlines, and latency
  telemetry over any engine configuration (docs/SERVING.md).
- ``loadgen`` -- drive a seeded many-tenant load against a running
  server (or ``--selftest`` an in-process one) and report latency
  percentiles, rejections, and byte-identity vs. the batch realigner.

The full command table lives in the ``--help`` epilog (generated from
``COMMANDS`` below) and in ``docs/CLI.md``; a test keeps all three in
sync, so a new subcommand cannot silently go undocumented again the way
``evaluate`` originally did.

Output paths are validated when arguments are parsed, not at the end of
the run: a ``realign`` over a large SAM fails in milliseconds -- not
minutes -- when ``--out`` points into a missing or read-only directory.

Examples::

    python -m repro figure9 --sites 48 --replication 16
    python -m repro resilience --fault-rate 0.05 --fault-rate 0.2
    python -m repro simulate --length 30000 --out /tmp/sample
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --accelerated --fault-rate 0.1 --chaos-seed 7
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --workers 4 --batch 12
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --workers 4 --stream --queue-depth 3
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --workers 2 --stream --worker-fault-rate 0.2 --chaos-seed 7
    python -m repro trace --out /tmp/trace.json --fault-rate 0.1
    python -m repro trace --out /tmp/trace.json --workers 2 --stream
    python -m repro evaluate --scenario adversarial --out /tmp/report.json
    python -m repro evaluate --scenario cohort --workers 2 --stream
    python -m repro serve --reference /tmp/sample/reference.fa --port 8765
    python -m repro loadgen --host 127.0.0.1 --port 8765 \
        --reference /tmp/sample/reference.fa --sam /tmp/sample/aligned.sam \
        --tenants 4 --time-scale 0
    python -m repro loadgen --selftest --length 9000 --tenants 3
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: Every subcommand with its one-line description. This single table
#: feeds the subparser ``help=`` strings, the ``--help`` epilog, and
#: the generated reference in ``docs/CLI.md``
#: (``tests/test_cli_reference.py`` keeps them in sync) -- so adding a
#: subcommand without documenting it is a test failure, not a silent
#: omission.
COMMANDS = {
    "figure2": "execution-time breakdown of the three analysis pipelines",
    "figure3": "kernel microbenchmark: cycles per WHD cell vs. the paper",
    "figure4": "the paper's worked WHD example, end to end",
    "figure7": "speedup vs. software GATK across chromosome workloads",
    "figure9": "fleet cost/latency frontier for the cloud deployment",
    "tables": "the paper's configuration and result tables",
    "appendix": "appendix experiments (sensitivity sweeps)",
    "microarch": "PE microarchitecture model: occupancy and stalls",
    "comparisons": "cross-system comparisons (CPU / FPGA / cloud)",
    "all": "run every experiment in order",
    "resilience": "chaos sweep: modelled speedup vs. injected fault rate",
    "simulate": "write a synthetic sample (FASTA + SAM + truth) to a dir",
    "realign": "run the INDEL realigner over a SAM file (batch)",
    "trace": "record sync/async/recovery telemetry to a Chrome trace",
    "evaluate": "score realignment outcomes on a truth-bearing scenario",
    "serve": "serve realignment over TCP: coalescing, admission control, "
             "latency telemetry",
    "loadgen": "drive a seeded many-tenant load against a server "
               "(or --selftest)",
}


def _epilog() -> str:
    width = max(len(name) for name in COMMANDS)
    lines = [f"  {name.ljust(width)}  {text}"
             for name, text in COMMANDS.items()]
    return "commands:\n" + "\n".join(lines) + (
        "\n\nsee docs/CLI.md for the full reference, docs/SERVING.md "
        "for serve/loadgen."
    )


def _out_file(value: str) -> Path:
    """Argparse type for an output *file*: parent must be a writable dir.

    Checked at parse time so a long run cannot end in an unwritable
    ``--out`` (the realigner used to discover this only after realigning
    everything).
    """
    path = Path(value)
    parent = path.parent
    if not parent.exists():
        raise argparse.ArgumentTypeError(
            f"output directory {parent} does not exist"
        )
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"output directory {parent} is not a directory"
        )
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"output directory {parent} is not writable"
        )
    if path.is_dir():
        raise argparse.ArgumentTypeError(
            f"output path {path} is a directory, expected a file"
        )
    if path.exists() and not os.access(path, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"output file {path} exists and is not writable"
        )
    return path


def _out_dir(value: str) -> Path:
    """Argparse type for an output *directory* that will be created.

    Walks up to the nearest existing ancestor and requires it to be a
    writable directory, so ``mkdir -p`` cannot fail later.
    """
    path = Path(value)
    ancestor = path
    while not ancestor.exists():
        parent = ancestor.parent
        if parent == ancestor:
            break
        ancestor = parent
    if ancestor.exists() and not ancestor.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot create {path}: {ancestor} is not a directory"
        )
    if not os.access(ancestor, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot create {path}: {ancestor} is not writable"
        )
    return path


def _cmd_experiment(name: str, args: argparse.Namespace) -> int:
    from repro.experiments import (
        comparisons,
        figure2,
        figure3,
        figure4,
        figure7,
        figure9,
        microarch,
        tables,
    )

    if name == "figure9":
        figure9.main(sites_per_chromosome=args.sites,
                     replication=args.replication)
        return 0
    if name == "resilience":
        from repro.experiments import resilience
        from repro.experiments.resilience import DEFAULT_FAULT_RATES

        rates = tuple(getattr(args, "fault_rate", None)
                      or DEFAULT_FAULT_RATES)
        bad = [rate for rate in rates if not 0.0 <= rate <= 1.0]
        if bad:
            print(f"error: --fault-rate must be in [0, 1], got {bad[0]}",
                  file=sys.stderr)
            return 2
        resilience.main(
            fault_rates=rates,
            sites_per_chromosome=getattr(args, "sites", 48),
            replication=getattr(args, "replication", 4),
            chaos_seed=getattr(args, "chaos_seed", 1234),
            trace_out=getattr(args, "telemetry", None),
        )
        return 0
    if name == "comparisons":
        comparisons.main()
        return 0
    from repro.experiments import appendix

    module = {
        "figure2": figure2, "figure3": figure3, "figure4": figure4,
        "figure7": figure7, "microarch": microarch, "appendix": appendix,
    }.get(name)
    if module is not None:
        module.main()
        return 0
    if name == "tables":
        tables.main()
        return 0
    if name == "all":
        for experiment in ("figure2", "figure3", "figure4", "tables",
                           "figure7", "appendix", "microarch", "figure9",
                           "resilience"):
            _cmd_experiment(experiment, args)
            print()
        return 0
    raise AssertionError(f"unhandled experiment {name}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.genomics.fasta import write_reference
    from repro.genomics.samlite import write_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        print(f"error: cannot create output directory {out}: {error}",
              file=sys.stderr)
        return 2
    profile = SimulationProfile(
        coverage=args.coverage, indel_rate=args.indel_rate,
    )
    sample = simulate_sample({args.contig: args.length}, profile=profile,
                             seed=args.seed)
    write_reference(sample.reference, out / "reference.fa")
    write_sam(sample.reads, out / "aligned.sam", sample.reference)
    with open(out / "truth.txt", "w") as handle:
        for variant in sample.truth_variants:
            handle.write(variant.describe() + "\n")
    print(f"wrote {len(sample.reads)} reads, "
          f"{len(sample.truth_variants)} truth variants to {out}")
    return 0


def _check_recovery_flags(args: argparse.Namespace):
    """Validate the worker-recovery flags; an error string or None."""
    if not 0.0 <= args.worker_fault_rate <= 1.0:
        return (f"error: --worker-fault-rate must be in [0, 1], "
                f"got {args.worker_fault_rate}")
    if args.worker_fault_rate > 0.0 and args.workers < 2:
        return ("error: --worker-fault-rate requires --workers >= 2 "
                "(the inline engine has no worker pool to fault)")
    return None


def _make_recovery(args: argparse.Namespace):
    """The run's :class:`WorkerRecovery`: the environment's, or a
    chaos plan when ``--worker-fault-rate`` was given."""
    from repro.resilience.workers import WorkerRecovery

    if args.worker_fault_rate > 0.0:
        return WorkerRecovery.chaos(args.chaos_seed, args.worker_fault_rate)
    return WorkerRecovery.from_env()


def _make_engine(args: argparse.Namespace):
    """The live engine the engine flags describe: a
    :class:`StreamingEngine` when ``--stream``, else an
    :class:`Engine`, with a :class:`~repro.shard.cache.SiteResultCache`
    in front when ``--site-cache-mb`` asks for one. The caller closes
    it."""
    from repro.engine import Engine, EngineConfig, StreamingEngine

    config = EngineConfig(workers=args.workers, batch=args.batch,
                          kernel=args.kernel)
    cache = None
    if args.site_cache_mb > 0:
        from repro.shard.cache import SiteResultCache

        cache = SiteResultCache.from_megabytes(args.site_cache_mb)
    recovery = _make_recovery(args)
    if args.stream:
        return StreamingEngine(config, queue_depth=args.queue_depth,
                               recovery=recovery, cache=cache)
    return Engine(config, recovery=recovery, cache=cache)


def _print_recovery(engine, args: argparse.Namespace) -> None:
    """One summary line of the worker pool's recovery activity: when
    ``--worker-fault-rate`` was given, or when the pool had to recover
    anything."""
    counters = engine.recovery_counters
    if not (args.worker_fault_rate > 0.0
            or any(name.startswith("worker.") for name in counters)):
        return
    injected = sum(value for name, value in counters.items()
                   if name.startswith("worker.injected."))
    print(f"recovery: {injected} worker faults injected, "
          f"{counters.get('worker.retries', 0)} retries, "
          f"{counters.get('worker.quarantined_sites', 0)} sites "
          f"quarantined inline")


def _cmd_realign(args: argparse.Namespace) -> int:
    from repro.genomics.fasta import read_reference
    from repro.genomics.samlite import read_sam, write_sam
    from repro.realign.realigner import IndelRealigner

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}",
              file=sys.stderr)
        return 2
    if args.fault_rate > 0.0 and not args.accelerated:
        print("error: --fault-rate requires --accelerated (chaos mode "
              "injects faults into the FPGA system model)", file=sys.stderr)
        return 2
    if args.telemetry is not None and not args.accelerated:
        print("error: --telemetry requires --accelerated (the software "
              "realigner has no hardware timeline)", file=sys.stderr)
        return 2
    error = _engine_flag_errors(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    engine = _make_engine(args)
    try:
        reference = read_reference(args.reference)
        reads = read_sam(args.sam)
        if args.accelerated:
            from repro.core.system import AcceleratedRealigner, SystemConfig

            config = SystemConfig.iracc()
            if args.fault_rate > 0.0:
                from dataclasses import replace

                from repro.resilience.policy import ResilienceConfig

                config = replace(config, resilience=ResilienceConfig.chaos(
                    args.chaos_seed, args.fault_rate
                ))
            telemetry = None
            if args.telemetry is not None:
                from repro.telemetry import Telemetry

                telemetry = Telemetry(label=config.name)
            # The engine serves any targets that drain to the software
            # fallback under chaos; fault-free runs never touch it.
            realigner = AcceleratedRealigner(reference, config, engine=engine)
            updated, run, report = realigner.realign(reads,
                                                     telemetry=telemetry)
            print(f"accelerated run: {run.total_seconds * 1e3:.2f} modelled "
                  f"ms, {run.pruned_fraction:.0%} of comparisons pruned")
            if run.resilience is not None:
                print(f"chaos mode (seed {args.chaos_seed}, rate "
                      f"{args.fault_rate:.0%}): {run.resilience.describe()}")
            if telemetry is not None:
                from repro.telemetry import write_chrome_trace
                from repro.telemetry.metrics import derive_schedule_metrics

                write_chrome_trace(telemetry, args.telemetry)
                metrics = derive_schedule_metrics(telemetry)
                print(f"telemetry: {metrics.describe()}")
                print(f"trace -> {args.telemetry}")
        else:
            updated, report = IndelRealigner(reference,
                                             engine=engine).realign(reads)
            print(f"engine: workers={args.workers} batch={args.batch} "
                  f"kernel={args.kernel}"
                  + (f" stream(depth={args.queue_depth})"
                     if args.stream else ""))
        if args.stream:
            stats = engine.stream_stats
            if stats:
                print(f"stream: {stats.get('stream.chunks', 0)} chunks, "
                      f"max in-flight {stats.get('stream.max_in_flight', 0)}, "
                      f"reorder peak {stats.get('stream.reorder_peak', 0)}, "
                      f"backpressure "
                      f"{stats.get('stream.backpressure_us', 0)} us")
        _print_recovery(engine, args)
    finally:
        engine.close()
    write_sam(updated, args.out, reference)
    print(f"{report.targets_identified} targets, {report.sites_built} sites, "
          f"{report.reads_realigned} reads realigned "
          f"({report.reads_moved} moved) -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluate import run_scenario
    from repro.evaluate.scenarios import SCENARIO_NAMES

    error = _engine_flag_errors(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    engine = _make_engine(args)
    try:
        report = run_scenario(
            args.scenario, engine=engine, kernel=args.kernel, seed=args.seed,
        )
    finally:
        _print_recovery(engine, args)
        engine.close()
    if args.out is not None:
        args.out.write_text(report.to_json())
        print(f"report -> {args.out}")
    print(report.summary())
    totals = report.totals()
    regressed = totals["mismatch_after"] > totals["mismatch_before"]
    if regressed:
        print("error: realignment INCREASED mismatch totals -- "
              "accuracy regression", file=sys.stderr)
    if args.check and not regressed:
        # The same invariants the committed goldens gate on, runnable
        # against any engine/kernel/recovery combination from the CLI.
        moved = totals["reads_moved"]
        improved = totals["mismatch_after"] < totals["mismatch_before"]
        concordant = (totals["concordance_after"]
                      >= totals["concordance_before"])
        if moved and not improved:
            print("error: reads moved but mismatch totals did not drop",
                  file=sys.stderr)
            regressed = True
        if not concordant:
            print("error: truth concordance regressed", file=sys.stderr)
            regressed = True
    return 1 if regressed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.system import AcceleratedIRSystem, SystemConfig
    from repro.resilience.policy import ResilienceConfig
    from repro.telemetry import Telemetry, write_chrome_trace
    from repro.telemetry.metrics import derive_schedule_metrics
    from repro.workloads.chromosomes import CHROMOSOME_CENSUS
    from repro.workloads.generator import BENCH_PROFILE, chromosome_workload

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}",
              file=sys.stderr)
        return 2
    error = _engine_flag_errors(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    census = next(c for c in CHROMOSOME_CENSUS if c.name == "21")
    sites = chromosome_workload(
        census, args.sites / census.ir_targets, BENCH_PROFILE, seed=args.seed,
    )
    sessions = []

    def record(label: str, config: SystemConfig) -> Telemetry:
        telemetry = Telemetry(label=label)
        AcceleratedIRSystem(config).run(
            sites, replication=args.replication, telemetry=telemetry,
        )
        sessions.append(telemetry)
        return telemetry

    record("sync", SystemConfig(name="IR ACC (sync)", lanes=32,
                                scheduling="sync"))
    async_session = record("async", SystemConfig.iracc())
    recovery_session = record(
        "recovery (fault-free)",
        SystemConfig(name="IR ACC", lanes=32, scheduling="async",
                     resilience=ResilienceConfig()),
    )
    if args.fault_rate > 0.0:
        record(
            f"chaos {args.fault_rate:.0%}",
            SystemConfig(
                name="IR ACC", lanes=32, scheduling="async",
                resilience=ResilienceConfig.chaos(
                    args.chaos_seed, args.fault_rate
                ),
            ),
        )
    if args.fleet > 0:
        from repro.perf.fleet import (
            FleetJob,
            plan_fleet,
            record_fleet_spans,
            simulate_preemptions,
        )

        jobs = [FleetJob(name=f"shard{i}", seconds=600.0 + 60.0 * (i % 5))
                for i in range(2 * args.fleet)]
        plan = plan_fleet(jobs, args.fleet)
        preempted = None
        if args.fault_rate > 0.0:
            from repro.resilience.faults import FaultPlan

            preempted = simulate_preemptions(
                plan,
                FaultPlan.chaos(args.chaos_seed,
                                args.fault_rate).preemption_fraction,
            )
        fleet_session = Telemetry(label="fleet")
        record_fleet_spans(fleet_session, plan, preempted)
        sessions.append(fleet_session)
    # Host-side batched engine session: the same workload through the
    # software engine, with shard spans + prefilter counters recorded.
    from repro.engine import Engine, EngineConfig

    engine_session = Telemetry(label="engine")
    config = EngineConfig(workers=args.workers, batch=args.batch,
                          kernel=args.kernel)
    recovery = _make_recovery(args)
    with Engine(config, recovery=recovery) as engine:
        engine.run_sites(sites, telemetry=engine_session)
    sessions.append(engine_session)
    if args.stream:
        # Streaming data-plane session over the same workload: chunk
        # spans land on CAT_STREAM tracks with queue/backpressure
        # counters next to the barrier engine's session for comparison
        # (and, under --worker-fault-rate, CAT_RECOVERY spans beside
        # the chunks whose workers were killed/hung/errored).
        from repro.engine import StreamingEngine

        stream_session = Telemetry(label="stream")
        with StreamingEngine(config, queue_depth=args.queue_depth,
                             recovery=recovery) as stream_engine:
            stream_engine.run_sites(sites, telemetry=stream_session)
        sessions.append(stream_session)
    write_chrome_trace(sessions, args.out)
    for session in sessions:
        if session.label == "fleet":
            flat = session.counters.flat()
            print(f"[fleet] {flat.get('fleet.jobs', 0)} jobs on "
                  f"{flat.get('fleet.instances', 0)} instances, "
                  f"{flat.get('fleet.preemptions', 0)} preemptions")
            continue
        if session.label == "engine":
            flat = session.counters.flat()
            evaluated = flat.get("kernel.cells_evaluated", 0)
            pruned = flat.get("kernel.cells_pruned", 0)
            valid = evaluated + pruned
            fraction = pruned / valid if valid else 0.0
            print(f"[engine] {flat.get('kernel.sites', 0)} sites on "
                  f"{flat.get('engine.shards', 0)} shards "
                  f"({args.workers} workers), "
                  f"{fraction:.1%} of WHD cells pruned")
            continue
        if session.label == "stream":
            flat = session.counters.flat()
            print(f"[stream] {flat.get('stream.chunks', 0)} chunks, "
                  f"window {flat.get('stream.queue_depth', 0)}x"
                  f"{args.workers}, max in-flight "
                  f"{flat.get('stream.max_in_flight', 0)}, reorder peak "
                  f"{flat.get('stream.reorder_peak', 0)}, backpressure "
                  f"{flat.get('stream.backpressure_us', 0)} us")
            continue
        metrics = derive_schedule_metrics(session)
        print(f"[{session.label}] {metrics.describe()}")
    matched = set(async_session.spans) == set(recovery_session.spans)
    if matched:
        print(f"fault-free recovery timeline is span-identical to "
              f"schedule_async ({len(async_session.spans)} spans)")
    else:
        print("warning: fault-free recovery spans diverge from "
              "schedule_async", file=sys.stderr)
    print(f"{sum(len(s.spans) for s in sessions)} spans, "
          f"{len(sessions)} sessions -> {args.out}")
    return 0 if matched else 1


def _engine_flag_errors(args: argparse.Namespace):
    """Shared validation for the engine-flag block; error string or None."""
    if args.workers < 1 or args.batch < 1:
        return "error: --workers and --batch must be >= 1"
    if args.queue_depth < 1:
        return "error: --queue-depth must be >= 1"
    if args.site_cache_mb < 0:
        return "error: --site-cache-mb must be >= 0"
    return _check_recovery_flags(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.genomics.fasta import read_reference
    from repro.serve.request import ServiceConfig
    from repro.serve.server import RealignmentServer

    error = _engine_flag_errors(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        service_config = ServiceConfig(
            max_queue_sites=args.max_queue_sites,
            max_tenant_sites=args.max_tenant_sites,
            coalesce_sites=args.coalesce_sites,
            coalesce_wait_ms=args.coalesce_wait_ms,
            admission=args.admission,
            default_deadline_s=args.deadline_s,
        )
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    reference = read_reference(args.reference)
    engine = _make_engine(args)

    async def run() -> int:
        server = RealignmentServer(reference, engine=engine,
                                   service_config=service_config)
        host, port = await server.start(args.host, args.port)
        if args.canary:
            verdict = await server.run_canary()
            status = "ok" if verdict["ok"] else "FAILED"
            print(f"canary [{verdict['scenario']}]: {status} "
                  f"({verdict['reads_moved']} reads moved, mismatches "
                  f"{verdict['mismatch_before']} -> "
                  f"{verdict['mismatch_after']})")
            if not verdict["ok"]:
                print("error: serving-path canary failed -- refusing to "
                      "serve", file=sys.stderr)
                await server.close()
                return 1
        print(f"serving on {host}:{port} "
              f"(admission={service_config.admission}, "
              f"limit={service_config.max_queue_sites} sites, "
              f"coalesce={service_config.coalesce_sites} sites / "
              f"{service_config.coalesce_wait_ms:g}ms); "
              f"Ctrl-C or a shutdown op to stop", flush=True)
        try:
            await server.serve_until_shutdown()
        except (KeyboardInterrupt, asyncio.CancelledError):
            await server.close()
        print(f"serve: {server.service.snapshot().describe()}")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    finally:
        _print_recovery(engine, args)
        engine.close()


def _loadgen_inputs(args: argparse.Namespace):
    """The (reference, reads) a loadgen run partitions into jobs."""
    from repro.genomics.fasta import read_reference
    from repro.genomics.samlite import read_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    if args.sam is not None:
        if args.reference is None:
            raise ValueError("--sam requires --reference")
        return read_reference(args.reference), read_sam(args.sam)
    profile = SimulationProfile(coverage=args.coverage)
    sample = simulate_sample({"chrL": args.length}, profile=profile,
                             seed=args.seed)
    return sample.reference, sample.reads


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.genomics.samlite import format_read, write_sam
    from repro.serve.loadgen import run_loadgen, simulate_load
    from repro.workloads.serving import LoadProfile

    try:
        profile = LoadProfile(
            tenants=args.tenants,
            requests_per_tenant=args.requests_per_tenant,
            mean_interarrival_s=args.mean_interarrival_ms / 1e3,
            deadline_s=args.deadline_s,
            preempt_rate=args.preempt_rate,
            schedule=args.schedule,
        )
        reference, reads = _loadgen_inputs(args)
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2

    if args.dry_run:
        from repro.realign.realigner import IndelRealigner
        from repro.serve.jobs import partition_jobs

        realigner = IndelRealigner(reference)
        job_sites = [len(realigner.build_sites(job.reads)[1])
                     for job in partition_jobs(reads, reference)]
        report = simulate_load(profile, job_sites, seed=args.seed)
        print(report.summary())
        if args.json_out is not None:
            args.json_out.write_text(report.to_json())
            print(f"report -> {args.json_out}")
        return 0

    async def drive(host: str, port: int):
        updated, report = await run_loadgen(
            host, port, reads, reference, profile=profile,
            seed=args.seed, time_scale=args.time_scale,
        )
        if args.shutdown:
            from repro.serve.client import ServiceClient

            client = await ServiceClient.open(host, port)
            await client.shutdown()
            await client.close()
        return updated, report

    if args.selftest:
        error = _engine_flag_errors(args)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        from repro.realign.realigner import IndelRealigner
        from repro.serve.server import RealignmentServer

        engine = _make_engine(args)

        async def selftest():
            server = RealignmentServer(reference, engine=engine)
            host, port = await server.start(port=0)
            try:
                return await drive(host, port)
            finally:
                await server.close()

        try:
            updated, report = asyncio.run(selftest())
        finally:
            engine.close()
        expected, _ = IndelRealigner(reference).realign(reads)
        identical = ([format_read(r) for r in updated]
                     == [format_read(r) for r in expected])
        print(report.summary())
        print(f"selftest: served output is "
              f"{'byte-identical' if identical else 'DIVERGENT'} "
              f"vs. the batch realigner ({len(updated)} reads)")
        if args.json_out is not None:
            args.json_out.write_text(report.to_json())
        if not identical:
            return 1
    else:
        updated, report = asyncio.run(drive(args.host, args.port))
        print(report.summary())
        if args.json_out is not None:
            args.json_out.write_text(report.to_json())
            print(f"report -> {args.json_out}")

    if args.out is not None:
        write_sam(updated, args.out, reference)
        print(f"{len(updated)} reads -> {args.out}")
    if args.compare is not None:
        from repro.genomics.samlite import read_sam

        expected_lines = [format_read(r) for r in read_sam(args.compare)]
        got_lines = [format_read(r) for r in updated]
        if got_lines != expected_lines:
            print(f"error: served output diverges from {args.compare}",
                  file=sys.stderr)
            return 1
        print(f"served output matches {args.compare} "
              f"({len(got_lines)} reads)")
        _print_site_cache(report.server)
    return 0


def _print_site_cache(server_stats) -> None:
    """The site-cache line from a server's snapshot dict."""
    if not isinstance(server_stats, dict):
        return
    counters = server_stats.get("counters", {}) or {}
    if counters.get("cache.hits", 0) or counters.get("cache.misses", 0):
        rate = server_stats.get("cache_hit_rate", 0.0)
        print(f"site cache: {rate:.1%} hit rate "
              f"({counters.get('cache.hits', 0)} hits / "
              f"{counters.get('cache.misses', 0)} misses, "
              f"{counters.get('cache.evictions', 0)} evictions, "
              f"{counters.get('cache.bytes', 0)} bytes held)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HPCA'19 FPGA INDEL realignment reproduction driver",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("figure2", "figure3", "figure4", "figure7", "tables",
                 "appendix", "microarch", "comparisons", "all"):
        sub.add_parser(name, help=COMMANDS[name])
    figure9_parser = sub.add_parser("figure9", help=COMMANDS["figure9"])
    figure9_parser.add_argument("--sites", type=int, default=96,
                                help="sites per chromosome")
    figure9_parser.add_argument("--replication", type=int, default=24,
                                help="schedule replication rounds")

    resilience_parser = sub.add_parser(
        "resilience", help=COMMANDS["resilience"],
    )
    resilience_parser.add_argument(
        "--fault-rate", type=float, action="append", dest="fault_rate",
        help="fault rate to sweep (repeatable; default 0/2/5/10/20%%)",
    )
    resilience_parser.add_argument("--chaos-seed", type=int, default=1234,
                                   help="seed for the deterministic FaultPlan")
    resilience_parser.add_argument("--sites", type=int, default=48,
                                   help="sites in the sweep workload")
    resilience_parser.add_argument("--replication", type=int, default=4,
                                   help="schedule replication rounds")
    resilience_parser.add_argument(
        "--telemetry", type=_out_file, default=None, metavar="PATH",
        help="write a Chrome trace of the sweep (one session per rate)",
    )

    simulate = sub.add_parser("simulate", help=COMMANDS["simulate"])
    simulate.add_argument("--out", required=True, type=_out_dir)
    simulate.add_argument("--contig", default="chr22")
    simulate.add_argument("--length", type=int, default=30_000)
    simulate.add_argument("--coverage", type=float, default=40.0)
    simulate.add_argument("--indel-rate", type=float, default=8e-4)
    simulate.add_argument("--seed", type=int, default=0)

    realign = sub.add_parser("realign", help=COMMANDS["realign"])
    realign.add_argument("--reference", required=True)
    realign.add_argument("--sam", required=True)
    realign.add_argument("--out", required=True, type=_out_file)
    realign.add_argument("--accelerated", action="store_true",
                         help="run the kernel on the FPGA system model")
    realign.add_argument("--fault-rate", type=float, default=0.0,
                         dest="fault_rate",
                         help="chaos mode: per-attempt fault rate "
                              "(requires --accelerated)")
    realign.add_argument("--chaos-seed", type=int, default=0,
                         dest="chaos_seed",
                         help="seed for the deterministic FaultPlan")
    realign.add_argument(
        "--telemetry", type=_out_file, default=None, metavar="PATH",
        help="write a Chrome trace of the accelerated run "
             "(requires --accelerated)",
    )
    _add_engine_flags(realign)

    trace = sub.add_parser(
        "trace", help=COMMANDS["trace"],
    )
    trace.add_argument("--out", required=True, type=_out_file,
                       help="trace_event JSON file to write")
    trace.add_argument("--sites", type=int, default=24,
                       help="sites in the traced workload")
    trace.add_argument("--replication", type=int, default=1,
                       help="schedule replication rounds")
    trace.add_argument("--seed", type=int, default=42,
                       help="workload synthesis seed")
    trace.add_argument("--fault-rate", type=float, default=0.0,
                       dest="fault_rate",
                       help="add a chaos session at this fault rate")
    trace.add_argument("--chaos-seed", type=int, default=1234,
                       dest="chaos_seed",
                       help="seed for the deterministic FaultPlan")
    trace.add_argument("--fleet", type=int, default=0,
                       help="add a fleet session with this many instances")
    _add_engine_flags(trace)

    evaluate = sub.add_parser(
        "evaluate", help=COMMANDS["evaluate"],
    )
    evaluate.add_argument(
        "--scenario", choices=("toy", "cohort", "adversarial"),
        default="toy",
        help="workload to evaluate (see docs/EVALUATION.md)",
    )
    evaluate.add_argument("--seed", type=int, default=None,
                          help="override the scenario's pinned seed")
    evaluate.add_argument("--out", type=_out_file, default=None,
                          help="write the full EvaluationReport JSON here")
    evaluate.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the accuracy invariants hold "
             "(mismatches drop, concordance does not regress)",
    )
    evaluate.add_argument("--chaos-seed", type=int, default=1234,
                          dest="chaos_seed",
                          help="seed for the deterministic FaultPlan")
    _add_engine_flags(evaluate)

    serve = sub.add_parser("serve", help=COMMANDS["serve"])
    serve.add_argument("--reference", required=True,
                       help="reference FASTA the server realigns against")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--max-queue-sites", type=int, default=512,
                       dest="max_queue_sites",
                       help="admission limit on outstanding sites")
    serve.add_argument("--max-tenant-sites", type=int, default=None,
                       dest="max_tenant_sites",
                       help="per-tenant outstanding-site cap (fairness)")
    serve.add_argument("--coalesce-sites", type=int, default=32,
                       dest="coalesce_sites",
                       help="dispatch an engine batch at this many sites")
    serve.add_argument("--coalesce-wait-ms", type=float, default=2.0,
                       dest="coalesce_wait_ms",
                       help="max linger before dispatching a partial batch")
    serve.add_argument("--admission", choices=("reject", "queue"),
                       default="reject",
                       help="over-limit submissions: reject now, or park "
                            "until room frees (deadlines still apply)")
    serve.add_argument("--deadline-s", type=float, default=30.0,
                       dest="deadline_s",
                       help="default per-request deadline")
    serve.add_argument("--canary", action="store_true",
                       help="run the toy evaluation scenario through the "
                            "serving path before accepting traffic; "
                            "refuse to serve if outcomes regress")
    serve.add_argument("--chaos-seed", type=int, default=1234,
                       dest="chaos_seed",
                       help="seed for the deterministic FaultPlan")
    _add_engine_flags(serve)

    loadgen = sub.add_parser("loadgen", help=COMMANDS["loadgen"])
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8765)
    loadgen.add_argument("--reference", default=None,
                         help="reference FASTA (with --sam); omit to "
                              "synthesize a sample instead")
    loadgen.add_argument("--sam", default=None,
                         help="input SAM to partition into region jobs")
    loadgen.add_argument("--length", type=int, default=9_000,
                         help="synthetic contig length (no --sam)")
    loadgen.add_argument("--coverage", type=float, default=16.0,
                         help="synthetic coverage (no --sam)")
    loadgen.add_argument("--tenants", type=int, default=4)
    loadgen.add_argument("--requests-per-tenant", type=int, default=8,
                         dest="requests_per_tenant")
    loadgen.add_argument("--mean-interarrival-ms", type=float, default=10.0,
                         dest="mean_interarrival_ms",
                         help="per-tenant mean gap between requests")
    loadgen.add_argument("--deadline-s", type=float, default=30.0,
                         dest="deadline_s",
                         help="per-request deadline")
    loadgen.add_argument("--preempt-rate", type=float, default=0.0,
                         dest="preempt_rate",
                         help="client-fleet spot-preemption replay rate")
    loadgen.add_argument("--schedule",
                         choices=("uniform", "duplicate_heavy"),
                         default="uniform",
                         help="job assignment: uniform round-robin, or "
                              "duplicate_heavy (tenants re-submit a hot "
                              "set of overlapping cohort regions -- the "
                              "site-cache regime)")
    loadgen.add_argument("--time-scale", type=float, default=1.0,
                         dest="time_scale",
                         help="multiply scheduled gaps (0 = fire at once)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="schedule synthesis seed")
    loadgen.add_argument("--out", type=_out_file, default=None,
                         help="write the reassembled realigned SAM here")
    loadgen.add_argument("--json", type=_out_file, default=None,
                         dest="json_out",
                         help="write the LoadReport JSON here")
    loadgen.add_argument("--compare", type=str, default=None,
                         metavar="SAM",
                         help="byte-compare the reassembled SAM against "
                              "this file; exit non-zero on divergence")
    loadgen.add_argument("--dry-run", action="store_true", dest="dry_run",
                         help="no server: replay the schedule through the "
                              "virtual-time queue model and report exact "
                              "percentiles")
    loadgen.add_argument("--selftest", action="store_true",
                         help="start an in-process server, drive the load "
                              "against it, and verify the output is "
                              "byte-identical to the batch realigner")
    loadgen.add_argument("--shutdown", action="store_true",
                         help="send the server a shutdown op afterwards")
    loadgen.add_argument("--chaos-seed", type=int, default=1234,
                         dest="chaos_seed",
                         help="seed for the deterministic FaultPlan")
    _add_engine_flags(loadgen)
    return parser


def _add_engine_flags(subparser: argparse.ArgumentParser) -> None:
    """Batched-engine knobs shared by ``realign``, ``trace``,
    ``evaluate``, ``serve`` and ``loadgen``."""
    from repro.kernels import KERNEL_CHOICES

    subparser.add_argument(
        "--workers", type=int, default=1,
        help="engine worker threads (1 = inline, no pool)",
    )
    subparser.add_argument(
        "--batch", type=int, default=8,
        help="sites per engine shard (work-stealing chunk size)",
    )
    subparser.add_argument(
        "--stream", action="store_true",
        help="use the streaming engine: bounded in-flight window, "
             "incremental in-order merge",
    )
    subparser.add_argument(
        "--queue-depth", type=int, default=2, dest="queue_depth",
        help="in-flight chunks per worker for --stream (window = "
             "depth x workers)",
    )
    subparser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="auto",
        help="WHD kernel: one of the exact kernels by name; 'auto' "
             "(default) means 'native', the compiled tier, which "
             "degrades to bitpack when no backend is usable "
             "(docs/PERFORMANCE.md)",
    )
    subparser.add_argument(
        "--worker-fault-rate", type=float, default=0.0,
        dest="worker_fault_rate",
        help="host chaos mode: per-chunk-dispatch probability of an "
             "injected worker fault (delay/error), seeded by "
             "--chaos-seed; requires --workers >= 2",
    )
    subparser.add_argument(
        "--site-cache-mb", type=float, default=0.0, dest="site_cache_mb",
        metavar="MB",
        help="content-addressed site-result cache byte budget (LRU); "
             "duplicate sites short-circuit the kernel entirely "
             "(0 = disabled)",
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.engine.native import native_mode
    from repro.genomics.fasta import FastaError
    from repro.genomics.samlite import SamError
    from repro.resilience.workers import WorkerRecovery

    try:
        native_mode()
        WorkerRecovery.from_env()
    except ValueError as error:
        parser.error(str(error))
    try:
        return _run_command(args)
    except (SamError, FastaError, OSError) as error:
        # A bad input is the user's to fix: say which and where.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "realign":
        return _cmd_realign(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if not hasattr(args, "sites"):
        args.sites = 96
        args.replication = 24
    return _cmd_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
