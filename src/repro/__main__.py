"""Command-line driver: ``python -m repro <command>``.

The command table is ``COMMANDS`` below: it feeds the subparsers'
help, the ``--help`` epilog and the index in ``docs/CLI.md``, and
``tests/test_cli_reference.py`` keeps all three in sync. Every
subparser names its command function with ``set_defaults(run=...)``;
``main`` checks the parsed flags once (``_flag_errors``) and
dispatches, and every engine-backed command gets its engine from
``engine_from_args``.

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
        --workers 2 --worker-fault-rate 0.2 --chaos-seed 7
    python -m repro trace --out /tmp/trace.json --fault-rate 0.1
    python -m repro trace --out /tmp/trace.json --workers 2
    python -m repro evaluate --scenario adversarial --out /tmp/report.json
    python -m repro evaluate --scenario cohort --workers 2
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
from contextlib import contextmanager
from pathlib import Path

#: Every subcommand with its one-line description; a paper command's
#: is the docstring heading of its ``repro.experiments`` module. This
#: single table feeds the subparser ``help=`` strings, the ``--help``
#: epilog, and the index in ``docs/CLI.md``
#: (``tests/test_cli_reference.py`` keeps them in sync) -- so adding a
#: subcommand without documenting it is a test failure, not a silent
#: omission.
COMMANDS = {
    "figure2": "Figure 2: genomic-analysis execution-time breakdown",
    "figure3": "Figure 3: INDEL realignment's share of refinement time, "
               "per chromosome",
    "figure4": "Figure 4: the paper's worked INDEL-realignment example",
    "figure7": "Figure 7: synchronous- vs asynchronous-parallel scheduling",
    "figure9": "Figure 9: speedups over GATK3 (left) and dollars to run "
               "(right)",
    "tables": "Tables I and II: the accelerator ISA and the machine "
              "configurations",
    "appendix": "The paper's Appendix: Figure 10 and the glossary, made "
                "executable",
    "microarch": "Microarchitecture claims: pruning, resources, throughput, "
                 "DMA share",
    "comparisons": "Section V-B comparison points: ADAM, HLS, and GPU",
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    """A paper experiment that takes no flags: print its tables."""
    from importlib import import_module

    import_module(f"repro.experiments.{args.command}").main()
    return 0


def _cmd_figure9(args: argparse.Namespace) -> int:
    from repro.experiments import figure9

    figure9.main(sites_per_chromosome=args.sites,
                 replication=args.replication)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.experiments import resilience

    resilience.main(
        fault_rates=tuple(args.fault_rate or resilience.DEFAULT_FAULT_RATES),
        sites_per_chromosome=args.sites,
        replication=args.replication,
        chaos_seed=args.chaos_seed,
        trace_out=args.telemetry,
    )
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Every experiment in order, each at its own subcommand's defaults."""
    parser = build_parser()
    for name in ("figure2", "figure3", "figure4", "tables", "figure7",
                 "appendix", "microarch", "figure9", "resilience"):
        leg = parser.parse_args([name])
        leg.run(leg)
        print()
    return 0


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


@contextmanager
def engine_from_args(args: argparse.Namespace):
    """The live :class:`Engine` the engine flags describe, closed on exit.

    Its :class:`WorkerRecovery` is a chaos plan when
    ``--worker-fault-rate`` was given, else the environment's; a
    :class:`~repro.shard.cache.SiteResultCache` sits in front when
    ``--site-cache-mb`` asks for one. When the block completes it
    prints the ``stream:`` line of a pooled run (``--workers >= 2``:
    only a pool has a window) and the ``recovery:`` line -- when
    ``--worker-fault-rate`` was given, or when the pool had to recover
    anything.
    """
    from repro.engine import Engine, EngineConfig
    from repro.resilience.workers import WorkerRecovery

    try:
        recovery = (
            WorkerRecovery.chaos(args.chaos_seed, args.worker_fault_rate)
            if args.worker_fault_rate > 0.0 else WorkerRecovery.from_env()
        )
    except ValueError as error:  # a malformed REPRO_* number
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)
    cache = None
    if args.site_cache_mb > 0:
        from repro.shard.cache import SiteResultCache

        cache = SiteResultCache.from_megabytes(args.site_cache_mb)
    config = EngineConfig(workers=args.workers, batch=args.batch,
                          kernel=args.kernel)
    engine = Engine(config, recovery=recovery, cache=cache)
    try:
        yield engine
        if args.workers >= 2 and engine.stream_stats:
            stats = engine.stream_stats
            print(f"stream: {stats['stream.chunks']} chunks, "
                  f"max in-flight {stats['stream.max_in_flight']}, "
                  f"reorder peak {stats['stream.reorder_peak']}, "
                  f"backpressure {stats['stream.backpressure_us']} us")
        counters = engine.recovery_counters
        if (args.worker_fault_rate > 0.0
                or any(name.startswith("worker.") for name in counters)):
            injected = sum(value for name, value in counters.items()
                           if name.startswith("worker.injected."))
            print(f"recovery: {injected} worker faults injected, "
                  f"{counters.get('worker.retries', 0)} retries, "
                  f"{counters.get('worker.quarantined_sites', 0)} sites "
                  f"quarantined inline")
    finally:
        engine.close()


def _cmd_realign(args: argparse.Namespace) -> int:
    from repro.genomics.fasta import read_reference
    from repro.genomics.samlite import copy_patched, read_sam
    from repro.realign.realigner import IndelRealigner, moved_records

    # --sam is read twice: parsed into reads, then copied to --out with
    # the moved reads' POS and CIGAR patched. A pipe cannot be re-read.
    sam = Path(args.sam)
    if sam.exists() and not sam.is_file():
        print(f"error: --sam {sam} is not a regular file (it is read "
              "twice)", file=sys.stderr)
        return 2
    if args.out.exists() and args.out.samefile(sam):
        print("error: --out must not be --sam (the input is copied to it)",
              file=sys.stderr)
        return 2
    with engine_from_args(args) as engine:
        reference = read_reference(args.reference)
        reads = read_sam(args.sam, reference)
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
                  f"kernel={args.kernel}")
    moved = moved_records(reads, updated)
    try:
        with open(args.out, "w") as sink:
            copy_patched(args.sam, sink, moved, len(reads))
    except BaseException:
        if args.out.is_file() and not args.out.is_symlink():
            args.out.unlink()
        raise
    print(f"{report.targets_identified} targets, {report.sites_built} sites, "
          f"{report.reads_realigned} reads realigned "
          f"({report.reads_moved} moved) -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluate import run_scenario

    with engine_from_args(args) as engine:
        report = run_scenario(
            args.scenario, engine=engine, seed=args.seed,
        )
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
    # The same workload through the host engine (shard spans, kernel,
    # window and cache counters; CAT_RECOVERY spans under
    # --worker-fault-rate).
    session = Telemetry(label="engine")
    with engine_from_args(args) as engine:
        engine.run_sites(sites, telemetry=session)
    sessions.append(session)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.genomics.fasta import read_reference
    from repro.serve.request import ServiceConfig
    from repro.serve.server import RealignmentServer

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

    async def run(engine) -> int:
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

    with engine_from_args(args) as engine:
        try:
            return asyncio.run(run(engine))
        except KeyboardInterrupt:
            return 0


def _loadgen_inputs(args: argparse.Namespace):
    """The (reference, header, lines, reads) of the ``--sam`` file, or
    of the simulated sample rendered once as SAM."""
    import io

    from repro.genomics.fasta import read_reference
    from repro.genomics.samlite import read_sam_lines, write_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    if args.sam is not None:
        reference, source = read_reference(args.reference), args.sam
    else:
        profile = SimulationProfile(coverage=args.coverage)
        sample = simulate_sample({"chrL": args.length}, profile=profile,
                                 seed=args.seed)
        reference, source = sample.reference, io.StringIO()
        write_sam(sample.reads, source, reference)
        source.seek(0)
    return (reference, *read_sam_lines(source, reference))


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

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
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    reference, header, lines, reads = _loadgen_inputs(args)

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
            host, port, lines, reads, reference, profile=profile,
            seed=args.seed, time_scale=args.time_scale,
        )
        if args.shutdown:
            from repro.serve.client import ServiceClient

            client = await ServiceClient.open(host, port)
            await client.shutdown()
            await client.close()
        return updated, report

    if args.selftest:
        from repro.realign.realigner import IndelRealigner, moved_records
        from repro.serve.client import patch_moved
        from repro.serve.server import RealignmentServer

        async def selftest(engine):
            server = RealignmentServer(reference, engine=engine)
            host, port = await server.start(port=0)
            try:
                return await drive(host, port)
            finally:
                await server.close()

        with engine_from_args(args) as engine:
            updated, report = asyncio.run(selftest(engine))
        # The CLI's contract on the same lines: patch what moved.
        realigned, _ = IndelRealigner(reference).realign(reads)
        identical = updated == patch_moved(lines,
                                           moved_records(reads, realigned))
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
        args.out.write_text("".join(f"{line}\n" for line in header + updated))
        print(f"{len(updated)} reads -> {args.out}")
    if args.compare is not None:
        from repro.genomics.samlite import read_sam_lines

        if read_sam_lines(args.compare)[1] != updated:
            print(f"error: served output diverges from {args.compare}",
                  file=sys.stderr)
            return 1
        print(f"served output matches {args.compare} "
              f"({len(updated)} reads)")
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

    def command(name: str, run) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=COMMANDS[name])
        subparser.set_defaults(run=run)
        return subparser

    for name in ("figure2", "figure3", "figure4", "figure7", "tables",
                 "appendix", "microarch", "comparisons"):
        command(name, _cmd_experiment)
    command("all", _cmd_all)
    figure9_parser = command("figure9", _cmd_figure9)
    figure9_parser.add_argument("--sites", type=int, default=96,
                                help="sites per chromosome")
    figure9_parser.add_argument("--replication", type=int, default=24,
                                help="schedule replication rounds")

    resilience_parser = command("resilience", _cmd_resilience)
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

    simulate = command("simulate", _cmd_simulate)
    simulate.add_argument("--out", required=True, type=_out_dir)
    simulate.add_argument("--contig", default="chr22")
    simulate.add_argument("--length", type=int, default=30_000)
    simulate.add_argument("--coverage", type=float, default=40.0)
    simulate.add_argument("--indel-rate", type=float, default=8e-4)
    simulate.add_argument("--seed", type=int, default=0)

    realign = command("realign", _cmd_realign)
    realign.add_argument("--reference", required=True)
    realign.add_argument("--sam", required=True)
    realign.add_argument("--out", required=True, type=_out_file)
    realign.add_argument("--accelerated", action="store_true",
                         help="run the kernel on the FPGA system model")
    realign.add_argument("--fault-rate", type=float, default=0.0,
                         dest="fault_rate",
                         help="chaos mode: per-attempt fault rate "
                              "(requires --accelerated)")
    realign.add_argument(
        "--telemetry", type=_out_file, default=None, metavar="PATH",
        help="write a Chrome trace of the accelerated run "
             "(requires --accelerated)",
    )
    _add_engine_flags(realign)

    trace = command("trace", _cmd_trace)
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
    trace.add_argument("--fleet", type=int, default=0,
                       help="add a fleet session with this many instances")
    _add_engine_flags(trace)

    evaluate = command("evaluate", _cmd_evaluate)
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
    _add_engine_flags(evaluate)

    serve = command("serve", _cmd_serve)
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
    _add_engine_flags(serve)

    loadgen = command("loadgen", _cmd_loadgen)
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
        "--chaos-seed", type=int, default=1234, dest="chaos_seed",
        help="seed for the deterministic FaultPlan (--fault-rate, "
             "--worker-fault-rate)",
    )
    subparser.add_argument(
        "--site-cache-mb", type=float, default=0.0, dest="site_cache_mb",
        metavar="MB",
        help="content-addressed site-result cache byte budget (LRU); "
             "duplicate sites short-circuit the kernel entirely "
             "(0 = disabled)",
    )


def _flag_errors(args: argparse.Namespace):
    """The one check of the parsed flags' ranges and combinations: the
    first violation's message, or None. ``main`` runs it before any
    command, so no command body re-validates a flag."""
    flags = vars(args)
    if "workers" in flags:
        if args.workers < 1 or args.batch < 1:
            return "--workers and --batch must be >= 1"
        if args.site_cache_mb < 0:
            return "--site-cache-mb must be >= 0"
    for name in ("fault_rate", "worker_fault_rate"):
        rates = flags.get(name)
        for rate in rates if isinstance(rates, list) else [rates]:
            if rate is not None and not 0.0 <= rate <= 1.0:
                flag = "--" + name.replace("_", "-")
                return f"{flag} must be in [0, 1], got {rate}"
    if flags.get("accelerated") is False:
        if args.fault_rate > 0.0:
            return ("--fault-rate requires --accelerated (chaos mode "
                    "injects faults into the FPGA system model)")
        if args.telemetry is not None:
            return ("--telemetry requires --accelerated (the software "
                    "realigner has no hardware timeline)")
    if flags.get("worker_fault_rate", 0.0) > 0.0 and args.workers < 2:
        return ("--worker-fault-rate requires --workers >= 2 "
                "(the inline engine has no worker pool to fault)")
    if flags.get("sam") is not None and flags.get("reference") is None:
        return "--sam requires --reference"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.engine.native import native_mode
    from repro.genomics.fasta import FastaError
    from repro.genomics.samlite import SamError

    try:
        native_mode()
    except ValueError as error:
        parser.error(str(error))
    error = _flag_errors(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except (SamError, FastaError, OSError) as error:
        # A bad input is the user's to fix: say which and where.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
