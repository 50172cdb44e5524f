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
    python -m repro simulate --length 30000 --out /tmp/sample
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --accelerated
    python -m repro realign --reference /tmp/sample/reference.fa \
        --sam /tmp/sample/aligned.sam --out /tmp/sample/realigned.sam \
        --workers 4 --batch 12
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
    "simulate": "write a synthetic sample (FASTA + SAM + truth) to a dir",
    "realign": "run the INDEL realigner over a SAM file (batch)",
    "trace": "record sync/async/engine telemetry to a Chrome trace",
    "evaluate": "score realignment outcomes on a truth-bearing scenario",
    "serve": "serve realignment over TCP: coalescing, admission control, "
             "latency telemetry",
    "loadgen": "drive a seeded many-tenant load against a server "
               "(or --selftest)",
}

#: The paper commands that take no flags, in the order ``all`` runs them.
PAPER_COMMANDS = ("figure2", "figure3", "figure4", "figure7", "tables",
                  "appendix", "microarch", "comparisons")


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


def _cmd_all(args: argparse.Namespace) -> int:
    """Every experiment in order, each at its own subcommand's defaults."""
    parser = build_parser()
    for name in (*PAPER_COMMANDS, "figure9"):
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

    A :class:`~repro.shard.cache.SiteResultCache` sits in front when
    ``--site-cache-mb`` asks for one. When the block completes it
    prints the ``stream:`` line of a pooled run (``--workers >= 2``:
    only a pool has a window).
    """
    from repro.engine import Engine, EngineConfig

    cache = None
    if args.site_cache_mb > 0:
        from repro.shard.cache import SiteResultCache

        cache = SiteResultCache.from_megabytes(args.site_cache_mb)
    config = EngineConfig(workers=args.workers, batch=args.batch,
                          kernel=args.kernel)
    engine = Engine(config, cache=cache)
    try:
        yield engine
        if args.workers >= 2 and engine.stream_stats:
            stats = engine.stream_stats
            print(f"stream: {stats['stream.chunks']} chunks, "
                  f"max in-flight {stats['stream.max_in_flight']}, "
                  f"reorder peak {stats['stream.reorder_peak']}, "
                  f"backpressure {stats['stream.backpressure_us']} us")
    finally:
        engine.close()


def _cmd_realign(args: argparse.Namespace) -> int:
    from repro.engine.native import sam_ingester
    from repro.genomics.fasta import read_reference
    from repro.genomics.samlite import ingest, write_patched
    from repro.realign.realigner import IndelRealigner, moved_records

    # --sam is read once, into one buffer: the columns come from it, and
    # --out is its byte spans with the moved reads' POS and CIGAR patched.
    if args.out.exists() and args.out.samefile(args.sam):
        print("error: --out must not be --sam (the input is copied to it)",
              file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(label="realign")
    with engine_from_args(args) as engine:
        reference = read_reference(args.reference)
        with open(args.sam, "rb") as handle:
            buffer = handle.read()
        compiled = sam_ingester(reference)
        batch = None if compiled is None else compiled(buffer, file=True)
        if batch is None:
            batch = ingest(buffer, reference, file=True,
                           locate=lambda k: f"{args.sam}:{k + 1}")
        del buffer  # --out copies batch.buffer (CR-free, if it had a \r)
        if args.accelerated:
            from repro.core.system import AcceleratedIRSystem, SystemConfig

            engine = AcceleratedIRSystem(SystemConfig.iracc())
            if telemetry is not None:
                telemetry.label = engine.config.name
        windows, results, report = IndelRealigner(
            reference, engine=engine).decide(batch, telemetry=telemetry)
        if args.accelerated:
            run = engine.last_run
            print(f"accelerated run: {run.total_seconds * 1e3:.2f} modelled "
                  f"ms, {run.pruned_fraction:.0%} of comparisons pruned")
            if telemetry is not None:
                from repro.telemetry.metrics import derive_schedule_metrics

                metrics = derive_schedule_metrics(telemetry)
                print(f"telemetry: {metrics.describe()}")
        else:
            print(f"engine: workers={args.workers} batch={args.batch} "
                  f"kernel={args.kernel}")
        if telemetry is not None:
            from repro.telemetry import write_chrome_trace

            write_chrome_trace(telemetry, args.telemetry)
            print(f"trace -> {args.telemetry}")
    moved = moved_records(windows, results, report)
    # A new file, not the old one truncated: truncating waits for the
    # old contents' writeback on some filesystems. A symlink is written
    # through.
    if args.out.is_file() and not args.out.is_symlink():
        args.out.unlink()
    try:
        with open(args.out, "wb") as sink:
            write_patched(batch, moved, sink)
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
        # against any engine/kernel combination from the CLI.
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
    from repro.telemetry import Telemetry, write_chrome_trace
    from repro.telemetry.metrics import derive_schedule_metrics
    from repro.workloads.chromosomes import CHROMOSOME_CENSUS
    from repro.workloads.generator import BENCH_PROFILE, chromosome_workload

    census = next(c for c in CHROMOSOME_CENSUS if c.name == "21")
    sites = chromosome_workload(
        census, args.sites / census.ir_targets, BENCH_PROFILE, seed=args.seed,
    )
    sessions = []

    for label, config in (
        ("sync", SystemConfig(name="IR ACC (sync)", lanes=32,
                              scheduling="sync")),
        ("async", SystemConfig.iracc()),
    ):
        telemetry = Telemetry(label=label)
        AcceleratedIRSystem(config).run(
            sites, replication=args.replication, telemetry=telemetry,
        )
        sessions.append(telemetry)
    # The same workload through the host engine (shard spans, kernel,
    # window and cache counters).
    session = Telemetry(label="engine")
    with engine_from_args(args) as engine:
        engine.run_sites(sites, telemetry=session)
    sessions.append(session)
    write_chrome_trace(sessions, args.out)
    for session in sessions:
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
    print(f"{sum(len(s.spans) for s in sessions)} spans, "
          f"{len(sessions)} sessions -> {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.genomics.fasta import read_reference
    from repro.serve.request import ServiceConfig
    from repro.serve.server import RealignmentServer

    try:
        service_config = ServiceConfig(
            max_queue_sites=args.max_queue_sites,
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
        print(f"serving on {host}:{port} "
              f"(limit={service_config.max_queue_sites} sites); "
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
    from repro.genomics.samlite import write_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    if args.sam is not None:
        reference = read_reference(args.reference)
        return (reference,
                *_sam_lines(Path(args.sam).read_bytes(), args.sam, reference))
    profile = SimulationProfile(coverage=args.coverage)
    sample = simulate_sample({"chrL": args.length}, profile=profile,
                             seed=args.seed)
    sink = io.StringIO()
    write_sam(sample.reads, sink, sample.reference)
    return (sample.reference, *_sam_lines(sink.getvalue().encode("utf-8"),
                                          "<stream>", sample.reference))


def _sam_lines(buffer: bytes, path, reference=None):
    """``(header, lines, reads)`` of a SAM file's bytes: its blank and
    header lines and its alignment lines, newlines dropped, and their
    reads, as :func:`~repro.genomics.samlite.ingest` reads them (errors
    located ``path:line``)."""
    from repro.genomics.read import LINE_AT
    from repro.genomics.samlite import ingest

    batch = ingest(buffer, reference, file=True,
                   locate=lambda k: f"{path}:{k + 1}")
    starts = set(batch.columns[LINE_AT].tolist())
    pieces = batch.buffer.split(b"\n")
    if not pieces[-1]:
        pieces.pop()  # after the last newline: not a line
    header, lines, at = [], [], 0
    for piece in pieces:
        (lines if at in starts else header).append(piece.decode("utf-8"))
        at += len(piece) + 1
    return header, lines, batch.reads()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.loadgen import run_loadgen
    from repro.workloads.serving import LoadProfile

    try:
        profile = LoadProfile(
            tenants=args.tenants,
            requests_per_tenant=args.requests_per_tenant,
            mean_interarrival_s=args.mean_interarrival_ms / 1e3,
            deadline_s=args.deadline_s,
            schedule=args.schedule,
        )
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    reference, header, lines, reads = _loadgen_inputs(args)
    if not lines:
        print(f"error: {args.sam or 'the simulated sample'}: no alignment "
              f"lines to serve", file=sys.stderr)
        return 2

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
        windows, results, _ = IndelRealigner(reference).decide(reads)
        identical = updated == patch_moved(
            lines, moved_records(windows, results))
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
        if _sam_lines(Path(args.compare).read_bytes(),
                      args.compare)[1] != updated:
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

    for name in PAPER_COMMANDS:
        command(name, _cmd_experiment)
    command("all", _cmd_all)
    figure9_parser = command("figure9", _cmd_figure9)
    figure9_parser.add_argument("--sites", type=int, default=96,
                                help="sites per chromosome")
    figure9_parser.add_argument("--replication", type=int, default=24,
                                help="schedule replication rounds")

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
    realign.add_argument(
        "--telemetry", type=_out_file, default=None, metavar="PATH",
        help="write a Chrome trace of the run: the engine's chunks "
             "(one track each), and with --accelerated the modelled "
             "hardware timeline",
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
                       help="admission limit on outstanding sites: a "
                            "submission over it is rejected at once")
    serve.add_argument("--deadline-s", type=float, default=30.0,
                       dest="deadline_s",
                       help="default per-request deadline")
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
    from repro.kernels import KERNEL_CHOICES, default_workers

    subparser.add_argument(
        "--workers", type=int, default=default_workers(),
        help="engine worker threads (default: %(default)s, the CPUs this "
             "process may run on; 1 = inline, no pool)",
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
    if flags.get("sites", 1) < 1 or flags.get("replication", 1) < 1:
        return "--sites and --replication must be >= 1"
    if flags.get("length", 1) < 1:
        return "--length must be >= 1"
    if not flags.get("coverage", 1.0) > 0:
        return "--coverage must be > 0"
    if not flags.get("time_scale", 0.0) >= 0:
        return "--time-scale must be >= 0"
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
