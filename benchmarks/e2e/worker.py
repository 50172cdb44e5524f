"""The phases of the e2e benchmark that import ``repro``.

run.py starts each phase in a fresh interpreter:
``python worker.py <phase> <spec as JSON>``; the phase prints its result
as one JSON line. A spec holds ``workload``, ``kind``, ``scale``,
``seed``, ``seconds``, ``size``, ``workdir`` and, after prep, ``prep``.

Timed end-to-end operations go through three surfaces only, because
later changes cannot edit this directory: ``python -m repro realign``
(launched by run.py), ``python -m repro serve`` with
``repro.serve.client.ServiceClient``, and
``repro.engine.Engine(EngineConfig()).run_sites``. Everything else here
is untimed prep or a guarded per-layer probe.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from common import (
    MIN_OPS,
    OUT_DIR,
    ROUND_REQUESTS,
    SETUP_LAUNCHES,
    SPIN_REF_S,
    Tracer,
    calibrated,
    lines_sha256,
    load_contract,
    percentile,
    sam_body_sha256,
    serve_latencies,
    speed_factor,
    spin_integers,
    spin_objects,
    unfinished,
)

#: Oracle kernels in order of preference; the first one this commit
#: still has is used, so a later kernel cull cannot break the oracle.
#: None of them is the ``auto``/``native`` path the timed ops take.
READ_ORACLE_KERNELS = ("bitpack", "vector", "fft", "scalar")
SITE_ORACLE_KERNELS = ("fft", "bitpack", "vector", "scalar")

#: Sites the pinned-kernel, plane and FPGA-model probes run on.
KERNEL_PROBE_SITES = 32
PLANE_PROBE_SITES = 128
MODEL_PROBE_SITES = 16
PINNED_KERNELS = ("native", "bitpack", "fft", "vector")
CHOSEN_KERNELS = ("native", "bitpack", "fft", "vector", "scalar")


def _cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def results_sha256(results) -> str:
    """Digest over what a site result decides: the consensus picked,
    which reads move, and where to."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(np.int64(result.best_cons).tobytes())
        digest.update(np.asarray(result.realign, dtype=np.uint8).tobytes())
        digest.update(np.asarray(result.new_pos, dtype=np.int64).tobytes())
    return digest.hexdigest()


# -- prep: inputs and oracle (untimed) -----------------------------------

def prep(spec: dict) -> dict:
    from repro.engine.native import native_available, warmup_native

    started = time.perf_counter()
    # The first call in a checkout compiles the C kernels into
    # out/cache (XDG_CACHE_HOME); no later phase pays for it.
    warmup_native()
    native_build_s = time.perf_counter() - started
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    maker = _prep_sites if spec["kind"] == "sites" else _prep_reads
    result = maker(spec, workdir)
    result.update(
        native_build_s=native_build_s,
        native_available=native_available(),
        numpy=np.__version__,
        prep_s=time.perf_counter() - started - result["oracle_s"],
    )
    return result


def _oracle_realigner(reference):
    """The serial per-site realigner (no engine) on an oracle kernel."""
    from repro.realign.realigner import IndelRealigner

    for kernel in READ_ORACLE_KERNELS:
        try:
            return IndelRealigner(reference, kernel=kernel), kernel
        except ValueError:
            continue
    raise RuntimeError(f"no oracle kernel among {READ_ORACLE_KERNELS}")


def _prep_reads(spec: dict, workdir: Path) -> dict:
    from repro.genomics.fasta import write_reference
    from repro.genomics.samlite import format_read, write_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample
    from repro.serve.jobs import partition_jobs

    size = spec["size"]
    profile = {"coverage": size["coverage"]}
    if size["indel_rate"] is not None:
        profile["indel_rate"] = size["indel_rate"]
    sample = simulate_sample(
        {f"ctg{i:02d}": size["length"] for i in range(size["contigs"])},
        profile=SimulationProfile(**profile), seed=spec["seed"],
    )
    write_reference(sample.reference, workdir / "reference.fa")
    write_sam(sample.reads, workdir / "reads.sam", sample.reference)
    input_sha = hashlib.sha256(
        (workdir / "reference.fa").read_bytes()
        + (workdir / "reads.sam").read_bytes()
    ).hexdigest()

    oracle_started = time.perf_counter()
    realigner, kernel = _oracle_realigner(sample.reference)
    if spec["kind"] == "cli":
        write_sam(sample.reads[:1], workdir / "tiny.sam", sample.reference)
        updated, _report = realigner.realign(sample.reads)
        write_sam(updated, workdir / "oracle.sam", sample.reference)
        oracle = sam_body_sha256(workdir / "oracle.sam")
        jobs = 0
    else:
        region_jobs = partition_jobs(sample.reads, sample.reference)
        oracle = [
            lines_sha256([format_read(read)
                          for read in realigner.realign(job.reads)[0]])
            for job in region_jobs
        ]
        with open(workdir / "jobs.json", "w") as handle:
            json.dump([[format_read(read) for read in job.reads]
                       for job in region_jobs], handle)
        jobs = len(region_jobs)
    return {"input_sha256": input_sha, "oracle": oracle,
            "oracle_kernel": kernel, "reads": len(sample.reads),
            "jobs": jobs,
            "oracle_s": time.perf_counter() - oracle_started}


def _prep_sites(spec: dict, workdir: Path) -> dict:
    from repro.engine import Engine, EngineConfig
    from repro.engine.autotune import dispatch_realign
    from repro.workloads.generator import REAL_PROFILE, synthesize_site

    rng = np.random.default_rng(spec["seed"])
    sites = [synthesize_site(rng, REAL_PROFILE, start=i * 5000)
             for i in range(spec["size"]["sites"])]
    with open(workdir / "sites.pkl", "wb") as handle:
        pickle.dump(sites, handle)
    digest = hashlib.sha256()
    for site in sites:
        digest.update("\n".join(site.consensuses + site.reads).encode())
        for qual in site.quals:
            digest.update(np.asarray(qual, dtype=np.uint8).tobytes())

    oracle_started = time.perf_counter()
    for kernel in SITE_ORACLE_KERNELS:
        try:
            config = EngineConfig(kernel=kernel)
        except ValueError:
            continue
        break
    else:
        raise RuntimeError(f"no oracle kernel among {SITE_ORACLE_KERNELS}")
    with Engine(config) as engine:
        results = engine.run_sites(sites)
    # The scalar loop is the definition of the kernel but far too slow
    # for every site: it vouches for the oracle on the two smallest.
    if kernel != "scalar":
        smallest = sorted(range(len(sites)),
                          key=lambda i: sites[i].unpruned_comparisons())[:2]
        for index in smallest:
            try:
                truth = dispatch_realign(sites[index], kernel="scalar")
            except ValueError:
                break  # this commit has no scalar kernel
            if not truth.same_outputs(results[index]):
                raise RuntimeError(
                    f"oracle kernel {kernel} disagrees with scalar on "
                    f"site {index}"
                )
    return {"input_sha256": digest.hexdigest(),
            "oracle": results_sha256(results), "oracle_kernel": kernel,
            "reads": sum(site.num_reads for site in sites), "jobs": 0,
            "oracle_s": time.perf_counter() - oracle_started}


# -- sites_dense: the engine in this process -----------------------------

def sites_setup(_spec: dict) -> dict:
    """What a fresh interpreter does before its first run_sites call;
    run.py times this process from launch to exit."""
    from repro.engine import Engine, EngineConfig
    from repro.engine.native import warmup_native

    warmup_native()
    Engine(EngineConfig())
    return {}


def _load_sites(spec: dict):
    with open(Path(spec["workdir"]) / "sites.pkl", "rb") as handle:
        return pickle.load(handle)


def _timed_run_sites(engine, sites) -> dict:
    def operation():
        cpu_before = _cpu_seconds()
        results = engine.run_sites(sites)
        return results, _cpu_seconds() - cpu_before

    (results, cpu), wall, factor = calibrated(operation, spin_integers)
    return {"wall": wall, "cpu": cpu, "factor": factor,
            "digest": results_sha256(results)}


def _warm_engine(sites):
    """The default engine after one untimed warm-up operation."""
    from repro.engine import Engine, EngineConfig
    from repro.engine.native import warmup_native

    warmup_native()
    engine = Engine(EngineConfig())
    engine.run_sites(sites[:KERNEL_PROBE_SITES])
    return engine


def sites_ops(spec: dict) -> dict:
    sites = _load_sites(spec)
    engine = _warm_engine(sites)
    samples = []
    deadline = time.perf_counter() + spec["seconds"]
    while unfinished(len(samples), spec, deadline):
        samples.append(_timed_run_sites(engine, sites))
    return {"samples": samples, "peak_rss_mb": _peak_rss_mb()}


# -- serve_regions: a served request, bytes in to bytes out --------------

class _Server:
    """One ``python -m repro serve`` child with default flags and the two
    closed-loop clients connected to it."""

    def __init__(self, proc, address, clients):
        self.proc = proc
        self.address = address
        self.clients = clients

    @classmethod
    async def start(cls, reference: Path) -> "_Server":
        """Spawn, wait for the ``serving on`` line, connect both clients
        and have one ping answered each: the served path's set-up."""
        from repro.serve.client import ServiceClient

        # A server shut down while a handler is still closing its
        # connection logs a traceback per handler; stderr goes to a file
        # that is shown only when the server fails to come up.
        log = reference.with_name("serve.err")
        with open(log, "ab") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--reference", str(reference), "--port", "0"],
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        while True:
            line = proc.stdout.readline()
            if not line:
                proc.wait()
                raise RuntimeError(
                    f"repro serve exited with {proc.returncode} before "
                    f"serving:\n{log.read_text()[-2000:]}"
                )
            match = re.search(r"serving on ([\w.]+):(\d+)", line)
            if match:
                break
        address = (match[1], int(match[2]))
        try:
            clients = [await ServiceClient.open(*address) for _ in range(2)]
            await asyncio.gather(*(client.ping() for client in clients))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return cls(proc, address, clients)

    def cpu_seconds(self) -> float:
        """User+sys CPU of the live server so far, from /proc."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self) -> float:
        """Shut the server down and reap it; returns its peak RSS in MB.

        The shutdown op goes over a connection of its own once the two
        clients have hung up: a server stopped under open connections
        logs a traceback per cancelled handler.
        """
        from repro.serve.client import ServiceClient

        for client in self.clients:
            await client.close()
        last = await ServiceClient.open(*self.address)
        await last.shutdown()
        await last.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0


async def _campaign(server, payloads, oracle, spec, tracer=None) -> list:
    """Closed loop, two clients with one connection each: a client sends
    its next request when the last one is answered. Half of the draws
    come from a hot eighth of the jobs, half from all of them. Between
    rounds both clients pause for the spin that calibrates the round."""
    from repro.serve.request import ServeError

    hot = max(1, len(payloads) // 8)
    draws = [random.Random(spec["seed"] * 2 + c) for c in range(2)]
    per_round = ROUND_REQUESTS[spec["scale"]]
    op_ids = iter(range(1, 1 << 30))

    async def request(c: int):
        rng = draws[c]
        job = (rng.randrange(hot) if rng.random() < 0.5
               else rng.randrange(len(payloads)))
        span = (nullcontext() if tracer is None
                else tracer.span("serve.request", op_id=next(op_ids)))
        started = time.perf_counter()
        with span:
            try:
                reply = await server.clients[c].realign(
                    payloads[job], tenant=f"client{c}")
                ok = lines_sha256(reply.sam) == oracle[job]
            except (ServeError, ConnectionError, OSError):
                ok = False
        return job, time.perf_counter() - started, ok

    async def client_round(c: int):
        return [await request(c) for _ in range(per_round)]

    await asyncio.gather(request(0), request(1))  # untimed warm-up ops
    rounds = []
    before = spin_objects()
    deadline = time.perf_counter() + spec["seconds"]
    while unfinished(len(rounds) * per_round * 2 / 10, spec, deadline):
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        done = await asyncio.gather(client_round(0), client_round(1))
        wall = time.perf_counter() - started
        server_cpu = server.cpu_seconds() - cpu_before
        after = spin_objects()
        rounds.append({"wall": wall, "factor": speed_factor(before, after),
                       "server_cpu": server_cpu,
                       "requests": done[0] + done[1]})
        before = after
    return rounds


def _load_jobs(spec: dict):
    with open(Path(spec["workdir"]) / "jobs.json") as handle:
        return json.load(handle)


async def _serve_ops(spec: dict) -> dict:
    reference = Path(spec["workdir"]) / "reference.fa"
    payloads = _load_jobs(spec)
    setups = []
    server = None
    for _ in range(SETUP_LAUNCHES[spec["scale"]]):
        if server is not None:
            await server.stop()
        before = spin_objects()
        started = time.perf_counter()
        server = await _Server.start(reference)
        wall = time.perf_counter() - started
        setups.append({"wall": wall,
                       "factor": speed_factor(before, spin_objects())})
    rounds = await _campaign(server, payloads, spec["prep"]["oracle"], spec)
    peak_rss_mb = await server.stop()
    return {"setups": setups, "rounds": rounds, "peak_rss_mb": peak_rss_mb}


def serve_ops(spec: dict) -> dict:
    return asyncio.run(_serve_ops(spec))


# -- traced pass: per-layer metrics, measured from outside ---------------

class Probes:
    """Per-layer metrics of one traced pass.

    Every metric BENCHMARK.json lists starts at 0, which is what a layer
    the workload never enters has done. A probe that raises leaves its
    metrics ``None`` with the reason, and the pass goes on.
    """

    def __init__(self, tracer: Tracer):
        self.metrics = dict.fromkeys(
            (m["name"] for m in load_contract()["per_layer"]), 0)
        self.reasons = {}
        self.factors = []
        self.tracer = tracer

    def guarded(self, names, probe) -> None:
        """``probe()`` returns ``{metric: value}`` for ``names``."""
        try:
            self.metrics.update(probe())
        except Exception as error:  # a probe must never fail the run
            self.fail(names, error)

    def fail(self, names, error: Exception) -> None:
        for name in names:
            self.metrics[name] = None
            self.reasons[name] = f"{type(error).__name__}: {error}"

    def timed(self, name: str, call, spin=spin_objects):
        """One public call inside a span; ``(result, calibrated s)``.
        Probes of compiled or numeric code pass ``spin_integers``."""
        def traced():
            with self.tracer.span(name, parent="probe"):
                return call()

        result, wall, factor = calibrated(traced, spin)
        self.factors.append(factor)
        return result, wall * factor


def _import_seconds() -> float:
    """Fresh-interpreter import of the CLI and of what ``realign`` then
    imports lazily."""
    code = (
        "import time; start = time.perf_counter(); "
        "import repro.__main__, repro.core.system, repro.genomics.fasta, "
        "repro.genomics.samlite, repro.realign.realigner, repro.engine; "
        "print(time.perf_counter() - start)"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


#: Stage spans of one traced operation, in order; each is reported as
#: the per-layer metric ``<span>_s``.
STAGES = ("genomics.fasta.read", "genomics.samlite.read",
          "realign.build_sites", "engine.run_sites", "realign.apply",
          "genomics.samlite.write")


def _moved(before, after) -> int:
    return sum(1 for a, b in zip(before, after)
               if (a.pos, str(a.cigar)) != (b.pos, str(b.cigar)))


def _trace_reads(probes: Probes, batches, io) -> dict:
    """The realign pipeline on each batch of reads, one span per stage.

    ``io`` supplies the reference and the parse and serialise stages,
    which differ between a SAM file and a served job. Returns the sites,
    their results, the counts and how many outputs missed their oracle.
    """
    from repro.engine import Engine, EngineConfig
    from repro.realign.realigner import IndelRealigner
    from repro.serve.jobs import apply_site_results
    from repro.telemetry import Telemetry

    tracer = probes.tracer
    telemetry = Telemetry(label="e2e")
    engine = Engine(EngineConfig())
    out = {"sites": [], "results": [], "reads": [], "targets": 0,
           "realigned": 0, "moved": 0, "attempted": len(batches),
           "failed": 0, "telemetry": telemetry}
    for op_id, batch in enumerate(batches, start=1):
        with tracer.span("op", op_id=op_id):
            def stage(name):
                return tracer.span(name, parent="op", op_id=op_id)

            realigner = IndelRealigner(io.reference(stage))
            with stage("genomics.samlite.read"):
                reads = io.parse(batch)
            with stage("realign.build_sites"):
                targets, windows = realigner.build_sites(reads)
            sites = [window.site for window in windows]
            with stage("engine.run_sites"):
                results = engine.run_sites(sites, telemetry=telemetry)
            with stage("realign.apply"):
                updated = apply_site_results(reads, windows, results)
            with stage("genomics.samlite.write"):
                digest = io.serialise(batch, updated)
        out["failed"] += digest != io.oracle(batch)
        out["sites"].extend(sites)
        out["results"].extend(results)
        out["reads"].append(reads)
        out["targets"] += len(targets)
        out["realigned"] += sum(r.num_realigned for r in results)
        out["moved"] += _moved(reads, updated)
    return out


class _FileIO:
    """Parse and serialise stages of the CLI workloads: one SAM file."""

    def __init__(self, spec: dict):
        self.workdir = Path(spec["workdir"])
        self.spec = spec
        self.loaded = None

    def reference(self, stage):
        from repro.genomics.fasta import read_reference

        with stage("genomics.fasta.read"):
            self.loaded = read_reference(self.workdir / "reference.fa")
        return self.loaded

    def parse(self, _batch):
        from repro.genomics.samlite import read_sam

        return read_sam(self.workdir / "reads.sam")

    def serialise(self, _batch, updated) -> str:
        from repro.genomics.samlite import write_sam

        write_sam(updated, self.workdir / "traced.sam", self.loaded)
        return sam_body_sha256(self.workdir / "traced.sam")

    def oracle(self, _batch) -> str:
        return self.spec["prep"]["oracle"]

    def bytes_in(self) -> int:
        return (self.workdir / "reads.sam").stat().st_size

    def bytes_out(self) -> int:
        return (self.workdir / "traced.sam").stat().st_size


class _JobIO:
    """Parse and serialise stages of a served job: SAM lines in a list;
    a batch is an index into the payloads."""

    def __init__(self, spec: dict, payloads, reference):
        self.payloads = payloads
        self.spec = spec
        self.loaded = reference
        self.in_bytes = self.out_bytes = 0

    def reference(self, _stage):
        return self.loaded  # a server reads it once, before any request

    def parse(self, job):
        from repro.genomics.samlite import parse_read

        self.in_bytes += sum(len(line) + 1 for line in self.payloads[job])
        return [parse_read(line) for line in self.payloads[job]]

    def serialise(self, _job, updated) -> str:
        from repro.genomics.samlite import format_read

        lines = [format_read(read) for read in updated]
        self.out_bytes += sum(len(line) + 1 for line in lines)
        return lines_sha256(lines)

    def oracle(self, job) -> str:
        return self.spec["prep"]["oracle"][job]

    def bytes_in(self) -> int:
        return self.in_bytes

    def bytes_out(self) -> int:
        return self.out_bytes


def _ledger(probes: Probes, traced: dict, io, wall: float,
            factor: float) -> None:
    """Stage spans and counts of the traced operations -> metrics."""
    tracer = probes.tracer
    m = probes.metrics
    stage_sum = 0.0
    for name in STAGES:
        seconds = tracer.seconds(name)
        stage_sum += seconds
        m[f"{name}_s"] = seconds * factor
    m["harness.stage_sum_s"] = stage_sum * factor
    m["harness.unaccounted_share"] = 1.0 - stage_sum / wall
    sites = traced["sites"]
    cells = sum(site.unpruned_comparisons() for site in sites)
    if traced["reads"]:
        m["genomics.samlite.reads"] = sum(len(r) for r in traced["reads"])
        m["genomics.samlite.bytes_in"] = io.bytes_in()
        m["genomics.samlite.bytes_out"] = io.bytes_out()
        m["realign.targets.count"] = traced["targets"]
        m["realign.reads_realigned"] = traced["realigned"]
        m["realign.reads_moved"] = traced["moved"]
        if traced["targets"]:
            m["realign.sites_per_target"] = len(sites) / traced["targets"]
    m["realign.sites.count"] = len(sites)
    m["realign.sites.cells"] = cells
    run_s = m["engine.run_sites_s"]
    if sites and run_s:
        m["engine.us_per_site"] = run_s / len(sites) * 1e6
        m["engine.cells_per_s"] = cells / run_s
    chosen = traced["telemetry"].counters.scalars
    for kernel in CHOSEN_KERNELS:
        m[f"engine.kernel.chosen.{kernel}"] = chosen.get(
            f"kernel.chosen.{kernel}", 0)


def _probe_front_half(probes: Probes, reference, batches) -> None:
    """Stand-alone probes of the layers inside ``build_sites``."""
    from repro.align.pileup import pileup
    from repro.realign.realigner import IndelRealigner
    from repro.realign.targets import identify_targets, reads_for_target

    def pileup_probe():
        columns, seconds = probes.timed(
            "align.pileup",
            lambda: sum(len(pileup(reads)) for reads in batches))
        return {"align.pileup.busy_s": seconds,
                "align.pileup.columns": columns}

    probes.guarded(["align.pileup.busy_s", "align.pileup.columns"],
                   pileup_probe)

    config = IndelRealigner(reference).creator_config
    found = []

    def identify_probe():
        targets, seconds = probes.timed(
            "realign.targets.identify",
            lambda: [identify_targets(reads, reference, config)
                     for reads in batches])
        found.extend(targets)
        # Both terms are calibrated seconds of this process.
        build = probes.metrics["realign.build_sites_s"]
        return {"realign.targets.identify_s": seconds,
                "realign.consensus.build_s": max(build - seconds, 0.0)}

    probes.guarded(["realign.targets.identify_s",
                    "realign.consensus.build_s"], identify_probe)

    def membership_probe():
        _, seconds = probes.timed(
            "realign.targets.membership",
            lambda: [reads_for_target(target, reads)
                     for targets, reads in zip(found, batches)
                     for target in targets])
        return {"realign.targets.membership_s": seconds}

    probes.guarded(["realign.targets.membership_s"], membership_probe)


def _probe_engine(probes: Probes, sites, expected) -> None:
    """Pinned kernels, the two-worker planes, the shard plane and its
    cache, on a fixed prefix of the workload's own sites. ``expected``
    are the traced operation's results for the same sites: a kernel or
    plane that disagrees reports ``None``, not a time."""
    from repro.engine import Engine, EngineConfig, StreamingEngine
    from repro.shard import ShardPlane, SiteResultCache

    def checked(results, upto):
        if results_sha256(results) != results_sha256(expected[:upto]):
            raise RuntimeError("results differ from the traced operation")

    subset = sites[:KERNEL_PROBE_SITES]
    for kernel in PINNED_KERNELS:
        name = f"engine.kernel.{kernel}.s"

        def pinned(kernel=kernel, name=name):
            with Engine(EngineConfig(kernel=kernel)) as engine:
                results, seconds = probes.timed(
                    name[:-2], lambda: engine.run_sites(subset),
                    spin_integers)
            checked(results, len(subset))
            return {name: seconds}

        probes.guarded([name], pinned)

    plane_sites = sites[:PLANE_PROBE_SITES]

    def twice(name, plane):
        """First call pays the spawn, the second is the steady state."""
        _, first = probes.timed(
            f"{name}.first", lambda: plane.run_sites(plane_sites),
            spin_integers)
        results, second = probes.timed(
            name, lambda: plane.run_sites(plane_sites), spin_integers)
        checked(results, len(plane_sites))
        return first, second

    def pool_probe():
        with Engine(EngineConfig(workers=2)) as engine:
            first, second = twice("engine.pool_w2.run_sites", engine)
            counters = engine.recovery_counters
        return {"engine.pool_w2.run_sites_s": second,
                "engine.pool_w2.spawn_s": max(first - second, 0.0),
                "resilience.worker.retries":
                    counters.get("worker.retries", 0),
                "resilience.worker.pool_respawns":
                    counters.get("worker.pool_respawns", 0)}

    probes.guarded(["engine.pool_w2.run_sites_s", "engine.pool_w2.spawn_s",
                    "resilience.worker.retries",
                    "resilience.worker.pool_respawns"], pool_probe)

    def stream_probe():
        with StreamingEngine(EngineConfig(workers=2)) as engine:
            _, second = twice("engine.stream_w2.run_sites", engine)
            stats = engine.stream_stats
        return {"engine.stream_w2.run_sites_s": second,
                "engine.stream_w2.backpressure_us":
                    stats.get("stream.backpressure_us", 0),
                "engine.stream_w2.reorder_peak":
                    stats.get("stream.reorder_peak", 0)}

    probes.guarded(["engine.stream_w2.run_sites_s",
                    "engine.stream_w2.backpressure_us",
                    "engine.stream_w2.reorder_peak"], stream_probe)

    def shard_probe():
        with ShardPlane(EngineConfig(), shards=2) as plane:
            _, second = twice("shard.plane_s2.run_sites", plane)
            counters = plane.recovery_counters
        return {"shard.plane_s2.run_sites_s": second,
                "resilience.shard.redispatches":
                    counters.get("shard.retries", 0)}

    probes.guarded(["shard.plane_s2.run_sites_s",
                    "resilience.shard.redispatches"], shard_probe)

    def cache_probe():
        cache = SiteResultCache.from_megabytes(64)
        with ShardPlane(EngineConfig(), shards=1, cache=cache) as plane:
            cold, warm = twice("shard.cache", plane)
        return {"shard.cache.cold_s": cold, "shard.cache.warm_s": warm,
                "shard.cache.hit_ratio": cache.hit_rate}

    probes.guarded(["shard.cache.cold_s", "shard.cache.warm_s",
                    "shard.cache.hit_ratio"], cache_probe)


def _probe_model(probes: Probes, sites) -> None:
    """The FPGA cycle model: simulated milliseconds (exact) and the host
    seconds the simulator takes to produce them."""
    def model_probe():
        from repro.core.system import AcceleratedIRSystem, SystemConfig

        run, host = probes.timed(
            "core.model",
            lambda: AcceleratedIRSystem(SystemConfig.iracc()).run(
                sites[:MODEL_PROBE_SITES]))  # a Python simulator
        modelled_ms = run.total_seconds * 1e3
        return {"core.modelled_ms": modelled_ms,
                "core.pruned_share": run.pruned_fraction,
                "core.sim_host_s": host,
                "core.sim_host_s_per_modelled_ms": host / modelled_ms}

    probes.guarded(["core.modelled_ms", "core.pruned_share",
                    "core.sim_host_s", "core.sim_host_s_per_modelled_ms"],
                   model_probe)


def _trace_cli(spec: dict, probes: Probes):
    io = _FileIO(spec)
    traced, wall, factor = calibrated(
        lambda: _trace_reads(probes, [None], io))
    probes.factors.append(factor)
    _ledger(probes, traced, io, wall, factor)
    _probe_front_half(probes, io.loaded, traced["reads"])
    return traced


async def _trace_serve(spec: dict, probes: Probes):
    from repro.genomics.fasta import read_reference
    from repro.serve.protocol import decode_message, encode_message

    workdir = Path(spec["workdir"])
    payloads = _load_jobs(spec)
    m = probes.metrics
    server = await _Server.start(workdir / "reference.fa")
    try:
        rounds = await _campaign(server, payloads, spec["prep"]["oracle"],
                                 spec, tracer=probes.tracer)

        async def ping_probe():
            client = server.clients[0]
            times = []
            for _ in range(20):
                started = time.perf_counter()
                await client.ping()
                times.append(time.perf_counter() - started)
            return {"serve.ping_rtt_ms": statistics.median(times) * 1e3}

        async def stats_probe():
            stats = await server.clients[0].stats()
            counters = stats["counters"]
            batches = counters.get("serve.batches_dispatched", 0)
            return {
                "serve.requests": counters.get("serve.requests_completed",
                                               0),
                "serve.rejected": counters.get("serve.requests_rejected", 0),
                "serve.expired": counters.get("serve.requests_expired", 0),
                "serve.saturation": stats["saturation"],
                "serve.cache_hit_rate": stats["cache_hit_rate"],
                "serve.batches": batches,
                "serve.sites_per_batch":
                    counters.get("serve.sites_dispatched", 0) / batches
                    if batches else 0,
            }

        # guarded() is synchronous; these two probes await the server.
        for names, probe in (
            (["serve.ping_rtt_ms"], ping_probe),
            (["serve.requests", "serve.rejected", "serve.expired",
              "serve.saturation", "serve.cache_hit_rate", "serve.batches",
              "serve.sites_per_batch"], stats_probe),
        ):
            try:
                m.update(await probe())
            except Exception as error:  # as in Probes.guarded
                probes.fail(names, error)
    finally:
        await server.stop()

    requests = [r for round_ in rounds for r in round_["requests"]]
    sequence = [job for job, _latency, _ok in requests]
    latencies, campaign_s = serve_latencies(rounds)
    probes.factors.extend(r["factor"] for r in rounds)
    m["req_p50_ms"] = statistics.median(latencies) * 1e3
    m["req_p95_ms"] = percentile(latencies, 0.95) * 1e3
    m["req_per_s"] = len(latencies) / campaign_s

    def protocol_probe():
        messages = [{"id": i, "op": "realign", "tenant": "client0",
                     "sam": payloads[job]} for i, job in enumerate(sequence)]
        frames, encode_s = probes.timed(
            "serve.protocol.encode",
            lambda: [encode_message(message) for message in messages])
        _, decode_s = probes.timed(
            "serve.protocol.decode",
            lambda: [decode_message(frame) for frame in frames])
        return {"serve.protocol.encode_s": encode_s,
                "serve.protocol.decode_s": decode_s}

    probes.guarded(["serve.protocol.encode_s", "serve.protocol.decode_s"],
                   protocol_probe)

    # The same job sequence through the realigner in this process: the
    # stage ledger of a served request, and what serving adds to it.
    io = _JobIO(spec, payloads, read_reference(workdir / "reference.fa"))
    traced, wall, factor = calibrated(
        lambda: _trace_reads(probes, sequence, io))
    probes.factors.append(factor)
    _ledger(probes, traced, io, wall, factor)
    m["serve.direct_ratio"] = campaign_s / (wall * factor)
    _probe_front_half(probes, io.loaded, traced["reads"])
    traced["attempted"] += len(requests)
    traced["failed"] += sum(not ok for _job, _latency, ok in requests)
    return traced


def _trace_sites(spec: dict, probes: Probes):
    from repro.telemetry import Telemetry

    sites = _load_sites(spec)
    engine = _warm_engine(sites)
    untraced = [_timed_run_sites(engine, sites)
                for _ in range(MIN_OPS[spec["scale"]])]
    probes.factors.extend(sample["factor"] for sample in untraced)
    telemetry = Telemetry(label="e2e")

    def operation():
        with probes.tracer.span("op", op_id=1):
            with probes.tracer.span("engine.run_sites", parent="op",
                                    op_id=1):
                return engine.run_sites(sites, telemetry=telemetry)

    results, wall, factor = calibrated(operation, spin_integers)
    probes.factors.append(factor)
    traced = {"sites": sites, "reads": [], "telemetry": telemetry,
              "results": results, "attempted": 1,
              "failed": int(results_sha256(results)
                            != spec["prep"]["oracle"])}
    _ledger(probes, traced, None, wall, factor)
    plain = statistics.median(s["wall"] * s["factor"] for s in untraced)
    probes.metrics["harness.trace_overhead_share"] = \
        wall * factor / plain - 1.0
    return traced


def trace(spec: dict) -> dict:
    from repro.engine.native import native_available, warmup_native

    tracer = Tracer()
    probes = Probes(tracer)
    m = probes.metrics

    # First touch of the compiled kernels in this process: loading the
    # pre-built library and two tiny calls.
    def native_probe():
        _, seconds = probes.timed("engine.native.warmup", warmup_native)
        return {"engine.native.warmup_s": seconds,
                "engine.native.available": int(native_available())}

    probes.guarded(["engine.native.warmup_s", "engine.native.available"],
                   native_probe)

    def import_probe():
        seconds, _wall, factor = calibrated(_import_seconds)
        return {"repro.import_s": seconds * factor}

    probes.guarded(["repro.import_s"], import_probe)

    kind = spec["kind"]
    if kind == "cli":
        traced = _trace_cli(spec, probes)
    elif kind == "serve":
        traced = asyncio.run(_trace_serve(spec, probes))
    else:
        traced = _trace_sites(spec, probes)
    sites = traced["sites"]
    if sites:
        _probe_engine(probes, sites, traced["results"])
        _probe_model(probes, sites)

    prep_result = spec["prep"]
    m["harness.prep_s"] = prep_result["prep_s"]
    m["harness.oracle_s"] = prep_result["oracle_s"]
    m["harness.native_build_s"] = prep_result["native_build_s"]
    m["harness.spin_s"] = SPIN_REF_S / statistics.median(probes.factors)
    m["failed_share"] = traced["failed"] / traced["attempted"]
    tracer.write(OUT_DIR / f"trace-{spec['workload']}.json")
    return {"metrics": m, "reasons": probes.reasons,
            "attempted": traced["attempted"], "failed": traced["failed"]}


PHASES = {"prep": prep, "sites_setup": sites_setup, "sites_ops": sites_ops,
          "serve_ops": serve_ops, "trace": trace}


def main(argv) -> int:
    phase, spec = argv[1], json.loads(argv[2])
    print(json.dumps(PHASES[phase](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
