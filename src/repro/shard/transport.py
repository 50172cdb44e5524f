"""Transport abstraction for the horizontal shard plane.

The dispatch protocol between the :class:`~repro.shard.plane
.ShardPlane` and its long-lived shard workers is four picklable
message shapes, deliberately transport-agnostic:

- parent -> shard: ``("chunk", chunk_id, attempt, sites)`` and
  ``("stop",)``;
- shard -> parent: ``("done", chunk_id, attempt, results, start, end,
  counters)`` and ``("fail", chunk_id, attempt, message)``.

:class:`ShardTransport` is the small interface the plane actually
uses -- send/poll/recv, liveness, kill -- so a socket transport to a
remote shard host can slot in later without touching the dispatch
loop. :class:`PipeShardTransport` is the in-tree implementation: one
forked long-lived worker process per shard over a duplex
``multiprocessing`` pipe, running chunks through the same
:func:`repro.engine.parallel._realign_chunk` the barrier and
streaming engines use (so every kernel and prefilter behaviour
is shared, and output stays byte-identical by construction).

Chaos integration mirrors the resilient pool: each worker carries the
run's :class:`~repro.resilience.workers.WorkerFaultPlan` and asks it
``chunk_outcome(chunk, 0, attempt)`` before computing -- the same
seeded, order-independent draw the PR 6 machinery uses, so
``REPRO_WORKER_FAULT_RATE`` chaos reaches shard workers unchanged.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from typing import List, Optional, Sequence, Tuple


class ShardTransportError(RuntimeError):
    """Raised when a transport cannot deliver (dead peer, closed pipe)."""


class ShardTransport:
    """One bidirectional link to one long-lived shard worker.

    The plane only ever calls these methods, so any transport that
    implements them (pipes here; sockets later) can carry the shard
    protocol. ``waitable()`` may return an object accepted by
    ``multiprocessing.connection.wait`` for efficient multiplexing, or
    ``None`` to make the plane fall back to per-transport polling.
    """

    shard_id: int = -1

    def send(self, message) -> None:
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        raise NotImplementedError

    def recv(self):
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def waitable(self):
        return None

    def kill(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def _shard_worker_main(conn, shard_id: int, config, plan) -> None:
    """The long-lived shard worker loop (child process entry point).

    Chunks run through the shared ``_realign_chunk`` path. A planned
    fault fires *before* the compute, exactly like the resilient
    pool's worker shim: KILL dies mid-chunk (the parent sees the pipe
    close), HANG/DELAY sleep (the parent's deadline or straggler
    watermark reacts), ERROR surfaces as a ``fail`` message. Real
    unexpected exceptions also surface as ``fail`` so one poisoned
    chunk cannot take the shard down.
    """
    from repro.engine import parallel
    from repro.resilience.workers import perform_fault

    parallel._init_worker(config)
    if plan is not None and plan.is_fault_free:
        plan = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, chunk_id, attempt, sites = message
        try:
            if plan is not None:
                event = plan.chunk_outcome(chunk_id, 0, attempt)
                if event is not None:
                    perform_fault(event)
            cid, results, start, end, counters = parallel._realign_chunk(
                chunk_id, sites, config
            )
            conn.send(("done", cid, attempt, results, start, end, counters))
        except Exception as error:  # noqa: BLE001 - forwarded to parent
            try:
                conn.send(("fail", chunk_id, attempt,
                           f"{type(error).__name__}: {error}"))
            except (OSError, ValueError):
                return


class PipeShardTransport(ShardTransport):
    """A forked worker process behind a duplex multiprocessing pipe."""

    def __init__(self, shard_id: int, config, plan=None):
        self.shard_id = shard_id
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard_id, config, plan),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self._process.start()
        child_conn.close()  # the parent keeps only its own end

    def send(self, message) -> None:
        try:
            self._conn.send(message)
        except (OSError, ValueError, BrokenPipeError) as error:
            raise ShardTransportError(
                f"shard {self.shard_id} unreachable: {error}"
            ) from error

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except (OSError, ValueError):
            return True  # a dead pipe is "readable": recv raises EOFError

    def recv(self):
        return self._conn.recv()

    def alive(self) -> bool:
        return self._process.is_alive()

    def waitable(self):
        return self._conn

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
            if self._process.is_alive():  # pragma: no cover - stuck child
                self._process.kill()
                self._process.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            self._process.join(timeout=2.0)
        self.kill()


def wait_ready(
    transports: Sequence[ShardTransport], timeout: float
) -> List[ShardTransport]:
    """Transports with a deliverable message (or a dead peer) pending.

    Uses one ``multiprocessing.connection.wait`` when every transport
    exposes a waitable handle (the pipe path); otherwise degrades to a
    per-transport poll sweep, which is what a socket transport without
    selectable handles would get.
    """
    if not transports:
        return []
    handles = {}
    for transport in transports:
        handle = transport.waitable()
        if handle is None:
            break
        handles[id(handle)] = (handle, transport)
    else:
        ready = multiprocessing.connection.wait(
            [handle for handle, _ in handles.values()], timeout
        )
        return [handles[id(handle)][1] for handle in ready]
    ready_list = []
    for transport in transports:
        if transport.poll(timeout / max(1, len(transports))):
            ready_list.append(transport)
    return ready_list


__all__ = [
    "PipeShardTransport",
    "ShardTransport",
    "ShardTransportError",
    "wait_ready",
]
