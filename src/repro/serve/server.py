"""``repro serve``: the asyncio TCP front-end over the request plane.

One process, one engine, one :class:`~repro.serve.service
.RealignmentService`; each connection may pipeline requests, and each
request is handled as its own task so concurrent jobs -- from one
connection or fifty -- coalesce into shared engine batches. The server
owns the realigner *front half* (target identification + site
building, CPU-bound, run on the default executor so the loop stays
responsive) and the *back half* (applying kernel decisions to reads);
the kernel itself runs wherever the engine says -- inline, or on its
unit threads. A job whose CIGARs carry no INDEL
runs neither half: it is checked and answered with nothing moved. The
check is one pass of the compiled library over the job's bytes
(:func:`repro.engine.native.sam_ingester`), which also fills the read
columns an INDEL job's front half reads and builds its reads from; a
body it declines, or any body without the compiled tier, is read into
the same columns by its Python twin (:func:`repro.genomics.samlite
.ingest`).
"""

from __future__ import annotations

import asyncio
import math
from typing import Optional, Set, Tuple

from repro.engine.native import sam_ingester
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import ingest
from repro.realign.realigner import IndelRealigner, moved_records
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    body_text,
    encode_message,
    error_response,
    read_message,
)
from repro.serve.request import (
    DEFAULT_TENANT,
    DeadlineExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
)
from repro.serve.service import RealignmentService


def _deadline_s(value) -> Optional[float]:
    """A request's ``deadline_s``: absent, or a JSON number, not a
    bool, that is finite and > 0 as a float."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer no float can hold
            value = math.inf
        if 0 < value < math.inf:
            return value
    raise ProtocolError("deadline_s must be a finite number > 0")


class RealignmentServer:
    """Realignment-as-a-service over a reference genome.

    ``engine`` is forwarded to :class:`RealignmentService` (an
    ``EngineConfig``, a live engine, or ``None`` for the inline
    default). Target identification runs the default
    :class:`~repro.realign.realigner.IndelRealigner`, the one ``repro
    realign`` builds -- which is what makes served output
    byte-identical to it on the same inputs, and the configuration
    :data:`repro.serve.jobs.REGION_GAP` is bounded for.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        engine=None,
        service_config: Optional[ServiceConfig] = None,
    ):
        from repro.engine import EngineConfig

        self.reference = reference
        self.realigner = IndelRealigner(reference)
        #: The compiled reading of a job's body; None without the tier.
        self._ingest = sam_ingester(reference)
        self.service = RealignmentService(
            engine if engine is not None else EngineConfig(),
            config=service_config,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Start the service and listen; returns the bound address.

        ``port=0`` binds an ephemeral port (tests, selftest); the bound
        port is returned either way.
        """
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_MESSAGE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close(drain=True)
        self._shutdown.set()

    # -- connection handling --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as error:
                    await self._send(writer, write_lock, error_response(
                        error.request_id, "error", f"ProtocolError: {error}"))
                    if error.fatal:
                        break  # no way to find the next frame
                    continue
                if message is None:
                    break
                # Each request is its own task: a connection awaiting a
                # slow realign keeps submitting, so its later requests
                # (and other connections') coalesce with the first.
                task = asyncio.create_task(
                    self._handle_message(message, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            # The peer stopped sending, or sent a frame that ends the
            # stream: it still gets a reply to every request before it.
            await asyncio.gather(*tasks)
        except asyncio.CancelledError:
            # Shutdown cancels live handlers; exit quietly (the streams
            # machinery logs a cancelled handler task as an unretrieved
            # exception otherwise).
            pass
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Cancelled: shutdown caught this handler closing. It
                # has nothing left to do; re-raising only makes the
                # streams machinery log the cancelled task.
                pass

    @staticmethod
    async def _send(writer, write_lock, response: dict) -> None:
        async with write_lock:
            writer.write(encode_message(response))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; nothing to deliver the reply to

    async def _handle_message(self, message, writer, write_lock) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                response = {"id": request_id, "ok": True, "status": "ok"}
            elif op == "stats":
                response = {"id": request_id, "ok": True, "status": "ok",
                            "stats": self.service.snapshot().as_dict()}
            elif op == "shutdown":
                response = {"id": request_id, "ok": True, "status": "ok"}
                self._shutdown.set()
            elif op == "realign":
                response = await self._handle_realign(request_id, message)
            else:
                response = error_response(request_id, "error",
                                          f"unknown op {op!r}")
        except ServiceSaturated as error:
            response = error_response(request_id, "rejected", str(error))
        except DeadlineExceeded as error:
            response = error_response(request_id, "expired", str(error))
        except ServiceClosed as error:
            response = error_response(request_id, "closed", str(error))
        except Exception as error:  # one bad request must not kill the
            response = error_response(  # connection, let alone the server
                request_id, "error", f"{type(error).__name__}: {error}"
            )
        await self._send(writer, write_lock, response)

    async def _handle_realign(self, request_id, message) -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        body = message.get("sam")  # only ever a body's bytes
        if body is None:
            raise ProtocolError("realign sends its lines as the frame's "
                                "body: the header needs 'sam_bytes'")
        batch = None if self._ingest is None else self._ingest(body)
        if batch is None and self._ingest is not None:
            self.service.note_declined()
        # The compiled pass accepts only ASCII. A body it did not accept
        # is checked to be UTF-8 here, before the header's fields are
        # read, so a non-UTF-8 one fails first.
        if batch is None:
            body_text(body, request_id)
        tenant = str(message.get("tenant", DEFAULT_TENANT))
        deadline_s = _deadline_s(message.get("deadline_s"))
        if batch is None:
            batch = ingest(body, self.reference, locate="sam[{}]".format)
        if batch.has_indel:
            # Front half off the loop: target identification + consensus
            # generation are pure CPU.
            _targets, windows = await loop.run_in_executor(
                None, self.realigner.build_sites, batch
            )
            results = await self.service.submit_sites(
                [window.site for window in windows],
                tenant=tenant,
                deadline_s=deadline_s,
            )
            moved = moved_records(batch, windows, results)
        else:
            # build_site proposes only INDELs that an anchored read's
            # CIGAR carries, so a job with none builds no site and moves
            # no read: it is answered without a front half. The
            # empty submission counts the request, and refuses it while
            # closing, as the full path would.
            # test_front_half_oracle.py::test_gap_free_cigars_build_no_site
            # holds the premise for every consensus builder.
            windows, moved = [], []
            await self.service.submit_sites([], tenant=tenant,
                                            deadline_s=deadline_s)
        return {
            "id": request_id,
            "ok": True,
            "status": "ok",
            "moved": moved,
            "sites": len(windows),
            "latency_ms": (loop.time() - start) * 1e3,
        }


__all__ = ["RealignmentServer"]
