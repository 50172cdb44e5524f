"""``repro serve``: the asyncio TCP front-end over the request plane.

One process, one engine, one :class:`~repro.serve.service
.RealignmentService`; each connection may pipeline requests, and each
request is handled as its own task so concurrent jobs -- from one
connection or fifty -- coalesce into shared engine batches. The server
owns the realigner *front half* (target identification + site
building, CPU-bound, run on the default executor so the loop stays
responsive) and the *back half* (applying kernel decisions to reads);
the kernel itself runs wherever the engine says -- inline, a worker
pool, or the streaming plane.

The optional startup canary (:mod:`repro.serve.canary`) routes the toy
evaluation scenario through this exact serving path before the first
real request, so a deployment that would corrupt outcomes never starts
taking traffic.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import format_read, parse_read
from repro.realign.realigner import IndelRealigner
from repro.serve.jobs import apply_site_results
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
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
        telemetry=None,
    ):
        from repro.engine import EngineConfig

        self.reference = reference
        self.realigner = IndelRealigner(reference)
        self.service = RealignmentService(
            engine if engine is not None else EngineConfig(),
            config=service_config,
            telemetry=telemetry,
        )
        self.canary_result: dict = {}
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

    async def run_canary(self, scenario: str = "toy") -> dict:
        """Run the serving-path canary; stores and returns its verdict."""
        from repro.serve.canary import run_canary

        self.canary_result = await run_canary(self.service,
                                              scenario=scenario)
        return self.canary_result

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
        tasks: List[asyncio.Task] = []
        try:
            while True:
                try:
                    message = await read_message(reader)
                except asyncio.CancelledError:
                    # Shutdown cancels live handlers; exit quietly (the
                    # streams machinery logs a cancelled handler task as
                    # an unretrieved exception otherwise).
                    break
                except ProtocolError as error:
                    async with write_lock:
                        writer.write(encode_message(
                            error_response(None, "error", str(error))
                        ))
                        await writer.drain()
                    continue
                if message is None:
                    break
                # Each request is its own task: a connection awaiting a
                # slow realign keeps submitting, so its later requests
                # (and other connections') coalesce with the first.
                tasks.append(asyncio.create_task(
                    self._handle_message(message, writer, write_lock)
                ))
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_message(self, message, writer, write_lock) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                response = {"id": request_id, "ok": True, "status": "ok"}
            elif op == "stats":
                snapshot = self.service.snapshot()
                if self.canary_result:
                    snapshot.canary = self.canary_result
                response = {"id": request_id, "ok": True, "status": "ok",
                            "stats": snapshot.as_dict()}
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
        async with write_lock:
            writer.write(encode_message(response))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; nothing to deliver the reply to

    async def _handle_realign(self, request_id, message) -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        lines = message.get("sam")
        if not isinstance(lines, list):
            raise ProtocolError("realign needs a 'sam' list of read lines")
        tenant = str(message.get("tenant", DEFAULT_TENANT))
        deadline_s = message.get("deadline_s")
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise ProtocolError("deadline_s must be positive")
        reads = [parse_read(line) for line in lines]
        # Front half off the loop: target identification + consensus
        # generation are pure CPU.
        _targets, windows = await loop.run_in_executor(
            None, self.realigner.build_sites, reads
        )
        results = await self.service.submit_sites(
            [window.site for window in windows],
            tenant=tenant,
            deadline_s=deadline_s,
        )
        updated = apply_site_results(reads, windows, results)
        return {
            "id": request_id,
            "ok": True,
            "status": "ok",
            "sam": [format_read(read) for read in updated],
            "sites": len(windows),
            "latency_ms": (loop.time() - start) * 1e3,
        }


__all__ = ["RealignmentServer"]
