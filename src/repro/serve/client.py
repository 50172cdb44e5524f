"""Async client for ``repro serve``: pipelined, id-matched requests.

One connection, one background reader task, many in-flight requests.
Each call stamps a fresh ``id``, registers a future, writes the frame,
and awaits its matched response -- so a tenant can keep dozens of
region jobs in flight on a single socket and the server coalesces them
into shared engine batches. Failure statuses surface as the
:mod:`repro.serve.request` exceptions they mirror, so caller-side
retry logic reads the same whether it runs in-process or over TCP.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Sequence

from repro.genomics.samlite import SamError, patch_line
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    encode_message,
    read_message,
)
from repro.serve.request import (
    DEFAULT_TENANT,
    DeadlineExceeded,
    ServeError,
    ServiceClosed,
    ServiceSaturated,
)

_STATUS_ERRORS = {
    "rejected": ServiceSaturated,
    "expired": DeadlineExceeded,
    "closed": ServiceClosed,
}


class RealignResult:
    """One completed realign call: updated SAM lines + server timings.

    ``sam`` is the caller's lines with the reads that moved patched in
    place (POS and CIGAR, columns 4 and 6); every other line and column
    is exactly what was sent.
    """

    __slots__ = ("sam", "sites", "latency_ms")

    def __init__(self, sam: List[str], sites: int, latency_ms: float):
        self.sam = sam
        self.sites = sites
        self.latency_ms = latency_ms


def patch_moved(sam_lines: Sequence[str], moved) -> List[str]:
    """Apply a ``realign`` reply's ``moved`` list to the lines sent.

    Each entry is ``[index, pos, cigar]``: the read at ``sam_lines[index]``
    now starts at 1-based ``pos`` with ``cigar``
    (:func:`repro.genomics.samlite.patch_line`). A malformed entry --
    an index out of range or repeated, a ``pos`` that is not an integer
    >= 1, a ``cigar`` that is not a string -- raises
    :class:`ProtocolError`.
    """
    if not isinstance(moved, list):
        raise ProtocolError("realign reply has no 'moved' list")
    lines = list(sam_lines)
    seen = set()
    for entry in moved:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ProtocolError(f"moved entry {entry!r} is not "
                                "[index, pos, cigar]")
        index, pos, cigar = entry
        if (type(index) is not int or not 0 <= index < len(lines)
                or index in seen):
            raise ProtocolError(f"moved index {index!r} is out of range "
                                "or repeated")
        if type(pos) is not int or pos < 1:
            raise ProtocolError(f"moved pos {pos!r} is not an integer >= 1")
        if not isinstance(cigar, str):
            raise ProtocolError(f"moved cigar {cigar!r} is not a string")
        seen.add(index)
        try:
            lines[index] = patch_line(lines[index], pos, cigar)
        except SamError as error:
            raise ProtocolError(f"sam[{index}]: {error}") from None
    return lines


class ServiceClient:
    """Connect with :meth:`open`, then call :meth:`realign` freely."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False

    @classmethod
    async def open(cls, host: str, port: int) -> "ServiceClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port, limit=MAX_MESSAGE_BYTES
        )
        client._reader_task = asyncio.get_running_loop().create_task(
            client._read_loop()
        )
        return client

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                try:
                    message = await read_message(self._reader)
                except ProtocolError:
                    continue  # unparseable server line: skip, keep reading
                if message is None:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError, ValueError,
                asyncio.IncompleteReadError):
            pass  # ValueError: stream limit overrun -- unrecoverable too
        finally:
            # The stream is dead either way: fail what's in flight and
            # make later calls raise instead of hanging on a dead socket.
            self._closed = True
            self._fail_pending(ServiceClosed("connection lost"))

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _call(self, message: dict) -> dict:
        if self._closed or self._writer is None:
            raise ServiceClosed("client is closed")
        request_id = next(self._ids)
        frame = encode_message(dict(message, id=request_id))
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(frame)
        await self._writer.drain()
        response = await future
        if response.get("ok"):
            return response
        status = response.get("status", "error")
        error = response.get("error", "request failed")
        if status == "rejected":
            raise ServiceSaturated(message=error)
        raise _STATUS_ERRORS.get(status, ServeError)(error)

    # -- operations -----------------------------------------------------
    async def realign(
        self,
        sam_lines: Sequence[str],
        tenant: str = DEFAULT_TENANT,
        deadline_s: Optional[float] = None,
    ) -> RealignResult:
        """Realign one job's reads; raises the mirrored serve errors, or
        :class:`ProtocolError` for a line that cannot travel in a frame
        body (not a string, empty, or holding a newline; nothing is
        sent then) or a reply whose ``moved`` list does not fit the
        lines sent."""
        sam_lines = list(sam_lines)
        message = {"op": "realign", "tenant": tenant, "sam": sam_lines}
        if deadline_s is not None:
            message["deadline_s"] = float(deadline_s)
        response = await self._call(message)
        return RealignResult(
            sam=patch_moved(sam_lines, response.get("moved")),
            sites=int(response.get("sites", 0)),
            latency_ms=float(response.get("latency_ms", 0.0)),
        )

    async def stats(self) -> dict:
        """Fetch the server's :class:`ServiceSnapshot` as a dict."""
        response = await self._call({"op": "stats"})
        return response.get("stats", {})

    async def ping(self) -> bool:
        return bool((await self._call({"op": "ping"})).get("ok"))

    async def shutdown(self) -> None:
        """Ask the server to drain and exit (best-effort)."""
        try:
            await self._call({"op": "shutdown"})
        except (ServeError, ConnectionError, OSError):
            pass

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            await asyncio.gather(self._reader_task, return_exceptions=True)
        self._fail_pending(ServiceClosed("client closed"))

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = ["RealignResult", "ServiceClient", "patch_moved"]
