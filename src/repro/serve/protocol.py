"""Wire protocol between ``repro serve`` and its clients; docs/SERVING.md
"Wire protocol" is its specification.

Every reply, and every request but ``realign``, is one line of UTF-8
JSON with sorted keys and no whitespace. A ``realign`` request is a
header line, ``{"id", "op": "realign", "tenant", "deadline_s"?,
"sam_bytes": n}``, and then a body of ``n`` bytes: the job's SAM lines
joined by ``"\\n"``, in UTF-8. Control travels as small JSON and the
reads as their own bytes, as the paper's host sends commands over
AXI-Lite and the reads by DMA; the reply's ``moved: [[index, pos,
cigar], ...]`` names each read that moved by its line's index in the
body (:func:`repro.serve.client.patch_moved`). Responses echo the
request's client-chosen ``id``, so one connection pipelines many
requests. A failure is ``{"id", "ok": false, "status", "error"}``, its
status mirroring a :mod:`repro.serve.request` exception.

The server's reader (:func:`read_message`) keeps a ``realign``'s body
as bytes, for its compiled check, and decodes it only when it must.

A header with a valid ``sam_bytes`` always has its body read, whatever
else is wrong with it, so the next frame is still answered. An invalid
one leaves no way to find the next frame: one error reply, and the
connection closes. A JSON ``sam`` field is refused.
"""

from __future__ import annotations

import asyncio
import json
import operator
from itertools import repeat
from typing import Optional, Tuple

#: Connection read limit, and the largest body a header may announce: a
#: region job's SAM lines are at most a few MB; 64 MiB leaves room for
#: pathological pileups without letting a rogue peer balloon the server.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Failure statuses a response may carry.
STATUSES = ("ok", "rejected", "expired", "closed", "error")


class ProtocolError(ValueError):
    """Raised for malformed frames (bad JSON, missing fields).
    ``request_id`` is the frame's ``id`` when its header parsed;
    ``fatal`` marks a frame the stream cannot be read past."""

    def __init__(self, message: str, request_id=None, fatal: bool = False):
        super().__init__(message)
        self.request_id = request_id
        self.fatal = fatal


def _is_line(line) -> bool:
    try:
        return (isinstance(line, str) and "\n" not in line
                and bool(line.encode("utf-8")))
    except UnicodeEncodeError:
        return False


def _sam_body(sam) -> bytes:
    """A job's lines as a frame body. An empty line cannot be one: the
    job ``[""]`` would read back as ``[]``."""
    if not isinstance(sam, list):
        raise ProtocolError("'sam' must be a list of lines")
    try:
        if "" not in sam and not any(map(operator.contains, sam,
                                         repeat("\n"))):
            return "\n".join(sam).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        pass  # located below
    index = next(index for index, line in enumerate(sam)
                 if not _is_line(line))
    raise ProtocolError(
        f"sam[{index}] is not a non-empty line of UTF-8 text")


def encode_message(message: dict) -> bytes:
    """Serialize one message to its wire frame: a JSON line, then the
    body when the message carries ``sam`` (announced as ``sam_bytes``).
    Raises :class:`ProtocolError` naming a ``sam`` entry that cannot be
    a body line."""
    body = b""
    if "sam" in message:
        body = _sam_body(message["sam"])
        message = {key: value for key, value in message.items()
                   if key != "sam"}
        message["sam_bytes"] = len(body)
    return (json.dumps(message, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8") + body


def _header(line: bytes) -> Tuple[dict, Optional[int]]:
    """A header line's message, less ``sam_bytes``, and the length of
    the body that announces (None: no body)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}")
    if "sam_bytes" not in message:
        return message, None
    length = message.pop("sam_bytes")
    if type(length) is not int or not 0 <= length <= MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"sam_bytes must be an integer in 0..{MAX_MESSAGE_BYTES}",
            message.get("id"), fatal=True)
    return message, length


def body_text(body: bytes, request_id=None) -> str:
    """A body's text; :class:`ProtocolError` if it is not UTF-8."""
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"sam body is not UTF-8: {error}",
                            request_id) from None


def body_lines(body: bytes, request_id=None) -> list:
    """A body's lines: its :func:`body_text` split at ``"\\n"``."""
    text = body_text(body, request_id)
    return text.split("\n") if text else []


def _with_body(message: dict, body: Optional[bytes],
               decode: bool = True) -> dict:
    """The message, with its body's lines under ``sam``; without
    ``decode``, a ``realign``'s body stays the bytes it came as."""
    if "sam" in message:
        raise ProtocolError("'sam' travels as the frame's body, not in "
                            "its header", message.get("id"))
    if body is not None and not decode and message.get("op") == "realign":
        message["sam"] = body
    elif body is not None:
        message["sam"] = body_lines(body, message.get("id"))
    return message


def decode_message(frame: bytes) -> dict:
    """Parse one whole wire frame, header and body; raises
    :class:`ProtocolError` if malformed."""
    end = frame.find(b"\n") + 1 or len(frame)
    message, length = _header(frame[:end])
    if len(frame) - end != (length or 0):
        raise ProtocolError(f"frame has {len(frame) - end} bytes after "
                            f"its header, expected {length or 0}",
                            message.get("id"))
    return _with_body(message, None if length is None else frame[end:])


async def read_message(reader) -> Optional[dict]:
    """Read one frame from an ``asyncio.StreamReader``; None at EOF,
    inside a body too. A ``realign``'s ``sam`` is its body's bytes,
    which the server reads as bytes (:func:`body_text` only checks the
    ones the compiled pass declines); any other body is decoded here, as
    :func:`decode_message` decodes it."""
    line = await reader.readline()
    if not line:
        return None
    message, length = _header(line)
    try:
        body = None if length is None else await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None
    return _with_body(message, body, decode=False)


def error_response(request_id, status: str, error: str) -> dict:
    if status not in STATUSES or status == "ok":
        raise ValueError(f"bad failure status {status!r}")
    return {"id": request_id, "ok": False, "status": status, "error": error}


__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "STATUSES",
    "body_lines",
    "body_text",
    "decode_message",
    "encode_message",
    "error_response",
    "read_message",
]
