"""JSONL wire protocol between ``repro serve`` and its clients.

One message per line, UTF-8 JSON with sorted keys and no whitespace --
newline-delimited so the protocol needs no length prefix and a session
is replayable with ``nc`` or a five-line script. Requests carry a
client-chosen ``id``; responses echo it, so a client may pipeline many
requests on one connection and match completions out of order (the
server handles each request as its own task precisely so that
concurrent requests coalesce into shared engine batches).

Operations:

- ``realign``: ``{"id", "op": "realign", "tenant", "sam": [lines...],
  "deadline_s"?}`` -> ``{"id", "ok": true, "status": "ok", "moved":
  [[index, pos, cigar], ...], "sites": n, "latency_ms": x}``. Reads go
  out as SAM lines; only what realignment decided comes back, as the
  paper's accelerator returns a flag and a new position per read, not
  the reads. ``moved`` lists each read whose POS or CIGAR changed:
  ``index`` into the request's ``sam`` list, the new 1-based ``pos``
  and the new ``cigar`` string. Realignment changes nothing else in a
  read, so the client rebuilds the output by patching columns 4 and 6
  of the lines it sent (:func:`repro.serve.client.patch_moved`); every
  other line and column is returned verbatim. This is the one
  ``realign`` reply; there is no version flag. A ``sam`` entry that is
  not a string, or does not parse, fails the request with its index
  (``sam[5]: ...``).
- ``stats``: the service snapshot (counters, percentiles, saturation).
- ``ping``: liveness probe.
- ``shutdown``: ask the server to drain and exit.

Failures come back as ``{"id", "ok": false, "status":
"rejected"|"expired"|"closed"|"error", "error": "..."}`` -- the status
string mirrors the :mod:`repro.serve.request` exception taxonomy so
clients can tell backpressure (retry later) from a real fault.
"""

from __future__ import annotations

import json
from typing import Optional

#: Connection read limit: a region job's SAM lines are at most a few
#: MB; 64 MiB leaves room for pathological pileups without letting a
#: rogue peer balloon the server.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: The operations the server understands.
OPERATIONS = ("realign", "stats", "ping", "shutdown")

#: Failure statuses a response may carry.
STATUSES = ("ok", "rejected", "expired", "closed", "error")


class ProtocolError(ValueError):
    """Raised for malformed frames (bad JSON, missing fields)."""


def encode_message(message: dict) -> bytes:
    """Serialize one message to its wire frame (JSON + newline)."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one wire frame; raises :class:`ProtocolError` if malformed."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


async def read_message(reader) -> Optional[dict]:
    """Read one frame from an ``asyncio.StreamReader``; None at EOF."""
    line = await reader.readline()
    if not line:
        return None
    return decode_message(line)


def error_response(request_id, status: str, error: str) -> dict:
    if status not in STATUSES or status == "ok":
        raise ValueError(f"bad failure status {status!r}")
    return {"id": request_id, "ok": False, "status": status, "error": error}


__all__ = [
    "MAX_MESSAGE_BYTES",
    "OPERATIONS",
    "ProtocolError",
    "STATUSES",
    "decode_message",
    "encode_message",
    "error_response",
    "read_message",
]
