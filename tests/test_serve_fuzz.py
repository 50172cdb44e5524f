"""Structured fuzz of the wire protocol: the codec, and a live server.

Two properties (ROADMAP 8(b)):

- ``decode_message(encode_message(m)) == m`` for random ids, tenants,
  deadlines and jobs of SAM-like lines -- empty jobs and non-ASCII text
  included;
- a live :class:`RealignmentServer` fed well-formed frames and then one
  frame cut short or with one byte flipped, followed by a ``ping``:
  every reply is a typed frame, every well-formed request before the
  damaged one gets exactly one answer, no id is answered twice, and
  the server still answers a fresh connection afterwards, having
  logged no error.

CI runs both with ``--hypothesis-profile=ci --hypothesis-seed=2019``.
"""

import asyncio
import logging
import socket
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.genomics.samlite import format_read
from repro.genomics.simulate import simulate_sample
from repro.serve.protocol import (
    STATUSES,
    ProtocolError,
    decode_message,
    encode_message,
)
from repro.serve.server import RealignmentServer

# A test without max_examples of its own takes the active profile's
# (the ``ci`` profile is registered in tests/conftest.py).
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

SAMPLE = simulate_sample({"chrF": 3000}, seed=7)
LINES = [format_read(read) for read in SAMPLE.reads]

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
field = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n"),
                min_size=1, max_size=12)
sam_line = st.lists(field, min_size=1, max_size=12).map("\t".join)


@relaxed
@given(request_id=st.one_of(st.integers(), text),
       tenant=text,
       deadline_s=st.one_of(st.none(), st.floats(0.001, 1e6)),
       sam=st.lists(sam_line, max_size=20))
def test_realign_frames_round_trip(request_id, tenant, deadline_s, sam):
    message = {"id": request_id, "op": "realign", "tenant": tenant,
               "sam": sam}
    if deadline_s is not None:
        message["deadline_s"] = deadline_s
    frame = encode_message(message)
    header, _, body = frame.partition(b"\n")
    assert body == "\n".join(sam).encode("utf-8")
    assert decode_message(frame) == message


@relaxed
@given(message=st.fixed_dictionaries(
    {"id": st.one_of(st.integers(), text),
     "op": st.sampled_from(["ping", "stats", "shutdown"])}))
def test_control_frames_are_one_json_line(message):
    frame = encode_message(message)
    assert frame.count(b"\n") == 1 and frame.endswith(b"\n")
    assert decode_message(frame) == message


class _ErrorLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def live():
    """One server on an event loop of its own thread, for the module,
    and the error records logged while it runs."""
    errors = _ErrorLog()
    logging.getLogger().addHandler(errors)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = RealignmentServer(SAMPLE.reference,
                               engine=EngineConfig(workers=1))
    address = asyncio.run_coroutine_threadsafe(
        server.start(port=0), loop).result(60)
    try:
        yield address, errors
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(60)
        loop.close()
        logging.getLogger().removeHandler(errors)


def _session(address, data: bytes):
    """Send ``data`` on one connection, shut the sending side, and
    return the reply lines until the server closes the connection."""
    received = []
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                received.append(chunk)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server closed on a frame it could not read past
    return b"".join(received).splitlines()


job = st.integers(0, len(LINES) - 1).flatmap(
    lambda start: st.integers(0, 12).map(
        lambda size: LINES[start:start + size]))
request = st.one_of(
    st.just({"op": "ping"}),
    st.just({"op": "stats"}),
    st.builds(lambda sam: {"op": "realign", "tenant": "fuzz", "sam": sam},
              job),
)


@relaxed
@given(before=st.lists(request, max_size=4), damaged=request,
       cut=st.booleans(), where=st.floats(0, 1, exclude_max=True),
       flip=st.integers(1, 255))
def test_a_damaged_frame_gets_typed_errors_and_no_lost_replies(
        live, before, damaged, cut, where, flip):
    address, errors = live
    frames = [encode_message(dict(message, id=index))
              for index, message in enumerate(before)]
    # A string id: no single-byte flip turns it into an int id above.
    frame = bytearray(encode_message(dict(damaged, id="damaged")))
    at = int(where * len(frame))
    if cut:
        del frame[at:]
    else:
        frame[at] ^= flip
    replies = _session(address, b"".join(frames) + bytes(frame)
                       + encode_message({"id": "after", "op": "ping"}))

    answered = Counter()
    for line in replies:
        reply = decode_message(line)
        assert reply["status"] in STATUSES
        assert reply["ok"] is (reply["status"] == "ok")
        if not reply["ok"]:
            assert isinstance(reply["error"], str)
        answered[reply["id"]] += 1
    for index in range(len(frames)):
        assert answered[index] == 1
    assert all(count == 1 for request_id, count in answered.items()
               if request_id is not None)
    ping = _session(address, encode_message({"id": 0, "op": "ping"}))
    assert [decode_message(line) for line in ping] == [
        {"id": 0, "ok": True, "status": "ok"}]
    assert [record.getMessage() for record in errors.records] == []


def test_a_damaged_frame_is_still_a_protocol_error_offline():
    frame = encode_message({"id": 1, "op": "realign", "tenant": "t",
                            "sam": LINES[:3]})
    with pytest.raises(ProtocolError):
        decode_message(frame[:-1])
    with pytest.raises(ProtocolError):
        decode_message(frame + b"x")
