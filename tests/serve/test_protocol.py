"""Unit tests for the wire protocol: framing, schema, validation."""

import json
import socket
import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ServeProtocolError
from repro.serve import protocol


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        doc = {"type": "query", "fingerprint": "ab" * 32, "seed": 3}
        protocol.write_frame_sock(a, doc)
        got = protocol.read_frame_sock(b)
        assert got["type"] == "query"
        assert got["fingerprint"] == "ab" * 32
        assert got["schema"] == protocol.PROTOCOL_SCHEMA
    finally:
        a.close()
        b.close()


def test_encode_stamps_schema_and_is_canonical():
    frame = protocol.encode_frame({"type": "ping"})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4:] == b'{"schema":1,"type":"ping"}'


def test_clean_eof_returns_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert protocol.read_frame_sock(b) is None
    finally:
        b.close()


def test_mid_frame_eof_raises():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 100) + b"{")  # announce 100, send 1
        a.close()
        with pytest.raises(ServeProtocolError, match="mid-frame"):
            protocol.read_frame_sock(b)
    finally:
        b.close()


def test_oversized_frame_rejected_both_ways():
    with pytest.raises(ServeProtocolError, match="cap"):
        protocol.encode_frame({"type": "ping",
                               "pad": "x" * protocol.MAX_FRAME_BYTES})
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(ServeProtocolError, match="cap"):
            protocol.read_frame_sock(b)
    finally:
        a.close()
        b.close()


def test_non_json_payload_rejected():
    with pytest.raises(ServeProtocolError, match="not JSON"):
        protocol.decode_payload(b"\xff\xfe")
    with pytest.raises(ServeProtocolError, match="JSON object"):
        protocol.decode_payload(b"[1,2]")
    # Nested deeper than the parser recurses, yet far under the cap.
    with pytest.raises(ServeProtocolError, match="nested too deeply"):
        protocol.decode_payload(b"[" * 100_000 + b"]" * 100_000)


def test_integer_past_the_digit_limit_is_a_protocol_error():
    """Valid JSON whose integer the interpreter will not convert (more
    than ``sys.get_int_max_str_digits()`` digits) is refused like any
    other bad payload, not raised as a bare ``ValueError``."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # pragma: no cover - the limit was switched off
        pytest.skip("no integer digit limit in this interpreter")
    digits = b"7" * (limit + 1)
    for payload in (b'{"seed": ' + digits + b"}", b"[" + digits + b"]"):
        with pytest.raises(ServeProtocolError, match="cannot be parsed"):
            protocol.decode_payload(payload)


def test_envelope_schema_and_type_checked():
    for schema in (99, True, 1.0, "1", None):
        with pytest.raises(ServeProtocolError, match="schema"):
            protocol.validate_envelope({"schema": schema, "type": "ping"},
                                       protocol.REQUEST_TYPES)
    with pytest.raises(ServeProtocolError, match="unknown message type"):
        protocol.validate_envelope({"schema": 1, "type": "frobnicate"},
                                   protocol.REQUEST_TYPES)
    assert protocol.validate_envelope(
        {"schema": 1, "type": "ping"}, protocol.REQUEST_TYPES) == "ping"


@pytest.mark.parametrize("body, message", [
    ({"fingerprint": ""}, "fingerprint"),
    ({"fingerprint": 7}, "fingerprint"),
    ({"fingerprint": "ab", "strategies": []}, "strategies"),
    ({"fingerprint": "ab", "strategies": [1]}, "strategies"),
    ({"fingerprint": "ab", "seed": "zero"}, "seed"),
    ({"fingerprint": "ab", "seed": True}, "seed"),
    ({"fingerprint": "ab", "substitute": {"reduce": 3}}, "substitute"),
    ({"fingerprint": "ab", "focus": 5}, "focus"),
    ({"fingerprint": "ab", "focus": {"straggler_ranks": ["x"]}}, "focus"),
    ({"fingerprint": "ab", "seed": -1}, "seed"),
])
def test_query_validation_rejects(body, message):
    with pytest.raises(ServeProtocolError, match=message):
        protocol.validate_query(body)


#: Any JSON value.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
#: The fields of a well-formed request, each by what it may hold.
_FIELDS = {
    "fingerprint": st.text(min_size=1, max_size=8),
    "path": st.text(min_size=1, max_size=8),
    "strategies": st.lists(st.text(max_size=8), min_size=1, max_size=3),
    "seed": st.integers(min_value=0),
    "substitute": st.dictionaries(st.text(max_size=8), st.text(max_size=8),
                                  max_size=2),
    "focus": st.fixed_dictionaries({}, optional={
        "straggler_ranks": st.lists(st.integers(), max_size=3),
        "congested_classes": st.lists(st.text(max_size=8), max_size=3)}),
    "compile": st.booleans(),
    "drain": st.booleans(),
}
_WELL_FORMED = st.fixed_dictionaries(
    {"schema": st.just(protocol.PROTOCOL_SCHEMA),
     "type": st.sampled_from(protocol.REQUEST_TYPES),
     "fingerprint": _FIELDS["fingerprint"], "path": _FIELDS["path"]},
    optional={field: _FIELDS[field] for field in list(_FIELDS)[2:]})


@pytest.mark.parametrize("field", ["schema", "type", *_FIELDS])
@settings(max_examples=50, deadline=None)
@given(doc=_WELL_FORMED, value=_JSON,
       other=st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
def test_any_json_object_validates_or_is_a_protocol_error(field, doc, value,
                                                          other):
    """A request either passes validation or is refused as a protocol
    error (``bad-request``), never anything else: a well-formed request
    with ``field`` replaced by any JSON value, and any JSON object."""
    for request in ({**doc, field: value}, other):
        try:
            assert protocol.validate_request(request) \
                in protocol.REQUEST_TYPES
        except ServeProtocolError:
            pass


def test_full_request_validation():
    ok = {"schema": 1, "type": "ingest", "path": "/tmp/x.trace"}
    assert protocol.validate_request(ok) == "ingest"
    with pytest.raises(ServeProtocolError, match="ingest.path"):
        protocol.validate_request({"schema": 1, "type": "ingest"})
    with pytest.raises(ServeProtocolError, match="shutdown.drain"):
        protocol.validate_request(
            {"schema": 1, "type": "shutdown", "drain": "yes"})
    good_focus = {"schema": 1, "type": "query", "fingerprint": "ab",
                  "focus": {"straggler_ranks": [3], "weight": 2.0,
                            "congested_classes": ["Switch"]}}
    assert protocol.validate_request(good_focus) == "query"


# ---------------------------------------------------------------------------
# the framing, fuzzed: a dict, None at a clean EOF, or a protocol error


def _json_text(inner):
    items = st.lists(inner, max_size=4)
    pairs = st.lists(st.tuples(st.text(max_size=6).map(json.dumps), inner),
                     max_size=4)
    return st.one_of(
        items.map(lambda xs: "[" + ",".join(xs) + "]"),
        pairs.map(lambda kv: "{" + ",".join(f"{k}:{v}" for k, v in kv)
                  + "}"))


#: JSON-shaped text: scalars (integers with long digit runs among them)
#: in arrays and objects, nested a few levels or thousands deep, and
#: any prefix of such a text.
_DIGITS = st.integers(1, 6_000).map(lambda n: "-" * (n % 2) + "9" * n)
_SCALARS = st.one_of(
    st.sampled_from(["null", "true", "false", "1e999", "-0.0", "NaN"]),
    st.integers().map(str), _DIGITS, st.text(max_size=8).map(json.dumps))
_DEEP = st.tuples(st.integers(1, 5_000), st.sampled_from(['[', '{"a":'])) \
    .map(lambda d: d[1] * d[0] + "0" + ("]" if d[1] == "[" else "}") * d[0])
_WHOLE = st.one_of(st.recursive(_SCALARS, _json_text, max_leaves=12), _DEEP)
_JSON_SHAPED = st.one_of(
    _WHOLE,
    _WHOLE.flatmap(lambda t: st.integers(0, len(t)).map(lambda k: t[:k])))


def _dict_or_refused(read, eof=False):
    """``read()`` returns a dict (or ``None``, where ``eof`` allows it)
    or raises :class:`ServeProtocolError`; any other exception fails."""
    try:
        doc = read()
    except ServeProtocolError:
        return
    assert isinstance(doc, dict) or (eof and doc is None)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=st.one_of(st.binary(max_size=512),
                         _JSON_SHAPED.map(str.encode)))
def test_decode_payload_is_a_dict_or_a_protocol_error(payload):
    _dict_or_refused(lambda: protocol.decode_payload(payload))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(header=st.one_of(st.none(), st.binary(max_size=6)),
       payload=st.one_of(st.binary(max_size=512),
                         _JSON_SHAPED.map(str.encode)))
def test_read_frame_sock_is_a_dict_none_or_a_protocol_error(header, payload):
    """Whatever a peer writes before closing — a header announcing the
    payload's own length (``None``) or arbitrary bytes, then any
    payload — the blocking reader returns a dict or ``None``, or raises
    :class:`ServeProtocolError`; it neither hangs nor leaks another
    exception."""
    if header is None:
        header = struct.pack(">I", len(payload))
    a, b = socket.socketpair()
    try:
        a.sendall(header + payload)   # < 100 kB: fits the socket buffer
        a.close()
        b.settimeout(30)
        _dict_or_refused(lambda: protocol.read_frame_sock(b), eof=True)
    finally:
        a.close()
        b.close()
