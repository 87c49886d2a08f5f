"""Wire protocol of the placement-advisory service.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  The framing works over any
byte stream — the daemon listens on a Unix socket by default and on
TCP with ``--host/--port`` — and the same helpers serve the asyncio
server, the blocking client, and the load generator.

Every message is an *envelope*: ``{"schema": 1, "type": <str>, ...}``.
Unknown schemas, unknown types, and structurally invalid payloads
raise :class:`~repro.core.errors.ServeProtocolError` — the same
fail-loudly discipline as the trace readers; the server converts these
into ``error`` responses rather than dropping the connection, so a
confused client learns *why* it is confused.

Request types (client → server)::

    ping      {}
    ingest    {path, compile?: bool}        register + (optionally) compile
    query     {fingerprint, strategies?, seed?, substitute?, focus?}
    stats     {}
    shutdown  {drain?: bool}                ask the daemon to exit

Response types (server → client): ``pong``, ``ingested``, ``result``,
``stats``, ``bye`` — plus ``error`` with ``code`` one of
``bad-request`` / ``unknown-fingerprint`` / ``trace-changed`` /
``overloaded`` / ``shutting-down`` / ``internal``.  An ``overloaded``
error is the backpressure signal: the scoring queue is full and the
request was rejected *before* admission, so retrying later is safe.
``trace-changed`` means the file behind the fingerprint was rewritten,
replaced or removed since it was ingested: ingest it again.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional

from repro.core.errors import ServeProtocolError

__all__ = [
    "PROTOCOL_SCHEMA", "MAX_FRAME_BYTES",
    "REQUEST_TYPES", "RESPONSE_TYPES", "ERROR_CODES",
    "ServeProtocolError",
    "encode_frame", "decode_payload", "validate_envelope",
    "validate_request", "validate_query",
    "read_frame_async", "write_frame_async",
    "read_frame_sock", "write_frame_sock",
]

PROTOCOL_SCHEMA = 1

#: Hard cap on one frame's payload.  Responses carry at most a few
#: placements per strategy (kilobytes); anything bigger is a framing
#: bug or an attack, not a query.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct(">I")

REQUEST_TYPES = ("ping", "ingest", "query", "stats", "shutdown")
RESPONSE_TYPES = ("pong", "ingested", "result", "stats", "bye", "error")
ERROR_CODES = ("bad-request", "unknown-fingerprint", "trace-changed",
               "overloaded", "shutting-down", "internal")


# ---------------------------------------------------------------------------
# framing


def encode_frame(doc: Dict[str, Any]) -> bytes:
    """Envelope + frame one message (the schema field is stamped in)."""
    body = dict(doc)
    body.setdefault("schema", PROTOCOL_SCHEMA)
    payload = json.dumps(body, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServeProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeProtocolError(f"frame payload is not JSON: {exc}") from None
    except RecursionError:
        # A frame far under the size cap can still nest deeper than the
        # parser recurses; it is a bad request like any other.
        raise ServeProtocolError(
            "frame payload is nested too deeply to parse") from None
    except ValueError as exc:
        # Valid JSON the interpreter refuses to convert: an integer
        # longer than ``sys.get_int_max_str_digits()``.
        raise ServeProtocolError(
            f"frame payload cannot be parsed: {exc}") from None
    if not isinstance(doc, dict):
        raise ServeProtocolError(
            f"frame payload must be a JSON object, got {type(doc).__name__}")
    return doc


def _frame_length(header: bytes) -> int:
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServeProtocolError(
            f"frame announces {length} bytes, cap is {MAX_FRAME_BYTES}")
    return length


# ---------------------------------------------------------------------------
# validation


def validate_envelope(doc: Dict[str, Any], types) -> str:
    """Check schema + type; returns the type.  Raises on violation."""
    schema = doc.get("schema")
    # ``type(...) is int``: ``True`` and ``1.0`` compare equal to 1.
    if type(schema) is not int or schema != PROTOCOL_SCHEMA:
        raise ServeProtocolError(
            f"message schema={schema!r}, this build speaks "
            f"schema={PROTOCOL_SCHEMA}")
    mtype = doc.get("type")
    if mtype not in types:
        raise ServeProtocolError(
            f"unknown message type {mtype!r}; expected one of {types}")
    return mtype


def validate_query(doc: Dict[str, Any]) -> None:
    """Structural check of a ``query`` request body."""
    fp = doc.get("fingerprint")
    if not isinstance(fp, str) or not fp:
        raise ServeProtocolError("query.fingerprint must be a hex string")
    strategies = doc.get("strategies")
    if strategies is not None:
        if (not isinstance(strategies, list) or not strategies
                or not all(isinstance(s, str) for s in strategies)):
            raise ServeProtocolError(
                "query.strategies must be a non-empty list of strings")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ServeProtocolError("query.seed must be a non-negative integer")
    substitute = doc.get("substitute")
    if substitute is not None:
        if (not isinstance(substitute, dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in substitute.items())):
            raise ServeProtocolError(
                "query.substitute must map op name -> algorithm name")
    focus = doc.get("focus")
    if focus is not None:
        if not isinstance(focus, dict):
            raise ServeProtocolError("query.focus must be an object")
        ranks = focus.get("straggler_ranks", [])
        classes = focus.get("congested_classes", [])
        if (not isinstance(ranks, list)
                or not all(isinstance(r, int) for r in ranks)
                or not isinstance(classes, list)
                or not all(isinstance(c, str) for c in classes)):
            raise ServeProtocolError(
                "query.focus wants straggler_ranks: [int] and "
                "congested_classes: [str]")


def validate_request(doc: Dict[str, Any]) -> str:
    """Full request validation; returns the request type."""
    mtype = validate_envelope(doc, REQUEST_TYPES)
    if mtype == "ingest":
        path = doc.get("path")
        if not isinstance(path, str) or not path:
            raise ServeProtocolError("ingest.path must be a file path")
        if not isinstance(doc.get("compile", True), bool):
            raise ServeProtocolError("ingest.compile must be a bool")
    elif mtype == "query":
        validate_query(doc)
    elif mtype == "shutdown":
        if not isinstance(doc.get("drain", True), bool):
            raise ServeProtocolError("shutdown.drain must be a bool")
    return mtype


# ---------------------------------------------------------------------------
# asyncio stream I/O


async def read_frame_async(reader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio StreamReader; None at clean EOF."""
    try:
        header = await reader.readexactly(4)
    except Exception as exc:  # IncompleteReadError at EOF, reset, ...
        import asyncio

        if isinstance(exc, asyncio.IncompleteReadError) and not exc.partial:
            return None
        raise ServeProtocolError(f"connection broke mid-frame: {exc}") \
            from None
    length = _frame_length(header)
    try:
        payload = await reader.readexactly(length)
    except Exception as exc:
        raise ServeProtocolError(f"connection broke mid-frame: {exc}") \
            from None
    return decode_payload(payload)


async def write_frame_async(writer, doc: Dict[str, Any]) -> None:
    writer.write(encode_frame(doc))
    await writer.drain()


# ---------------------------------------------------------------------------
# blocking socket I/O (the thin client)


def read_frame_sock(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket; None at clean EOF."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    length = _frame_length(header)
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ServeProtocolError("connection closed mid-frame")
    return decode_payload(payload)


def write_frame_sock(sock: socket.socket, doc: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(doc))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            return None if not chunks else _short(got, n)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _short(got: int, want: int) -> bytes:
    raise ServeProtocolError(
        f"connection closed mid-frame ({got}/{want} bytes)")
