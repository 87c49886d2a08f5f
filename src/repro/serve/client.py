"""Thin blocking client for the placement-advisory daemon.

One socket, one request/response at a time — deliberately boring.  The
CLI, the tests, and anything embedding advice into a run loop use this;
the benchmark's load generator (``benchmarks/ledger/serve.py``) drives
the asyncio stream helpers directly instead.

An ``error`` response raises :class:`ServeError` carrying the server's
error ``code`` (``overloaded`` → back off and retry; ``bad-request`` →
fix the caller; ``trace-changed`` → ingest the file again;
``shutting-down`` → find another daemon).
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from repro.serve import protocol

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The daemon answered with an ``error`` response."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServeClient:
    """Blocking client; usable as a context manager.

    ``ServeClient(path="/run/repro-serve.sock")`` for Unix sockets,
    ``ServeClient(host="127.0.0.1", port=7777)`` for TCP.
    """

    def __init__(self, path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 timeout_s: float = 120.0):
        if not path and not host:
            raise ValueError("ServeClient needs a unix socket path or a "
                             "host/port")
        if path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            self._sock.connect(path)
        else:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout_s)
        self.endpoint = path if path else f"{host}:{port}"

    # -- plumbing ------------------------------------------------------

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, return the (non-error) response."""
        protocol.write_frame_sock(self._sock, doc)
        reply = protocol.read_frame_sock(self._sock)
        if reply is None:
            raise protocol.ServeProtocolError(
                "server closed the connection without answering")
        protocol.validate_envelope(reply, protocol.RESPONSE_TYPES)
        if reply["type"] == "error":
            raise ServeError(reply.get("code", "internal"),
                             reply.get("message", ""))
        return reply

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the verbs -----------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request({"type": "ping"})

    def ingest(self, path: str, compile: bool = True) -> Dict[str, Any]:
        return self.request(
            {"type": "ingest", "path": path, "compile": compile})

    def query(
        self,
        fingerprint: str,
        strategies: Optional[List[str]] = None,
        seed: int = 0,
        substitute: Optional[Dict[str, str]] = None,
        focus: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"type": "query", "fingerprint": fingerprint,
                               "seed": seed}
        if strategies is not None:
            doc["strategies"] = list(strategies)
        if substitute is not None:
            doc["substitute"] = dict(substitute)
        if focus is not None:
            doc["focus"] = dict(focus)
        return self.request(doc)

    def stats(self) -> Dict[str, Any]:
        return self.request({"type": "stats"})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self.request({"type": "shutdown", "drain": drain})
