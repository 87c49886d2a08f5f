"""The placement-advisory daemon: async core of ``repro.serve``.

One asyncio task per connection reads length-prefixed JSON requests
(:mod:`repro.serve.protocol`) and dispatches them against three pieces
of shared state:

* the **trace registry** — per content fingerprint, the trace's path,
  the identity of the file that was hashed and, once a worker has
  loaded it, the few facts replies quote
  (:func:`repro.replay.search.recorded_facts` — recorded binding and
  exact-replay makespan, world size, event count — and resident
  bytes).  The daemon
  holds no book: a book exists only in the process that replays it
  (:mod:`repro.serve.workers`), ``ingest`` hands load + compile to the
  pool as one task, and every load a worker reports — first touch, or
  reload after an eviction — is counted in
  ``repro_serve_compiles_total``.  The registry survives a worker's
  eviction, so an evicted book reloads transparently on the next query.
* the **result cache + scoring pool** — per-candidate results are
  cached under ``(fingerprint, strategy, seed, substitution, focus)``;
  this is sound because :func:`repro.replay.search.score_candidate` is
  deterministic and candidates are independent.  Cold cells are
  single-flight — N clients racing on one cell share one future and
  one scoring task — and dispatched to the supervised worker pool,
  which batches candidates across concurrent queries.  The cells are
  ranked by :func:`repro.replay.search.rank_candidates`, and a reply
  is that result's ``to_dict()`` in an envelope (``type``,
  ``fingerprint``, ``cache``, ``elapsed_s``): the document a direct
  search gives.
* the **admission gate** — a query that needs more cold cells than the
  scoring queue has room for is rejected *before* anything is
  enqueued, with an ``overloaded`` error the client can retry on.
  Cache-hit-only queries are always admitted; backpressure applies to
  work, not to answers the server already has.

SIGTERM/SIGINT triggers a graceful drain: the listener closes, new
requests on live connections get ``shutting-down`` errors, in-flight
requests run to completion and their responses are written, then the
pool shuts down and the daemon exits 0.

Every request is observed on the server's own
:class:`~repro.obs.metrics.MetricsRegistry`: request-latency
histograms with sub-millisecond buckets, result-cache hit/miss
counters, a queue-depth gauge, worker-utilization and compile
counters.  The ``stats`` request returns the live snapshot.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ServeProtocolError, TraceSchemaError
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.store import (TraceChangedError, file_identity,
                               require_unchanged)
from repro.serve.workers import BookRef, ScoreTask, WorkerPool

__all__ = ["ServeConfig", "PlacementServer", "LATENCY_BUCKETS"]

#: Sub-millisecond latency resolution: hot (cached) queries answer in
#: tens of microseconds, cold ones in tens of milliseconds.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class ServeConfig:
    """Daemon knobs; the CLI maps flags onto this 1:1."""

    socket: Optional[str] = None     # Unix socket path (preferred)
    host: Optional[str] = None       # TCP instead, with port
    port: int = 0
    jobs: int = 2                    # scoring worker processes
    timeout_s: float = 60.0          # per-candidate scoring timeout
    retries: int = 2                 # scoring attempts beyond the first
    backoff_s: float = 0.05          # retry backoff base (doubles)
    cache_bytes: int = 256 * 1024 * 1024   # book LRU budget, per worker
    max_queue: int = 256             # cold-cell admission bound
    batch: int = 8                   # candidates per worker round trip
    result_cache_max: int = 65536    # per-candidate result entries

    def __post_init__(self):
        if not self.socket and not self.host:
            raise ValueError("ServeConfig needs a unix socket path or a "
                             "host/port")

    def endpoint(self) -> str:
        return self.socket if self.socket else f"{self.host}:{self.port}"


class PlacementServer:
    """The daemon.  ``await run()`` serves until shutdown."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        self.pool = WorkerPool(
            jobs=config.jobs, timeout_s=config.timeout_s,
            retries=config.retries, backoff_s=config.backoff_s,
            batch=config.batch, book_bytes=config.cache_bytes,
            on_load=self._book_loaded)
        # fingerprint -> (trace path, its file_identity when hashed)
        self._paths: Dict[str, Tuple[str, Tuple[int, ...]]] = {}
        # fingerprint -> the facts the first worker to load it reported
        self._facts: Dict[str, Dict[str, Any]] = {}
        # cell key -> its scored repro.replay.search.Candidate
        self._results: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._responses: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._pending_cells = 0                   # admitted, not yet done
        self._active_requests = 0
        self._draining = False
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()          # (task, writer) of live handlers
        self._started_at = time.monotonic()
        self.exit_code = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.pool.start()
        if self.config.socket:
            path = self.config.socket
            if os.path.exists(path):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=path)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host,
                port=self.config.port)
            if self.config.port == 0:
                self.config.port = \
                    self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; signal-handler safe)."""
        self._draining = True
        self._shutdown.set()

    async def run(self) -> int:
        """Serve until :meth:`request_shutdown`, then drain and stop."""
        if self._server is None:
            await self.start()
        self._log(f"serving on {self.config.endpoint()} "
                  f"(jobs={self.config.jobs}, "
                  f"cache={self.config.cache_bytes // (1024 * 1024)}MiB"
                  f"/worker, "
                  f"queue={self.config.max_queue})")
        await self._shutdown.wait()
        self._log("drain: listener closed, finishing in-flight requests")
        self._server.close()
        await self._server.wait_closed()
        await self._idle.wait()           # in-flight requests responded
        # Idle keep-alive connections would otherwise die noisily when
        # the loop tears down; hang up on them now that work is done.
        for task, writer in list(self._conns):
            writer.close()
        if self._conns:
            await asyncio.gather(*(t for t, _w in list(self._conns)),
                                 return_exceptions=True)
        await self.pool.stop()
        if self.config.socket and os.path.exists(self.config.socket):
            os.unlink(self.config.socket)
        self._log("drain complete")
        return self.exit_code

    def _log(self, msg: str) -> None:
        print(f"[repro-serve] {msg}", file=sys.stderr, flush=True)

    # -- connection handling -------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        me = (asyncio.current_task(), writer)
        self._conns.add(me)
        try:
            while True:
                try:
                    doc = await protocol.read_frame_async(reader)
                except ServeProtocolError as exc:
                    await self._send_error(writer, "bad-request", str(exc))
                    break
                if doc is None:
                    break
                await self._serve_request(doc, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(me)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(self, doc: Dict[str, Any], writer) -> None:
        t0 = time.perf_counter()
        try:
            mtype = protocol.validate_request(doc)
        except ServeProtocolError as exc:
            await self._send_error(writer, "bad-request", str(exc))
            return
        self.metrics.counter("repro_serve_requests_total", type=mtype).inc()
        if self._draining and mtype not in ("ping", "stats", "shutdown"):
            await self._send_error(writer, "shutting-down",
                                   "daemon is draining; not accepting work")
            return
        self._active_requests += 1
        self._idle.clear()
        try:
            if mtype == "ping":
                reply = {"type": "pong"}
            elif mtype == "ingest":
                reply = await self._do_ingest(doc)
            elif mtype == "query":
                reply = await self._do_query(doc)
            elif mtype == "stats":
                reply = self._do_stats()
            else:  # shutdown
                reply = {"type": "bye", "draining": True}
                self.request_shutdown()
            reply.setdefault("elapsed_s", time.perf_counter() - t0)
            await protocol.write_frame_async(writer, reply)
        except (_Reject, TraceChangedError) as rej:
            self.metrics.counter("repro_serve_rejected_total",
                                 code=rej.code).inc()
            await self._send_error(writer, rej.code, str(rej))
        except (ServeProtocolError, FileNotFoundError,
                TraceSchemaError) as exc:   # the last: not a trace file
            await self._send_error(writer, "bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 - fail loudly, keep serving
            self._log(f"internal error on {mtype}: {exc!r}")
            await self._send_error(writer, "internal", repr(exc))
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()
            self.metrics.histogram("repro_serve_request_seconds",
                                   buckets=LATENCY_BUCKETS,
                                   type=mtype).observe(
                time.perf_counter() - t0)

    async def _send_error(self, writer, code: str, message: str) -> None:
        assert code in protocol.ERROR_CODES
        try:
            await protocol.write_frame_async(
                writer, {"type": "error", "code": code, "message": message})
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    # -- ingest --------------------------------------------------------

    async def _do_ingest(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.fingerprint import file_digest

        path = os.path.abspath(doc["path"])
        loop = asyncio.get_running_loop()
        identity = file_identity(path)
        fp = await loop.run_in_executor(None, file_digest, path)
        require_unchanged(fp, path, identity)   # rewritten mid-hash
        known = fp in self._paths
        self._paths[fp] = (path, identity)
        reply = {
            "type": "ingested",
            "fingerprint": fp,
            "path": path,
            "known": known,
            "compiled": False,
        }
        if doc.get("compile", True):
            # One pool task: one worker holds the book when this reply
            # goes out, and the first query scores on it.
            await asyncio.shield(
                self.pool.submit(BookRef(fp, path, identity)))
            facts = self._facts[fp]
            reply["compiled"] = True
            reply["nbytes"] = facts["nbytes"]
            reply["world_size"] = facts["world_size"]
            reply["n_events"] = facts["n_events"]
        self._observe_store()
        return reply

    def _book_loaded(self, fp: str, facts: Dict[str, Any]) -> None:
        """A worker loaded and compiled ``fp``'s trace."""
        self.metrics.counter("repro_serve_compiles_total").inc()
        self._facts[fp] = facts

    # -- query ---------------------------------------------------------

    async def _do_query(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        from repro.placement.focus import Focus
        from repro.replay.search import rank_candidates, strategy_names

        fp = doc["fingerprint"]
        if fp not in self._paths:
            raise _Reject("unknown-fingerprint",
                          f"fingerprint {fp[:12]}… was never ingested here")
        try:
            strategies = strategy_names(doc.get("strategies"))
            focus = (Focus.from_dict(doc["focus"]) if doc.get("focus")
                     else None)
        except (TypeError, ValueError) as exc:
            raise ServeProtocolError(str(exc)) from None
        seed = int(doc.get("seed", 0))
        substitute = doc.get("substitute")

        # Hot path: the whole ranked response for this exact query was
        # built before — answer from memory without touching the pool
        # or the ranking code.  Focuses that differ only in list order
        # share cells but echo themselves, so the focus keys the reply.
        keys = [self._cell_key(fp, s, seed, substitute, focus)
                for s in strategies]
        response_key = (tuple(keys), focus)
        hot = self._responses.get(response_key)
        if hot is not None:
            self._responses.move_to_end(response_key)
            self.metrics.counter(
                "repro_serve_result_cache_hits_total").inc(len(keys))
            reply = dict(hot)
            reply["cache"] = {"hits": len(keys), "misses": 0}
            return reply
        hits = misses = 0
        waits: List[Tuple[int, asyncio.Future]] = []
        cold: List[Tuple[int, Tuple]] = []
        results: List[Any] = [None] * len(keys)     # Candidates
        for i, key in enumerate(keys):
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                results[i] = cached
                hits += 1
                continue
            misses += 1
            fut = self._inflight.get(key)
            if fut is not None:
                waits.append((i, fut))
            else:
                cold.append((i, key))

        # Admission control: reject before enqueueing anything.
        if cold and self._pending_cells + len(cold) > self.config.max_queue:
            raise _Reject(
                "overloaded",
                f"scoring queue full ({self._pending_cells} pending, "
                f"{len(cold)} new cells, bound {self.config.max_queue}); "
                "retry later")
        if hits:
            self.metrics.counter(
                "repro_serve_result_cache_hits_total").inc(hits)
        if misses:
            self.metrics.counter(
                "repro_serve_result_cache_misses_total").inc(misses)

        # Register + submit cold cells *before* the first await: between
        # classification and registration the loop must not suspend, or
        # a concurrent identical query would double-score the cell.
        path, identity = self._paths[fp]
        for i, key in cold:
            task = ScoreTask(fingerprint=fp, path=path, identity=identity,
                             strategy=strategies[i], seed=seed,
                             substitute=substitute, focus=focus)
            fut = self.pool.submit(task)
            shared = asyncio.get_running_loop().create_future()
            self._inflight[key] = shared
            self._pending_cells += 1
            self._observe_queue()
            fut.add_done_callback(
                lambda f, key=key, shared=shared: self._cell_done(
                    key, shared, f))
            waits.append((i, shared))

        for i, fut in waits:
            results[i] = await asyncio.shield(fut)
        # Any scored cell means a worker has loaded the book, and its
        # report of that came in no later than the cell's result.
        res = rank_candidates(results, self._facts[fp], seed, substitute,
                              focus)
        reply = {"type": "result", "fingerprint": fp, **res.to_dict(),
                 "cache": {"hits": hits, "misses": misses}}
        self._responses[response_key] = reply
        while len(self._responses) > self.config.result_cache_max:
            self._responses.popitem(last=False)
        return dict(reply)

    def _cell_done(self, key: Tuple, shared: "asyncio.Future",
                   fut: "asyncio.Future") -> None:
        self._pending_cells -= 1
        self._observe_queue()
        self._inflight.pop(key, None)
        if fut.cancelled():
            shared.cancel()
            return
        exc = fut.exception()
        if exc is not None:
            shared.set_exception(exc)
            shared.exception()  # may have multiple awaiters or none
            return
        result = fut.result()
        self._results[key] = result
        while len(self._results) > self.config.result_cache_max:
            self._results.popitem(last=False)
        shared.set_result(result)

    @staticmethod
    def _cell_key(fp: str, strategy: str, seed: int, substitute,
                  focus) -> Tuple:
        sub_key = (json.dumps(substitute, sort_keys=True,
                              separators=(",", ":"))
                   if substitute else "")
        return (fp, strategy, seed, sub_key,
                focus.cache_key() if focus else "")

    # -- stats ---------------------------------------------------------

    def _do_stats(self) -> Dict[str, Any]:
        store = self._observe_store()
        self._observe_queue()
        pool = self.pool.stats()
        self.metrics.gauge("repro_serve_worker_utilization").set(
            pool["utilization"])
        return {
            "type": "stats",
            "endpoint": self.config.endpoint(),
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining,
            "traces_known": len(self._paths),
            "store": store,
            "result_cache": {
                "entries": len(self._results),
                "max_entries": self.config.result_cache_max,
            },
            "queue": {
                "pending_cells": self._pending_cells,
                "max_queue": self.config.max_queue,
            },
            "pool": pool,
            "metrics": self.metrics.snapshot(),
        }

    def _observe_store(self) -> Dict[str, int]:
        """The workers' stores, summed, as of each one's last reply."""
        stats = self.pool.store_stats()
        self.metrics.gauge("repro_serve_books_resident").set(
            stats["entries"])
        self.metrics.gauge("repro_serve_books_bytes").set(stats["bytes"])
        return stats

    def _observe_queue(self) -> None:
        self.metrics.gauge("repro_serve_queue_depth").set(
            self._pending_cells)


class _Reject(Exception):
    """A request refused with a protocol error code (not a bug)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
