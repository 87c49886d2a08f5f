"""Scoring pool: candidate replays in supervised worker processes.

The asyncio server cannot score candidates on its own thread — a cold
replay of a large trace costs tens of milliseconds of pure CPU and
would stall every connection — so scoring is dispatched to a small
:class:`repro.core.pool.SupervisedPool`, which owns the processes,
batching (concurrent queries for one book share a pipe round trip),
per-batch timeouts, crash replacement and bounded retries.  This module
only says what a scoring worker does.

Workers own the books.  Each holds a private
:class:`~repro.serve.store.BookStore` and is the only place a trace
file is read and compiled: a task names its book by fingerprint, path
and the file identity ingest noted (:class:`BookRef`), the worker
answers from its resident copy or loads it — refusing a file that is
no longer the one that was fingerprinted, or never was a trace — and
says so in its reply, together with the recording's facts the daemon
ranks against and its store's counters.  A bare :class:`BookRef` is
ingest's "have this book hot" task; a :class:`ScoreTask` also scores
one candidate on it, by :func:`repro.replay.search.score_candidate` —
the exact code path of a direct ``repro.replay search`` — and returns
its :class:`~repro.replay.search.Candidate` as it is, which is what
makes served results bit-identical to offline ones.  A refused file
and a candidate whose scoring raised are *answers*, carried in the
reply beside the load report: loading and scoring are deterministic,
so the pool's retries (kept for crashes and timeouts) could not change
them, and a book that stays resident is always reported.
:class:`WorkerPool` is the daemon's view of all that: futures of
results, a callback per reported load, and the live workers' store
counters summed.

Chaos injection for the tests/CI is read from ``REPRO_SERVE_CHAOS``:
``"stall=0.5"`` makes every batch sleep first (holds tasks in flight,
exercising backpressure and drain), and ``"crash=N"`` makes N batches
hard-exit the worker mid-flight.
"""

from __future__ import annotations

import asyncio
import functools
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import TraceSchemaError
from repro.core.pool import PoolTaskError, SupervisedPool, parse_chaos
from repro.serve.store import BookEntry, BookStore, TraceChangedError

__all__ = ["BookRef", "ScoreTask", "WorkerPool", "WorkerScoreError"]

#: A task failed terminally: scoring raised, or all retries exhausted.
WorkerScoreError = PoolTaskError


@dataclass
class BookRef:
    """Which book a task needs — all a worker needs to (re)load it."""

    fingerprint: str
    path: str
    identity: Tuple[int, ...]  # store.file_identity(path) at ingest


@dataclass
class ScoreTask(BookRef):
    """One candidate to score: the pool's (and result cache's) unit."""

    strategy: str
    seed: int = 0
    substitute: Optional[Dict[str, str]] = None
    focus: Any = None    # a repro.placement.focus.Focus, or None


def _serve_one(store: BookStore, task: BookRef) -> Dict[str, Any]:
    """Have ``task``'s book resident, then score on it if asked to."""
    reply: Dict[str, Any] = {"pid": os.getpid(), "loaded": None,
                             "refused": None, "result": None,
                             "error": None}
    entry = store.get(task.fingerprint)
    if entry is None:
        try:
            entry = BookEntry.load(task.fingerprint, task.path,
                                   task.identity)
        except (TraceChangedError, TraceSchemaError) as exc:
            reply["refused"] = exc
        else:
            reply["loaded"] = entry.facts()
            store.put(entry)
    if entry is not None and isinstance(task, ScoreTask):
        from repro.replay.search import score_candidate

        try:
            reply["result"] = score_candidate(
                entry.trace, task.strategy, seed=task.seed,
                substitute=task.substitute, focus=task.focus)
        except Exception:
            # The book stays resident whatever scoring made of it, so
            # the load report must get out: raising here would drop it.
            reply["error"] = traceback.format_exc(limit=30)
    reply["store"] = store.stats()
    return reply


class WorkerPool(SupervisedPool):
    """The daemon's scoring pool: :class:`BookRef` / :class:`ScoreTask`
    in, :class:`~repro.replay.search.Candidate` out.
    ``on_load(fingerprint, facts)`` is called for every book load a
    worker reports (first touch, or reload after an eviction or a
    crash); ``book_bytes`` bounds each worker's store."""

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        batch: int = 8,
        book_bytes: int = 256 * 1024 * 1024,
        chaos: Optional[Dict[str, float]] = None,
        *,
        on_load: Callable[[str, Dict[str, Any]], None],
    ):
        if chaos is None:
            chaos = parse_chaos(os.environ.get("REPRO_SERVE_CHAOS"))
        self.book_bytes = int(book_bytes)
        self.on_load = on_load
        # worker pid -> its store's counters as of its last reply
        self._stores: Dict[int, Dict[str, int]] = {}
        super().__init__(
            functools.partial(BookStore, max_bytes=self.book_bytes),
            _serve_one,
            jobs=jobs, timeout_s=timeout_s, retries=retries,
            backoff_s=backoff_s, batch=batch, chaos=chaos)

    def submit(self, task: BookRef) -> "asyncio.Future":
        """Queue one task; the future resolves to the scored
        :class:`~repro.replay.search.Candidate` (None for a bare
        :class:`BookRef`) once the book is
        resident in the worker that ran it, or raises what the worker
        refused the file with
        (:class:`~repro.serve.store.TraceChangedError`,
        :class:`~repro.core.errors.TraceSchemaError`) or
        :class:`WorkerScoreError`."""
        what = task.strategy if isinstance(task, ScoreTask) else "load"
        index = f"{what} on {task.fingerprint[:12]}"
        reply = super().submit(task, index=index).future
        done = asyncio.get_running_loop().create_future()
        reply.add_done_callback(
            functools.partial(self._unwrap, task.fingerprint, index, done))
        return done

    def _unwrap(self, fingerprint: str, index: str, done: "asyncio.Future",
                reply: "asyncio.Future") -> None:
        exc = reply.exception()
        if exc is None:
            doc = reply.result()
            self._stores[doc["pid"]] = doc["store"]
            if doc["loaded"] is not None:
                self.on_load(fingerprint, doc["loaded"])
            if doc["refused"] is not None:
                exc = doc["refused"]
            elif doc["error"] is not None:
                exc = WorkerScoreError(
                    index, 1, f"error in worker:\n{doc['error']}")
        if exc is not None:
            done.set_exception(exc)
        else:
            done.set_result(doc["result"])

    def store_stats(self) -> Dict[str, int]:
        """The live workers' :meth:`BookStore.stats`, summed (a worker
        that has not answered yet holds nothing)."""
        live = self.worker_pids()
        self._stores = {pid: self._stores[pid] for pid in live
                        if pid in self._stores}
        total = dict.fromkeys(
            ("entries", "bytes", "hits", "misses", "evictions"), 0)
        for stats in self._stores.values():
            for key in total:
                total[key] += stats[key]
        total["max_bytes"] = self.book_bytes * len(live)
        return total
