"""Scoring pool: candidate replays in supervised worker processes.

The asyncio server cannot score candidates on its own thread — a cold
replay of a large trace costs tens of milliseconds of pure CPU and
would stall every connection — so scoring is dispatched to a small
:class:`repro.core.pool.SupervisedPool`, which owns the processes,
batching (concurrent queries for one book share a pipe round trip),
per-batch timeouts, crash replacement and bounded retries.  This module
only says what a scoring worker does.

Each worker owns a private :class:`~repro.serve.store.BookStore`
(loaded lazily from the trace *path*, keyed by the parent's
fingerprint, refused when the file is no longer the one that was
fingerprinted), so a hot worker replays straight from memory.  Scoring
calls :func:`repro.replay.search.score_candidate` — the exact code
path of a direct ``repro.replay search`` — which is what makes served
results bit-identical to offline ones.

Chaos injection for the tests/CI is read from ``REPRO_SERVE_CHAOS``:
``"stall=0.5"`` makes every batch sleep first (holds tasks in flight,
exercising backpressure and drain), and ``"crash=N"`` makes N batches
hard-exit the worker mid-flight.
"""

from __future__ import annotations

import asyncio
import functools
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.pool import PoolTaskError, SupervisedPool, parse_chaos
from repro.serve.store import BookEntry, BookStore

__all__ = ["ScoreTask", "WorkerPool", "WorkerScoreError"]

#: A task failed terminally (all retries exhausted).
WorkerScoreError = PoolTaskError


@dataclass
class ScoreTask:
    """One candidate to score: the pool's (and result cache's) unit."""

    fingerprint: str
    path: str
    identity: Tuple[int, ...]  # store.file_identity(path) at ingest
    strategy: str
    seed: int = 0
    substitute: Optional[Dict[str, str]] = None
    focus: Optional[Dict[str, Any]] = None


def _score_one(store: BookStore, task: ScoreTask) -> Dict[str, Any]:
    from repro.placement.focus import Focus
    from repro.replay.search import score_candidate

    entry = store.get(task.fingerprint)
    if entry is None:
        entry = BookEntry.load(task.fingerprint, task.path, task.identity)
        store.put(entry)
    cand = score_candidate(
        entry.trace, task.strategy, seed=int(task.seed),
        substitute=task.substitute,
        focus=Focus.from_dict(task.focus) if task.focus else None)
    return {
        "strategy": cand.strategy,
        "placement": [int(p) for p in cand.placement],
        "makespan": cand.makespan,
        "hop_bytes": cand.hop_bytes,
        "inter_node_bytes": cand.inter_node_bytes,
        "modeled_cost": cand.modeled_cost,
        "wall_seconds": cand.wall_seconds,
    }


class WorkerPool(SupervisedPool):
    """The daemon's scoring pool: :class:`ScoreTask` in, result dict out."""

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        batch: int = 8,
        book_bytes: int = 256 * 1024 * 1024,
        chaos: Optional[Dict[str, float]] = None,
    ):
        if chaos is None:
            chaos = parse_chaos(os.environ.get("REPRO_SERVE_CHAOS"))
        super().__init__(
            functools.partial(BookStore, max_bytes=int(book_bytes)),
            _score_one,
            jobs=jobs, timeout_s=timeout_s, retries=retries,
            backoff_s=backoff_s, batch=batch, chaos=chaos)

    def submit(self, task: ScoreTask) -> "asyncio.Future":
        """Queue one candidate; the future resolves to its result dict
        or raises :class:`WorkerScoreError`."""
        label = f"{task.strategy} on {task.fingerprint[:12]}"
        return super().submit(task, index=label).future
