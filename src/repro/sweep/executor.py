"""Sharded cell executor: sweep cells on the supervised worker pool.

A façade over :class:`repro.core.pool.SupervisedPool`, which owns the
worker processes, per-cell timeouts, crash replacement, bounded retries
with backoff and chaos injection.  This module only says what a sweep
worker computes (:func:`repro.sweep.registry.compute_cell`) and maps
the pool's tasks onto :class:`CellOutcome` records.

Chaos injection (used by the CI ``sweep-smoke`` job and the executor
tests) is read from ``REPRO_SWEEP_CHAOS``, e.g.
``REPRO_SWEEP_CHAOS="crash=1,timeout=1"``: exactly N workers hard-exit
mid-cell / stall past the deadline, which must be invisible in the
final results.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.pool import PoolTaskError, SupervisedPool, parse_chaos

__all__ = ["CellTask", "CellOutcome", "SweepExecutor", "parse_chaos"]


@dataclass
class CellTask:
    index: int
    scenario: str
    params: Dict[str, Any]


@dataclass
class CellOutcome:
    index: int
    scenario: str
    params: Dict[str, Any]
    status: str  # "ok" | "failed"
    result: Any = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed_s: float = 0.0  # busy time of the successful attempt
    retry_log: List[str] = field(default_factory=list)
    # Telemetry (summed over attempts; RSS is the max across them).
    queue_wait_s: float = 0.0  # runnable-but-unassigned time
    backoff_s: float = 0.0  # retry backoff delays
    peak_rss_kb: int = 0  # worker peak RSS while computing the cell


def _worker_init():
    from repro.sweep.registry import compute_cell

    return compute_cell


def _worker_call(compute_cell, payload):
    return compute_cell(*payload)


class SweepExecutor:
    """Run cells on a supervised pool of at most ``jobs`` workers (never
    more than there are cells).  ``workers_spawned``, ``workers_replaced``
    and ``utilization`` describe the latest :meth:`run`."""

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: float = 600.0,
        retries: int = 2,
        backoff_s: float = 0.25,
        chaos: Optional[Dict[str, int]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout_s = float(timeout_s)
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        if chaos is None:
            chaos = parse_chaos(os.environ.get("REPRO_SWEEP_CHAOS"))
        self.chaos = chaos
        self.workers_spawned = 0
        self.workers_replaced = 0
        self.utilization = 0.0

    def run(self, tasks: List[CellTask],
            on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
            ) -> List[CellOutcome]:
        if not tasks:
            self.utilization = 0.0
            return []
        return asyncio.run(self._run(tasks, on_event))

    async def _run(self, tasks, on_event) -> List[CellOutcome]:
        pool = SupervisedPool(
            _worker_init, _worker_call, jobs=min(self.jobs, len(tasks)),
            timeout_s=self.timeout_s, retries=self.retries,
            backoff_s=self.backoff_s, chaos=self.chaos, on_event=on_event)
        await pool.start()
        try:
            # Submission order is dispatch order: lowest index first.
            ran = [pool.submit((t.scenario, t.params), index=t.index)
                   for t in tasks]
            results = await asyncio.gather(*(r.future for r in ran),
                                           return_exceptions=True)
        finally:
            stats = pool.stats()
            self.workers_spawned = stats["spawned"]
            self.workers_replaced = stats["replaced"]
            self.utilization = stats["utilization"]
            await pool.stop()
        outcomes = []
        for task, r, result in zip(tasks, ran, results):
            failed = isinstance(result, PoolTaskError)
            outcomes.append(CellOutcome(
                index=task.index, scenario=task.scenario, params=task.params,
                status="failed" if failed else "ok",
                result=None if failed else result,
                error=result.reason if failed else None,
                attempts=r.attempts, elapsed_s=0.0 if failed else r.elapsed_s,
                retry_log=r.retry_log, queue_wait_s=r.queue_wait_s,
                backoff_s=r.backoff_s, peak_rss_kb=r.peak_rss_kb))
        return outcomes
