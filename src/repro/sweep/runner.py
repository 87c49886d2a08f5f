"""Sweep orchestration: enumerate → cache-probe → execute → report.

``run_sweep`` is the one entry point everything uses — the CLI
(``python -m repro.sweep``), the EXPERIMENTS.md generator
(``scripts/generate_experiments_md.py``) and the CI smoke job.  It
enumerates the selected scenarios' cells, serves every cell whose
(params, code-fingerprint) key is already cached, fans the misses out
over the :class:`~repro.sweep.executor.SweepExecutor`, caches fresh
results, and returns a :class:`RunReport` that can be serialized as
the machine-readable run report or rendered into per-figure text
reports.  What the sweep layer itself costs is on the benchmark ledger
(``benchmarks/ledger/run.py``: ``sweep.overhead_s``,
``sweep.cached_rerun_s``), computed from the run report.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sweep import registry as _registry
from repro.sweep.cache import ResultCache
from repro.sweep.executor import CellTask, SweepExecutor
from repro.sweep.registry import SweepConfig, cell_id, get_scenario

__all__ = ["CellRecord", "RunReport", "select_cells", "run_sweep",
           "results_by_scenario", "render_reports", "write_run_report"]

# Schema 2 added the per-cell "telemetry" section (queue wait, backoff,
# peak RSS).
REPORT_SCHEMA = 2


@dataclass
class CellRecord:
    """One cell's outcome, cache provenance included."""

    id: str
    scenario: str
    params: Dict[str, Any]
    status: str  # "ok" | "failed"
    from_cache: bool
    attempts: int
    elapsed_s: float
    error: Optional[str] = None
    retry_log: List[str] = field(default_factory=list)
    result: Any = None  # encoded payload (JSON-able)
    # Executor telemetry (zero for cache hits).
    queue_wait_s: float = 0.0
    backoff_s: float = 0.0
    peak_rss_kb: int = 0


@dataclass
class RunReport:
    fingerprint: str
    jobs: int
    filter: Optional[str]
    smoke: bool
    wall_s: float
    cells: List[CellRecord]
    worker_utilization: float
    workers_replaced: int

    @property
    def totals(self) -> Dict[str, Any]:
        ok = sum(1 for c in self.cells if c.status == "ok")
        failed = len(self.cells) - ok
        hits = sum(1 for c in self.cells if c.from_cache)
        computed = sum(1 for c in self.cells
                       if c.status == "ok" and not c.from_cache)
        retries = sum(max(0, c.attempts - 1) for c in self.cells)
        return {
            "cells": len(self.cells),
            "ok": ok,
            "failed": failed,
            "cache_hits": hits,
            "computed": computed,
            "retries": retries,
            "cache_hit_rate": (hits / len(self.cells)) if self.cells else 0.0,
            "worker_utilization": round(self.worker_utilization, 4),
            "workers_replaced": self.workers_replaced,
            "wall_s": round(self.wall_s, 3),
            "queue_wait_s": round(
                sum(c.queue_wait_s for c in self.cells), 3),
            "backoff_s": round(sum(c.backoff_s for c in self.cells), 3),
            "peak_rss_kb_max": max(
                (c.peak_rss_kb for c in self.cells), default=0),
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "fingerprint": self.fingerprint,
            "jobs": self.jobs,
            "filter": self.filter,
            "smoke": self.smoke,
            "totals": self.totals,
            "cells": [
                {
                    "id": c.id, "scenario": c.scenario, "params": c.params,
                    "status": c.status, "from_cache": c.from_cache,
                    "attempts": c.attempts,
                    "elapsed_s": round(c.elapsed_s, 6),
                    "error": c.error, "retry_log": c.retry_log,
                    "telemetry": {
                        "queue_wait_s": round(c.queue_wait_s, 6),
                        "backoff_s": round(c.backoff_s, 6),
                        "peak_rss_kb": c.peak_rss_kb,
                    },
                }
                for c in self.cells
            ],
        }


def select_cells(
    filter_expr: Optional[str] = None,
    config: Optional[SweepConfig] = None,
) -> List[Dict[str, Any]]:
    """Enumerate ``[{"scenario": ..., "params": ...}, ...]`` for every
    scenario whose name matches ``filter_expr`` (regex, ``None`` = all
    non-hidden).  Hidden scenarios are included only when the filter
    names them explicitly."""
    config = config or SweepConfig()
    rx = re.compile(filter_expr) if filter_expr else None
    out: List[Dict[str, Any]] = []
    for name in _registry.scenario_names(include_hidden=True):
        spec = get_scenario(name)
        if rx is None:
            if spec.hidden:
                continue
        elif not rx.search(name):
            continue
        for params in spec.enumerate_cells(config):
            out.append({"scenario": name, "params": params})
    return out


def run_sweep(
    filter_expr: Optional[str] = None,
    jobs: int = 2,
    config: Optional[SweepConfig] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    refresh: bool = False,
    timeout_s: float = 600.0,
    retries: int = 2,
    backoff_s: float = 0.25,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> RunReport:
    """Run (or resume) a sweep; see the module docstring.

    ``use_cache=False`` neither reads nor writes the cache;
    ``refresh=True`` recomputes every cell but still stores results.
    """
    config = config or SweepConfig()
    cache = cache or ResultCache()
    events = on_event or (lambda e: None)
    t0 = time.monotonic()

    cells = select_cells(filter_expr, config)
    records: List[Optional[CellRecord]] = [None] * len(cells)
    misses: List[CellTask] = []
    for i, cell in enumerate(cells):
        name, params = cell["scenario"], cell["params"]
        entry = None
        if use_cache and not refresh:
            entry = cache.get(name, params)
        if entry is not None:
            records[i] = CellRecord(
                id=cell_id(name, params), scenario=name, params=params,
                status="ok", from_cache=True, attempts=0,
                elapsed_s=entry.elapsed_s, result=entry.result,
            )
            events({"type": "cache-hit", "index": i,
                    "id": records[i].id})
        else:
            misses.append(CellTask(index=i, scenario=name, params=params))

    executor = SweepExecutor(jobs=jobs, timeout_s=timeout_s,
                             retries=retries, backoff_s=backoff_s)
    if misses:
        outcomes = executor.run(misses, on_event=events)
    else:
        outcomes = []

    for out in outcomes:
        cell = cells[out.index]
        name, params = cell["scenario"], cell["params"]
        records[out.index] = CellRecord(
            id=cell_id(name, params), scenario=name, params=params,
            status=out.status, from_cache=False, attempts=out.attempts,
            elapsed_s=out.elapsed_s, error=out.error,
            retry_log=out.retry_log, result=out.result,
            queue_wait_s=out.queue_wait_s, backoff_s=out.backoff_s,
            peak_rss_kb=out.peak_rss_kb,
        )
        if out.status == "ok" and use_cache:
            cache.put(name, params, out.result, elapsed_s=out.elapsed_s)

    return RunReport(
        fingerprint=cache.fingerprint,
        jobs=jobs,
        filter=filter_expr,
        smoke=config.smoke,
        wall_s=time.monotonic() - t0,
        cells=[r for r in records if r is not None],
        worker_utilization=executor.utilization,
        workers_replaced=executor.workers_replaced,
    )


def results_by_scenario(report: RunReport) -> Dict[str, List[Any]]:
    """Decode every successful cell back into the experiment modules'
    dataclasses, grouped by scenario in enumeration order."""
    out: Dict[str, List[Any]] = {}
    for cell in report.cells:
        if cell.status != "ok":
            continue
        spec = get_scenario(cell.scenario)
        out.setdefault(cell.scenario, []).append(spec.decode(cell.result))
    return out


def render_reports(report: RunReport) -> Dict[str, str]:
    """Per-scenario text reports (the paper tables) from the results."""
    decoded = results_by_scenario(report)
    return {
        name: get_scenario(name).report(results)
        for name, results in decoded.items()
    }


def write_run_report(report: RunReport, path: str) -> None:
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
