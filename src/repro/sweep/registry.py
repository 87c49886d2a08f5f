"""Scenario registry: the one index of the paper's experiments.

Each scenario (one per paper figure/table) is defined here exactly once:
``enumerate_cells`` is the single enumeration of its parameter grid at
each scale (``--smoke`` / default / ``REPRO_FULL=1``), ``compute`` names
the single function that computes a cell, ``encode`` / ``decode`` carry
a result through the cache's canonical JSON, and ``report`` is the
single renderer.  A *cell* is the smallest independently computable
unit, a pure function of a plain-dict parameter set — for the figures,
the keyword arguments of the cell function.  Both front doors consume
this index and nothing else: ``python -m repro.sweep`` (cached,
parallel, fault-tolerant) and ``python -m repro.experiments`` (serial,
in-process, uncached), so a figure has one grid and one number per cell.

Cell granularity per scenario:

========  ==========================================================
fig2      one cell (single two-rank engine run) — ``fig2_counters.run``
fig4      one cell per (node count, message size), one Welch CI each
          — ``fig4_overhead.run_point``
fig5      one cell per (op, node count) — the buffer sweep shares one
          monitored reordering, so it cannot split further
          — ``fig5_collectives.run_cell``
fig6      one cell per (nodes, buffer size, iterations), cold engine
          — ``fig6_allgather.run_cell``
fig7      one cell per (class, NP, mapping) — ``fig7_cg.run_one``
table1    one cell per matrix order (real wall-clock timing)
          — ``table1_treematch.run_order``
whatif    one cell per (op, node count) — record a fig5 cell, then
          search candidate placements offline via repro.replay
selftest  hidden micro-scenario used by executor tests and CI chaos
========  ==========================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import (fig2_counters, fig4_overhead,
                               fig5_collectives, fig6_allgather, fig7_cg,
                               table1_treematch)
from repro.experiments.common import full_scale, parse_sizes, render_table

__all__ = ["SweepConfig", "ScenarioSpec", "SCENARIOS", "get_scenario",
           "scenario_names", "compute_cell", "cell_id", "add_grid_flags",
           "grid_config"]


@dataclass(frozen=True)
class SweepConfig:
    """Knobs that shape grid enumeration (not cell execution)."""

    seed: Optional[int] = None  # None: each scenario's own default
    sizes: Optional[Tuple[int, ...]] = None  # override the size axis
    smoke: bool = False  # tiny CI grids


def add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`SweepConfig` field, defined once for both
    front doors so they cannot enumerate different grids."""
    parser.add_argument("--seed", type=int, default=None,
                        help="grid seed (default: per-scenario default)")
    parser.add_argument("--sizes", type=parse_sizes, default=None,
                        metavar="N,N,...",
                        help="override each scenario's size axis")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI grids instead of the defaults")


def grid_config(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(seed=args.seed, sizes=args.sizes, smoke=args.smoke)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    title: str
    enumerate_cells: Callable[[SweepConfig], List[Dict[str, Any]]]
    compute: Callable[[Dict[str, Any]], Any]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    report: Callable[[List[Any]], str]
    hidden: bool = False  # excluded unless the filter names it


def cell_id(scenario: str, params: Dict[str, Any]) -> str:
    inner = ",".join(f"{k}={params[k]}" for k in params)
    return f"{scenario}[{inner}]"


def _kwargs(fn: Callable[..., Any]) -> Callable[[Dict[str, Any]], Any]:
    """``compute`` for a scenario whose cell params are the keyword
    arguments of its cell function."""
    return lambda params: fn(**params)


def _dataclass_codec(cls, many: bool = False):
    """``(encode, decode)`` for a result that is one flat dataclass of
    JSON scalars (``many``: a list of them)."""
    if many:
        return (lambda xs: [dataclasses.asdict(x) for x in xs],
                lambda docs: [cls(**d) for d in docs])
    return dataclasses.asdict, lambda doc: cls(**doc)


# ---------------------------------------------------------------- fig2


def _fig2_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    if cfg.smoke:
        duration = 1.5
    else:
        duration = 45.0 if full_scale() else 10.0
    seed = 42 if cfg.seed is None else cfg.seed
    params: Dict[str, Any] = {"duration": duration, "seed": seed}
    if cfg.sizes is not None and len(cfg.sizes) == 2:
        params["size_range"] = list(cfg.sizes)
    return [params]


def _fig2_encode(res) -> Dict[str, Any]:
    return {
        "times": [float(t) for t in res.times],
        "hw_window": [int(v) for v in res.hw_window],
        "mon_window": [int(v) for v in res.mon_window],
        "total_sent": int(res.total_sent),
    }


def _fig2_decode(doc):
    return fig2_counters.CounterComparison(
        times=np.asarray(doc["times"], dtype=float),
        hw_window=np.asarray(doc["hw_window"], dtype=np.int64),
        mon_window=np.asarray(doc["mon_window"], dtype=np.int64),
        total_sent=int(doc["total_sent"]),
    )


def _fig2_report(results: List[Any]) -> str:
    return "\n\n".join(fig2_counters.report(r) for r in results)


# ---------------------------------------------------------------- fig4


def _fig4_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        nodes, sizes, reps = (2,), (1, 1_000), 10
    else:
        nodes = (2, 4, 8)
        sizes = cfg.sizes or (1, 10, 100, 1_000, 10_000)  # bytes
        reps = 180 if full_scale() else 40
    return [
        {"n_nodes": n, "size_bytes": s, "reps": reps, "seed": seed}
        for n in nodes for s in sizes
    ]


# ---------------------------------------------------------------- fig5


def _fig5_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        nodes: Tuple[int, ...] = (2,)
        sizes = (2_000_000,)
        reps = 1
    else:
        nodes = (2, 4, 8)
        sizes = cfg.sizes or (fig5_collectives.FULL_SIZES if full_scale()
                              else fig5_collectives.DEFAULT_SIZES)
        reps = 3
    return [
        {"op": op, "n_nodes": n, "sizes": list(sizes), "reps": reps,
         "seed": seed}
        for op in ("reduce", "bcast") for n in nodes
    ]


def _fig5_report(results: List[Any]) -> str:
    points = [p for cell in results for p in cell]
    out = []
    for op in ("reduce", "bcast"):
        sub = [p for p in points if p.op == op]
        if sub:
            out.append(fig5_collectives.report(sub))
    return "\n\n".join(out)


# ---------------------------------------------------------------- fig6


def _fig6_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    # sizes are MPI_INT counts; REPRO_FULL is the paper's 6x5 grid on
    # 48/96/192 ranks, the default a 4x4 sub-grid on 48.
    if cfg.smoke:
        nodes: Tuple[int, ...] = (2,)
        sizes: Sequence[int] = (1, 100_000)
        iters: Sequence[int] = (1, 100)
    elif full_scale():
        nodes = (2, 4, 8)
        sizes = cfg.sizes or (1, 10, 100, 1_000, 10_000, 100_000)
        iters = (1, 10, 100, 1_000, 10_000)
    else:
        nodes = (2,)
        sizes = cfg.sizes or (1, 100, 10_000, 100_000)
        iters = (1, 10, 100, 1_000)
    return [
        {"n_nodes": n, "n_ints": s, "iterations": it, "group_size": 8,
         "seed": seed}
        for n in nodes for s in sizes for it in iters
    ]


# ---------------------------------------------------------------- fig7


def _fig7_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    mappings: Sequence[str] = ("random", "rr", "standard")
    sim_iters = 2
    if cfg.smoke:
        grid = [("B", 64)]
        mappings = ("rr",)
        sim_iters = 1
    elif full_scale():
        grid = [(c, p) for c in ("B", "C", "D")
                for p in (cfg.sizes or (64, 128, 256))]
    elif cfg.sizes:
        grid = [("B", p) for p in cfg.sizes]
    else:
        # Classes B/C/D at NP 64 plus class B at 128/256.
        grid = [("B", 64), ("C", 64), ("D", 64), ("B", 128), ("B", 256)]
    return [
        {"cg_class": c, "np_ranks": p, "mapping": m, "sim_iters": sim_iters,
         "seed": seed}
        for c, p in grid for m in mappings
    ]


# -------------------------------------------------------------- table1


def _table1_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        sizes: Sequence[int] = (256, 512)
    else:
        # The paper's four orders under REPRO_FULL, scaled down otherwise.
        sizes = cfg.sizes or ((8192, 16384, 32768, 65536) if full_scale()
                              else (1024, 2048, 4096, 8192))
    return [{"order": n, "seed": seed} for n in sizes]


def _table1_compute(params: Dict[str, Any]):
    return table1_treematch.run_order(params["order"], seed=params["seed"])


# -------------------------------------------------------------- whatif


def _whatif_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        ops: Sequence[str] = ("reduce",)
        nodes: Tuple[int, ...] = (2,)
        sizes: Sequence[int] = (1_000_000,)
        strategies = ["treematch", "local"]
    else:
        ops = ("reduce", "bcast")
        nodes = (2, 4)
        sizes = cfg.sizes or fig5_collectives.DEFAULT_SIZES
        strategies = ["identity", "treematch", "greedy", "local",
                      "round_robin"]
    return [
        {"op": op, "n_nodes": n, "sizes": list(sizes), "reps": 1,
         "seed": seed, "strategies": strategies}
        for op in ops for n in nodes
    ]


def _whatif_compute(params: Dict[str, Any]) -> Dict[str, Any]:
    """Record one fig5 cell live, then search placements offline."""
    from repro.replay import autorecord
    from repro.replay.search import what_if_search

    with autorecord.capture(meta={"workload": "fig5"}) as traces:
        fig5_collectives.run_cell(
            params["op"], params["n_nodes"], sizes=tuple(params["sizes"]),
            reps=params["reps"], seed=params["seed"])
    res = what_if_search(traces[0], strategies=params["strategies"],
                         seed=params["seed"])
    return {"op": params["op"], **res.to_dict()}


def _whatif_report(results: List[Any]) -> str:
    from repro.replay.search import speedup_of

    rows = []
    for r in results:
        for c in r["candidates"]:
            rows.append((
                r["op"], r["meta"]["world_size"], c["strategy"],
                round(c["makespan"], 6),
                round(speedup_of(r["recorded_makespan"], c["makespan"]), 3),
                int(c["inter_node_bytes"]),
            ))
    best = "; ".join(
        f"{r['op']}/np{r['meta']['world_size']}: {r['best']} "
        f"({r['speedup']:.2f}x)"
        for r in results)
    table = render_table(
        ["op", "np", "strategy", "makespan (s)", "speedup",
         "inter-node bytes"],
        rows,
        title="whatif — offline placement search over recorded traces")
    return f"{table}\n\nbest per cell: {best}"


# ------------------------------------------------------------ selftest


def _selftest_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    seed = 0 if cfg.seed is None else cfg.seed
    n = 4 if cfg.smoke else 8
    return [{"x": seed + i} for i in range(n)]


def _selftest_compute(params: Dict[str, Any]):
    if params.get("fail"):
        raise RuntimeError("selftest: injected failure")
    delay = params.get("delay", 0.0)
    if delay:
        time.sleep(float(delay))
    x = int(params["x"])
    return {"x": x, "y": x * x}


def _selftest_report(results: List[Any]) -> str:
    return render_table(["x", "y"],
                        [(r["x"], r["y"]) for r in results],
                        title="selftest — trivial cells")


def _identity(x):
    return x


SCENARIOS: Dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> None:
    SCENARIOS[spec.name] = spec


_register(ScenarioSpec(
    "fig2", "Fig. 2/3 — HW counters vs introspection (§6.1)",
    _fig2_cells, _kwargs(fig2_counters.run), _fig2_encode, _fig2_decode,
    _fig2_report))
_register(ScenarioSpec(
    "fig4", "Fig. 4 — monitoring overhead on MPI_Reduce (§6.2)",
    _fig4_cells, _kwargs(fig4_overhead.run_point),
    *_dataclass_codec(fig4_overhead.OverheadPoint), fig4_overhead.report))
_register(ScenarioSpec(
    "fig5", "Fig. 5 — collective optimization by rank reordering (§6.3)",
    _fig5_cells, _kwargs(fig5_collectives.run_cell),
    *_dataclass_codec(fig5_collectives.CollectivePoint, many=True),
    _fig5_report))
_register(ScenarioSpec(
    "fig6", "Fig. 6 — reordering-gain heatmap, grouped allgathers (§6.4)",
    _fig6_cells, _kwargs(fig6_allgather.run_cell),
    *_dataclass_codec(fig6_allgather.HeatmapCell), fig6_allgather.report))
_register(ScenarioSpec(
    "fig7", "Fig. 7 — NAS CG rank reordering (§6.5)",
    _fig7_cells, _kwargs(fig7_cg.run_one),
    *_dataclass_codec(fig7_cg.CGPoint), fig7_cg.report))
_register(ScenarioSpec(
    "table1", "Table 1 — TreeMatch computation time (§7)",
    _table1_cells, _table1_compute,
    *_dataclass_codec(table1_treematch.TreeMatchTiming),
    table1_treematch.report))
_register(ScenarioSpec(
    "whatif", "What-if placement search on recorded replay traces",
    _whatif_cells, _whatif_compute, _identity, _identity, _whatif_report))
_register(ScenarioSpec(
    "selftest", "executor self-test cells (hidden)",
    _selftest_cells, _selftest_compute, _identity, _identity,
    _selftest_report, hidden=True))


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown sweep scenario {name!r}; "
                       f"known: {', '.join(sorted(SCENARIOS))}") from None


def scenario_names(include_hidden: bool = False) -> List[str]:
    return [n for n, s in SCENARIOS.items() if include_hidden or not s.hidden]


def compute_cell(scenario: str, params: Dict[str, Any]) -> Any:
    """Compute one cell and return its *encoded* (JSON-able) payload.

    This is the function worker processes execute; it is importable at
    module top level so it survives any multiprocessing start method.
    """
    spec = get_scenario(scenario)
    return spec.encode(spec.compute(params))
