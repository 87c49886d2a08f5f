"""Scenario registry: the paper's evaluation grid as pure, picklable cells.

Each scenario (one per paper figure/table) decomposes its parameter
grid into *cells* — the smallest independently computable unit, always
a pure function of a plain-dict parameter set.  A cell is computed by a
worker process, serialized to canonical JSON for the cache, and decoded
back into the experiment module's dataclasses for report rendering, so
``python -m repro.sweep`` and the serial drivers share one source of
truth for grids, defaults and report formats.

Cell granularity per scenario:

========  ==========================================================
fig2      one cell (single two-rank engine run)
fig4      one cell per (node count, message size) — one Welch CI each
fig5      one cell per (op, node count) — the buffer sweep shares one
          monitored reordering, so it cannot split further
fig6      one cell per (nodes, buffer size, iterations), cold engine
fig7      one cell per (class, NP, mapping) — ``fig7_cg.run_one``
table1    one cell per matrix order (real wall-clock timing)
whatif    one cell per (op, node count) — record a fig5 cell, then
          search candidate placements offline via repro.replay
selftest  hidden micro-scenario used by executor tests and CI chaos
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SweepConfig", "ScenarioSpec", "SCENARIOS", "get_scenario",
           "scenario_names", "compute_cell", "cell_id"]


@dataclass(frozen=True)
class SweepConfig:
    """Knobs that shape grid enumeration (not cell execution)."""

    seed: Optional[int] = None  # None: each scenario's own default
    sizes: Optional[Tuple[int, ...]] = None  # override the size axis
    smoke: bool = False  # tiny CI grids


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


# ---------------------------------------------------------------- fig2


def _fig2_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments.common import full_scale

    if cfg.smoke:
        duration = 1.5
    else:
        duration = 45.0 if full_scale() else 10.0
    seed = 42 if cfg.seed is None else cfg.seed
    params: Dict[str, Any] = {"duration": duration, "seed": seed}
    if cfg.sizes is not None and len(cfg.sizes) == 2:
        params["size_range"] = list(cfg.sizes)
    return [params]


def _fig2_compute(params: Dict[str, Any]):
    from repro.experiments import fig2_counters

    size_range = tuple(params.get("size_range",
                                  fig2_counters.DEFAULT_SIZE_RANGE))
    return fig2_counters.run(duration=params["duration"],
                             seed=params["seed"], size_range=size_range)


def _fig2_encode(res) -> Dict[str, Any]:
    return {
        "times": [float(t) for t in res.times],
        "hw_window": [int(v) for v in res.hw_window],
        "mon_window": [int(v) for v in res.mon_window],
        "total_sent": int(res.total_sent),
    }


def _fig2_decode(doc):
    import numpy as np

    from repro.experiments.fig2_counters import CounterComparison

    return CounterComparison(
        times=np.asarray(doc["times"], dtype=float),
        hw_window=np.asarray(doc["hw_window"], dtype=np.int64),
        mon_window=np.asarray(doc["mon_window"], dtype=np.int64),
        total_sent=int(doc["total_sent"]),
    )


def _fig2_report(results: List[Any]) -> str:
    from repro.experiments import fig2_counters

    return "\n\n".join(fig2_counters.report(r) for r in results)


# ---------------------------------------------------------------- fig4


def _fig4_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import fig4_overhead
    from repro.experiments.common import full_scale

    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        nodes, sizes, reps = (2,), (1, 1_000), 10
    else:
        nodes = (2, 4, 8)
        sizes = cfg.sizes or fig4_overhead.DEFAULT_SIZES
        reps = 180 if full_scale() else 40
    return [
        {"n_nodes": n, "size_bytes": s, "reps": reps, "seed": seed}
        for n in nodes for s in sizes
    ]


def _fig4_compute(params: Dict[str, Any]):
    from repro.experiments import fig4_overhead

    return fig4_overhead.run_point(
        params["n_nodes"], params["size_bytes"], reps=params["reps"],
        seed=params["seed"],
    )


def _fig4_encode(p) -> Dict[str, Any]:
    return {
        "np_ranks": int(p.np_ranks),
        "size_bytes": int(p.size_bytes),
        "mean_diff_us": float(p.mean_diff_us),
        "ci95_us": float(p.ci95_us),
        "n_reps": int(p.n_reps),
    }


def _fig4_decode(doc):
    from repro.experiments.fig4_overhead import OverheadPoint

    return OverheadPoint(**doc)


def _fig4_report(results: List[Any]) -> str:
    from repro.experiments import fig4_overhead

    return fig4_overhead.report(results)


# ---------------------------------------------------------------- fig5


def _fig5_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import fig5_collectives
    from repro.experiments.common import full_scale

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


def _fig5_compute(params: Dict[str, Any]):
    from repro.experiments import fig5_collectives

    return fig5_collectives.run_cell(
        params["op"], params["n_nodes"], sizes=tuple(params["sizes"]),
        reps=params["reps"], seed=params["seed"],
    )


def _fig5_encode(points) -> List[Dict[str, Any]]:
    return [
        {"op": p.op, "np_ranks": int(p.np_ranks), "n_ints": int(p.n_ints),
         "t_baseline": float(p.t_baseline),
         "t_reordered": float(p.t_reordered)}
        for p in points
    ]


def _fig5_decode(doc):
    from repro.experiments.fig5_collectives import CollectivePoint

    return [CollectivePoint(**d) for d in doc]


def _fig5_report(results: List[Any]) -> str:
    from repro.experiments import fig5_collectives

    points = [p for cell in results for p in cell]
    out = []
    for op in ("reduce", "bcast"):
        sub = [p for p in points if p.op == op]
        if sub:
            out.append(fig5_collectives.report(sub))
    return "\n\n".join(out)


# ---------------------------------------------------------------- fig6


def _fig6_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import fig6_allgather
    from repro.experiments.common import full_scale

    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        nodes: Tuple[int, ...] = (2,)
        sizes: Sequence[int] = (1, 100_000)
        iters: Sequence[int] = (1, 100)
    elif full_scale():
        nodes = (2, 4, 8)
        sizes = cfg.sizes or fig6_allgather.FULL_SIZES
        iters = fig6_allgather.FULL_ITERS
    else:
        nodes = (2,)
        sizes = cfg.sizes or fig6_allgather.DEFAULT_SIZES
        iters = fig6_allgather.DEFAULT_ITERS
    return [
        {"n_nodes": n, "n_ints": s, "iterations": it, "group_size": 8,
         "seed": seed}
        for n in nodes for s in sizes for it in iters
    ]


def _fig6_compute(params: Dict[str, Any]):
    from repro.experiments import fig6_allgather

    return fig6_allgather.run_cell(
        params["n_nodes"], params["n_ints"], params["iterations"],
        group_size=params["group_size"], seed=params["seed"],
    )


def _fig6_encode(c) -> Dict[str, Any]:
    return {
        "np_ranks": int(c.np_ranks), "n_ints": int(c.n_ints),
        "iterations": int(c.iterations), "t1": float(c.t1),
        "t2": float(c.t2), "t3": float(c.t3),
        "gain_percent": float(c.gain_percent),
    }


def _fig6_decode(doc):
    from repro.experiments.fig6_allgather import HeatmapCell

    return HeatmapCell(**doc)


def _fig6_report(results: List[Any]) -> str:
    from repro.experiments import fig6_allgather

    return fig6_allgather.report(results)


# ---------------------------------------------------------------- fig7


def _fig7_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import fig7_cg

    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        grid = [("B", 64)]
        mappings: Sequence[str] = ("rr",)
        sim_iters = 1
    else:
        rank_counts = cfg.sizes or None
        grid = fig7_cg.default_grid(rank_counts=rank_counts)
        mappings = fig7_cg.MAPPINGS
        sim_iters = 2
    return [
        {"cg_class": c, "np_ranks": p, "mapping": m, "sim_iters": sim_iters,
         "seed": seed}
        for c, p in grid for m in mappings
    ]


def _fig7_compute(params: Dict[str, Any]):
    from repro.experiments import fig7_cg

    return fig7_cg.run_one(
        params["cg_class"], params["np_ranks"], params["mapping"],
        sim_iters=params["sim_iters"], seed=params["seed"],
    )


def _fig7_encode(p) -> Dict[str, Any]:
    return {
        "cg_class": p.cg_class, "np_ranks": int(p.np_ranks),
        "mapping": p.mapping, "t_base": float(p.t_base),
        "t_reordered": float(p.t_reordered),
        "comm_base": float(p.comm_base),
        "comm_reordered": float(p.comm_reordered),
    }


def _fig7_decode(doc):
    from repro.experiments.fig7_cg import CGPoint

    return CGPoint(**doc)


def _fig7_report(results: List[Any]) -> str:
    from repro.experiments import fig7_cg

    return fig7_cg.report(results)


# -------------------------------------------------------------- table1


def _table1_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import table1_treematch
    from repro.experiments.common import full_scale

    seed = 0 if cfg.seed is None else cfg.seed
    if cfg.smoke:
        sizes: Sequence[int] = (256, 512)
    else:
        sizes = cfg.sizes or (table1_treematch.FULL_SIZES if full_scale()
                              else table1_treematch.DEFAULT_SIZES)
    return [{"order": n, "seed": seed} for n in sizes]


def _table1_compute(params: Dict[str, Any]):
    from repro.experiments import table1_treematch

    return table1_treematch.run_order(params["order"], seed=params["seed"])


def _table1_encode(t) -> Dict[str, Any]:
    return {"order": int(t.order), "seconds": float(t.seconds)}


def _table1_decode(doc):
    from repro.experiments.table1_treematch import TreeMatchTiming

    return TreeMatchTiming(**doc)


def _table1_report(results: List[Any]) -> str:
    from repro.experiments import table1_treematch

    return table1_treematch.report(results)


# -------------------------------------------------------------- whatif


def _whatif_cells(cfg: SweepConfig) -> List[Dict[str, Any]]:
    from repro.experiments import fig5_collectives

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
    from repro.experiments import fig5_collectives
    from repro.replay import autorecord
    from repro.replay.search import what_if_search

    with autorecord.capture(meta={"workload": "fig5"}) as traces:
        fig5_collectives.run_cell(
            params["op"], params["n_nodes"], sizes=tuple(params["sizes"]),
            reps=params["reps"], seed=params["seed"])
    trace = traces[0]
    res = what_if_search(trace, strategies=params["strategies"],
                         seed=params["seed"])
    return {
        "op": params["op"],
        "np_ranks": trace.world_size,
        "n_events": trace.n_events,
        "recorded_makespan": res.recorded_makespan,
        "best": res.best.strategy,
        "speedup": res.speedup,
        "k": [int(v) for v in res.k],
        "candidates": [
            {"strategy": c.strategy, "makespan": c.makespan,
             "inter_node_bytes": c.inter_node_bytes}
            for c in res.candidates
        ],
    }


def _whatif_report(results: List[Any]) -> str:
    from repro.experiments.common import render_table

    rows = []
    for r in results:
        for c in r["candidates"]:
            rows.append((
                r["op"], r["np_ranks"], c["strategy"],
                round(c["makespan"], 6),
                round(r["recorded_makespan"] / c["makespan"], 3)
                if c["makespan"] else "inf",
                int(c["inter_node_bytes"]),
            ))
    best = "; ".join(
        f"{r['op']}/np{r['np_ranks']}: {r['best']} ({r['speedup']:.2f}x)"
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
    from repro.experiments.common import render_table

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
    _fig2_cells, _fig2_compute, _fig2_encode, _fig2_decode, _fig2_report))
_register(ScenarioSpec(
    "fig4", "Fig. 4 — monitoring overhead on MPI_Reduce (§6.2)",
    _fig4_cells, _fig4_compute, _fig4_encode, _fig4_decode, _fig4_report))
_register(ScenarioSpec(
    "fig5", "Fig. 5 — collective optimization by rank reordering (§6.3)",
    _fig5_cells, _fig5_compute, _fig5_encode, _fig5_decode, _fig5_report))
_register(ScenarioSpec(
    "fig6", "Fig. 6 — reordering-gain heatmap, grouped allgathers (§6.4)",
    _fig6_cells, _fig6_compute, _fig6_encode, _fig6_decode, _fig6_report))
_register(ScenarioSpec(
    "fig7", "Fig. 7 — NAS CG rank reordering (§6.5)",
    _fig7_cells, _fig7_compute, _fig7_encode, _fig7_decode, _fig7_report))
_register(ScenarioSpec(
    "table1", "Table 1 — TreeMatch computation time (§7)",
    _table1_cells, _table1_compute, _table1_encode, _table1_decode,
    _table1_report))
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
