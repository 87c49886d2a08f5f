"""The three live-simulation workloads and their per-layer ledger.

``sim_coll``   large segmented tree collectives, thread-per-rank core.
``sim_p2p``    NAS CG point-to-point exchanges with reordering.
``sim_scale``  thousands of coroutine ranks, tiny messages, event loop.

A *pass* runs each of the workload's cells once; the reported wall is
the sum over the pass's cells, and the median over passes is
``sim_wall_s``.  A cell is one operation: it fails if it raises or its
returned points differ from ``expected.json`` (seed 0) or from the
first pass (any other seed), so a speed-up that changes a simulated
statistic is a failure, not a gain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger import probes
from benchmarks.ledger.harness import (HERE, SRC, Ctx, Outcome, digest,
                                       engine_core_kwargs, fhex, rounds,
                                       timed)

class SimWorkload:
    """One simulation workload: its cells and how to run one of them."""

    name = ""
    core = "threads"
    #: True when every message is born in a collective, so messages per
    #: rank-0 collective call is the decomposition fan-out.
    collectives_only = False
    #: False when the cell builds its engines itself and cannot be handed
    #: the harness's; ``build`` then only mirrors it for ``engine.build_s``.
    injects_engines = True

    def cells(self, ctx: Ctx) -> Sequence[Any]:
        raise NotImplementedError

    def build(self, ctx: Ctx, cell) -> List[Any]:
        """The engines one cell runs on, built the way the cell builds them."""
        raise NotImplementedError

    def run_cell(self, ctx: Ctx, cell, engines: Optional[List[Any]]):
        """Run one cell (on ``engines`` if given); returns its result digest."""
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------

    def imports(self) -> None:
        import repro.experiments.fig5_collectives  # noqa: F401
        import repro.experiments.fig7_cg  # noqa: F401
        import repro.placement.treematch  # noqa: F401

    def setup(self, ctx: Ctx) -> None:
        """Warm the lazy paths (first TreeMatch, first split) on a tiny
        world so the first measured pass is like the others."""
        from repro.experiments import fig5_collectives

        fig5_collectives.run_cell("reduce", 1, sizes=(1000,), reps=1,
                                  seed=ctx.seed)

    def teardown(self, ctx: Ctx, out: Optional[Outcome]) -> None:
        pass

    # -- measurement ------------------------------------------------------

    def measure(self, ctx: Ctx, out: Outcome) -> None:
        cells = list(self.cells(ctx))
        expected = _expected(ctx)
        first: Dict[str, str] = {}
        walls: List[float] = []
        cell_walls: Dict[str, List[float]] = {str(c): [] for c in cells}

        def one_pass(_i: int) -> None:
            total = 0.0
            for cell in cells:
                key = f"{self.name}/{cell}"
                try:
                    wall, got = timed(self.run_cell, ctx, cell, None)
                except Exception as exc:
                    out.op(False, f"{key}: {type(exc).__name__}: {exc}")
                    continue
                total += wall
                cell_walls[str(cell)].append(wall)
                want = expected.get(key, first.setdefault(key, got))
                out.op(got == want, f"{key}: digest {got[:12]} != {want[:12]}")
            walls.append(total)

        rounds(ctx.measure_seconds, one_pass, minimum=ctx.min_samples)
        # The reported pass is assembled from each cell's least disturbed
        # run; the passes as they happened are the samples beside it.
        best = sum(min(v) for v in cell_walls.values() if v)
        out.put("sim_wall_s", walls, pick=lambda _: best)
        out.put("result_s", walls, pick=lambda _: best)
        out.put("ops_per_s", [len(cells) / w for w in walls],
                pick=lambda _: len(cells) / best)
        out.info["cells"] = [str(c) for c in cells]
        out.info["digests"] = first
        out.info["cell_wall_s"] = {k: min(v) for k, v in cell_walls.items() if v}

    # -- the traced pass and the ledger -----------------------------------

    def trace(self, ctx: Ctx, out: Outcome) -> None:
        """The same cells once more with ``repro.obs`` on, for exact
        counts; then probe × count gives each layer's share of the wall."""
        from repro import obs

        cells = list(self.cells(ctx))
        expected = {**out.info["digests"], **_expected(ctx)}
        build_s = traced_wall = 0.0
        engines_by_cell: Dict[Any, List[Any]] = {}
        registry, obs_spans = obs.enable()
        try:
            for cell in cells:
                with ctx.spans.span(f"build[{cell}]"):
                    secs, engines = timed(self.build, ctx, cell)
                build_s += secs
                # The untraced wall includes the cell building its engines.
                traced_wall += secs if self.injects_engines else 0.0
                with ctx.spans.span(f"cell[{cell}]"):
                    wall, got = timed(
                        self.run_cell, ctx, cell,
                        engines if self.injects_engines else None)
                traced_wall += wall
                engines_by_cell[cell] = engines
                # Tracing must observe, not change: same digest as untraced.
                out.op(got == expected[f"{self.name}/{cell}"],
                       f"{self.name}/{cell}: traced digest differs")
        finally:
            obs.disable()
        counters = registry.snapshot()["counters"]
        wall = out.value("sim_wall_s")
        switches = counters["repro_engine_context_switches_total"]
        messages = counters["repro_engine_messages_total"]
        cross = counters.get("repro_net_link_messages_total{link=cluster}", 0)
        recorded = sum(v for k, v in counters.items()
                       if k.startswith("repro_pml_recorded_messages_total"))
        out.put("engine.switches", switches)
        out.put("engine.messages", messages)
        out.put("pml.recorded_msgs", recorded)
        out.put("engine.build_s", build_s)
        out.put("engine.us_per_msg", wall / messages * 1e6)
        out.put("ledger.trace_overhead_ratio", traced_wall / wall)
        if self.collectives_only:
            # Rank 0's lane has one span per collective call; the dotted
            # names are the reorder phases.
            calls = sum(1 for lane, name, *_ in obs_spans.finished
                        if lane == 0 and "." not in name)
            out.put("collectives.msgs_per_call", messages / calls)

        # Unit costs, out of situ, on a world shaped like the largest cell.
        shape = engines_by_cell[cells[-1]][0].cluster
        scale = 0.1 if ctx.quick else 1.0
        unit_switch = probes.switch_us(self.core, int(20_000 * scale))
        unit_match = probes.match_us(int(40_000 * scale))
        unit_transfer = probes.transfer_us(shape, int(40_000 * scale))
        # Recording costs the same whatever the world size, and a probe
        # monitor for 4096 ranks would allocate 4096² counters to find out.
        unit_pml = probes.pml_us(min(shape.n_ranks, 256), int(40_000 * scale))
        out.put(f"engine.switch_us.{self.core}", unit_switch)
        out.put("match.post_deliver_us", unit_match)
        out.put("network.transfer_us.intra", unit_transfer["intra"])
        out.put("network.transfer_us.cross", unit_transfer["cross"])
        out.put("pml.record_us", unit_pml["record"])
        out.put("pml.flush_us", unit_pml["flush"])

        micro = 1e-6 / wall
        shares = {
            "engine.switch_share": switches * unit_switch * micro,
            "match.share": messages * unit_match * micro,
            "network.transfer_share":
                ((messages - cross) * unit_transfer["intra"]
                 + cross * unit_transfer["cross"]) * micro,
            "pml.share": (recorded * unit_pml["record"]
                          + (messages - recorded) * unit_pml["gate"]) * micro,
        }
        for name, share in shares.items():
            out.put(name, share)
        # Deliberately not clipped at 0: a negative rest says the probes
        # overcharge, which is a finding about the method.
        out.put("sim.unattributed_share", 1.0 - sum(shares.values()))
        self.trace_extra(ctx, out, engines_by_cell, traced_wall)

    def trace_extra(self, ctx: Ctx, out: Outcome, engines_by_cell,
                    traced_wall: float) -> None:
        """Probes only this workload has."""


def _expected(ctx: Ctx) -> Dict[str, str]:
    """Committed digests, for the seed they were recorded with."""
    if ctx.quick:
        return {}
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["cells"] if doc["seed"] == ctx.seed else {}


# ---------------------------------------------------------------------------
# sim_coll


class SimColl(SimWorkload):
    name = "sim_coll"
    collectives_only = True

    def cells(self, ctx):
        if ctx.quick:
            return [("reduce", 2), ("bcast", 2), ("reduce", 4)]
        return [(op, n) for n in (4, 8) for op in ("reduce", "bcast")]

    def _kwargs(self, ctx) -> Dict[str, Any]:
        # Reported numbers use the defaults the sweep registry uses.
        return {"sizes": (100_000,), "reps": 1} if ctx.quick else {}

    def build(self, ctx, cell):
        from repro.simmpi import Cluster, Engine

        return [Engine(Cluster.plafrim(cell[1], binding="rr"), seed=ctx.seed,
                       **engine_core_kwargs(self.core))]

    def run_cell(self, ctx, cell, engines):
        from repro.experiments import fig5_collectives

        op, n_nodes = cell
        points = fig5_collectives.run_cell(
            op, n_nodes, seed=ctx.seed,
            engine=engines[0] if engines else None, **self._kwargs(ctx))
        return digest([(p.op, p.np_ranks, p.n_ints, fhex(p.t_baseline),
                        fhex(p.t_reordered)) for p in points])

    def trace_extra(self, ctx, out, engines_by_cell, traced_wall):
        from repro.placement.treematch import treematch

        out.put("obs.enabled_overhead_ratio",
                traced_wall / out.value("sim_wall_s"))
        # TreeMatch on the byte matrix the reduce cells monitored: 96 and
        # 192 ranks (--quick keeps the names on smaller worlds).
        reduces = [e[0] for (op, _n), e in engines_by_cell.items()
                   if op == "reduce"]
        for label, engine in zip(("n96", "n192"), reduces):
            matrix = engine.pml.sizes["coll"]
            with ctx.spans.span(f"placement.treematch[{label}]"):
                secs = [timed(treematch, matrix, engine.cluster.topology)[0]
                        for _ in range(3)]
            out.put(f"placement.treematch_s.{label}", secs)
        self._sweep(ctx, out)

    def _sweep(self, ctx, out) -> None:
        """What the sweep layer adds around the cells it runs: process
        start, registry, pool, cache writes; then a fully cached rerun."""
        cache = os.path.join(ctx.tmpdir, "sweep-cache")
        report = os.path.join(ctx.tmpdir, "sweep-report.json")
        env = dict(os.environ, REPRO_SWEEP_CACHE=cache,
                   PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "repro.sweep", "run", "--filter",
               "^fig5$", "--jobs", "1", "--seed", str(ctx.seed), "--quiet",
               "--cache-dir", cache, "--report", report]
        # One buffer size per cell: the overhead does not depend on how
        # long a cell computes, and the traced run has a time budget.
        cmd += ["--smoke"] if ctx.quick else ["--sizes", "1000000"]

        def run() -> float:
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, cwd=ctx.tmpdir,
                           stdout=subprocess.DEVNULL)
            return time.perf_counter() - t0

        with ctx.spans.span("sweep.run"):
            wall = out.guarded("sweep run", run)
        if wall is None:
            return
        with open(report, encoding="utf-8") as fh:
            computed = sum(c["elapsed_s"] for c in json.load(fh)["cells"])
        out.put("sweep.overhead_s", wall - computed)
        with ctx.spans.span("sweep.rerun"):
            rerun = out.guarded("sweep cached rerun", run)
        if rerun is not None:
            out.put("sweep.cached_rerun_s", rerun)


# ---------------------------------------------------------------------------
# sim_p2p


class SimP2P(SimWorkload):
    name = "sim_p2p"
    injects_engines = False

    def cells(self, ctx):
        if ctx.quick:
            return [("S", 32, "rr")]
        return [("B", 64, mapping) for mapping in ("rr", "random", "standard")]

    def build(self, ctx, cell):
        """``run_one`` builds its two engines itself; this mirrors it so
        ``engine.build_s`` and the probes see the same worlds."""
        from repro.experiments.fig7_cg import nodes_for
        from repro.simmpi import Cluster, Engine

        _cls, np_ranks, mapping = cell
        binding = {"random": "random", "rr": "round_robin",
                   "standard": "packed"}[mapping]
        return [Engine(Cluster.plafrim(nodes_for(np_ranks), n_ranks=np_ranks,
                                       binding=binding, seed=ctx.seed),
                       seed=ctx.seed) for _ in range(2)]

    def run_cell(self, ctx, cell, engines):
        from repro.experiments import fig7_cg

        p = fig7_cg.run_one(*cell, seed=ctx.seed)
        return digest([p.cg_class, p.np_ranks, p.mapping, fhex(p.t_base),
                       fhex(p.t_reordered), fhex(p.comm_base),
                       fhex(p.comm_reordered)])


# ---------------------------------------------------------------------------
# sim_scale


def _scale_program(comm):
    import numpy as np

    from repro.simmpi import SUM

    yield from comm.co_barrier()
    total = yield from comm.co_allreduce(np.float64(comm.rank), SUM)
    yield from comm.co_barrier()
    return float(total)


class SimScale(SimWorkload):
    name = "sim_scale"
    core = "eventloop"
    collectives_only = True

    def cells(self, ctx):
        return (64, 128) if ctx.quick else (2048, 4096)

    def build(self, ctx, cell):
        from repro.simmpi import Cluster, Engine

        cluster = Cluster.plafrim(-(-cell // 24), n_ranks=cell, binding="rr")
        return [Engine(cluster, seed=ctx.seed,
                       **engine_core_kwargs(self.core))]

    def run_cell(self, ctx, cell, engines):
        engine = (engines or self.build(ctx, cell))[0]
        sums = engine.run(_scale_program)
        if sums[0] != cell * (cell - 1) / 2.0:
            raise AssertionError(f"allreduce gave {sums[0]} on {cell} ranks")
        return digest([engine.messages, engine.switches,
                       fhex(engine.max_clock)])

    def trace_extra(self, ctx, out, engines_by_cell, traced_wall):
        # 4096 ranks, or the largest --quick world under the same name.
        n = max(self.cells(ctx))
        with ctx.spans.span(f"network.route_build[n{n}]"):
            out.put("network.route_build_s.n4096", probes.route_build_s(n))


WORKLOADS: Tuple[SimWorkload, ...] = (SimColl(), SimP2P(), SimScale())
