"""The ``advice`` workload: what a developer holding a recorded trace
does with the library — load it, search placements, score candidates,
try another collective algorithm — and whether the advice is right.

Set-up records three traces under ``autorecord.capture()``:

``big``    fig5 reduce, 2 nodes, default sizes, reps=10 (dumped to disk)
``small``  the same cell with reps=1
``fid``    a harness-owned program (reduce + bcast at 1 M and 5 M ints,
           2 nodes, no reorder phase) that can be re-run live under any
           placement, which makes replayed and live makespans comparable

One measured round is (a) trace file → ranked candidates and ``k``,
(b) a batch of ``random`` candidates scored on a resident compiled
trace, (c) one search with the reduce re-decomposed as ``binomial``.
The live engine does almost nothing here.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, List, Optional

from benchmarks.ledger.harness import (Ctx, Outcome, fhex, kendall_tau,
                                       rounds, timed)

SUBSTITUTE = {"reduce": "binomial"}
FIDELITY_STRATEGIES = ("treematch", "local", "greedy", "random")
#: Candidates scored per round in phase (b).
BATCH = 20


def _fid_program(comm):
    from repro.apps.microbench import co_collective_kernel

    for n_ints in (1_000_000, 5_000_000):
        for op in ("reduce", "bcast"):
            yield from co_collective_kernel(comm, op, n_ints)


class Advice:
    name = "advice"

    def imports(self) -> None:
        import repro.experiments.fig5_collectives  # noqa: F401
        import repro.obs.diagnose  # noqa: F401
        import repro.obs.timeline  # noqa: F401
        import repro.placement.baselines  # noqa: F401
        import repro.placement.treematch  # noqa: F401
        import repro.replay.engine  # noqa: F401
        import repro.replay.search  # noqa: F401

    # -- set-up -----------------------------------------------------------

    def _cell(self, ctx: Ctx, reps: int):
        from repro.experiments import fig5_collectives

        kwargs = {"sizes": (100_000, 200_000)} if ctx.quick else {}
        return fig5_collectives.run_cell("reduce", 2, reps=reps,
                                         seed=ctx.seed, **kwargs)

    def _record(self, ctx: Ctx, reps: int):
        from repro.replay import autorecord

        with autorecord.capture(meta={"workload": "ledger.advice",
                                      "reps": reps}) as traces:
            self._cell(ctx, reps)
        return traces[0]

    def setup(self, ctx: Ctx) -> None:
        from repro.replay import ReplayTrace, autorecord, compile_trace
        from repro.simmpi import Cluster, Engine

        self.big_reps = 2 if ctx.quick else 10
        self.big_path = os.path.join(ctx.tmpdir, "big.trace")
        self.record_s, self.big = timed(self._record, ctx, self.big_reps)
        self.big.dump(self.big_path)
        self.small = self._record(ctx, 1)
        with autorecord.capture(meta={"workload": "ledger.fid"}) as traces:
            Engine(Cluster.plafrim(2, binding="rr"),
                   seed=ctx.seed).run(_fid_program)
        self.fid = traces[0]
        self.resident = ReplayTrace.load(self.big_path)
        compile_trace(self.resident)
        self.next_seed = ctx.seed

    def teardown(self, ctx: Ctx, out: Optional[Outcome]) -> None:
        pass

    # -- measurement ------------------------------------------------------

    def _first_advice(self, ctx: Ctx):
        from repro.replay import ReplayTrace, what_if_search

        with ctx.spans.span("trace.load"):
            trace = ReplayTrace.load(self.big_path)
        with ctx.spans.span("search.what_if"):
            return what_if_search(trace, seed=ctx.seed)

    def _score_batch(self, ctx: Ctx, out: Outcome, batch: int) -> float:
        from repro.replay import score_candidate

        pus = sorted(self.resident.binding)

        def ok(cand) -> bool:
            return cand.makespan > 0.0 and sorted(cand.placement) == pus

        def score_all() -> None:
            for i in range(batch):
                out.guarded("score_candidate", score_candidate, self.resident,
                            "random", seed=self.next_seed + i, check=ok)

        with ctx.spans.span("search.score_batch"):
            wall, _ = timed(score_all)
        self.next_seed += batch
        return wall

    def _substituted(self, ctx: Ctx):
        from repro.replay import what_if_search

        with ctx.spans.span("search.substituted"):
            return what_if_search(self.small, seed=ctx.seed,
                                  substitute=SUBSTITUTE)

    def _round(self, ctx: Ctx, out: Outcome, batch: int,
               seen: Dict[str, Any]) -> Dict[str, float]:
        """One round; every search must repeat the first round's answer."""

        def repeats(key: str, res) -> bool:
            ranking = [(c.strategy, fhex(c.makespan)) for c in res.candidates]
            return len(ranking) == 6 and seen.setdefault(key, ranking) == ranking

        def first_ok(res) -> bool:
            identity = next(c for c in res.candidates
                            if c.strategy == "identity")
            return (repeats("first", res)
                    and sorted(int(v) for v in res.k)
                    == list(range(self.big.world_size))
                    # Identity replay is exact, to the last bit.
                    and identity.makespan == res.recorded_makespan)

        def subst_ok(res) -> bool:
            return repeats("subst", res) and \
                all(c.makespan > 0.0 for c in res.candidates)

        return {
            "first": timed(out.guarded, "what_if_search", self._first_advice,
                           ctx, check=first_ok)[0],
            "batch": self._score_batch(ctx, out, batch),
            "subst": timed(out.guarded, "substituted search",
                           self._substituted, ctx, check=subst_ok)[0],
        }

    def measure(self, ctx: Ctx, out: Outcome) -> None:
        from repro.replay import replay

        batch = 5 if ctx.quick else BATCH
        seen: Dict[str, Any] = {}
        walls: List[Dict[str, float]] = []
        rounds(ctx.measure_seconds,
               lambda _i: walls.append(self._round(ctx, out, batch, seen)),
               minimum=ctx.min_samples)
        rates = [batch / w["batch"] for w in walls]
        out.put("advice_first_s", [w["first"] for w in walls], pick=min)
        out.put("advice_cands_per_s", rates, pick=max)
        out.put("advice_subst_s", [w["subst"] for w in walls], pick=min)
        out.put("result_s", [w["first"] for w in walls], pick=min)
        out.put("ops_per_s", rates, pick=max)
        out.info["round_wall_s"] = [sum(w.values()) for w in walls]
        out.info["batch"] = batch
        out.info["events"] = {"big": len(self.big.events),
                              "small": len(self.small.events),
                              "fid": len(self.fid.events)}
        out.guarded("replay(big, verify=True)", replay, self.resident,
                    verify=True)
        self._fidelity(ctx, out)

    def _fidelity(self, ctx: Ctx, out: Outcome) -> None:
        """Replayed against live makespan, placement by placement: the
        live comparator runs the *same* program on the rebuilt cluster
        under the candidate's placement, nothing else."""
        from repro.replay import score_candidate
        from repro.replay.schema import build_cluster
        from repro.simmpi import Engine

        fid = self.fid

        def live(placement=None) -> float:
            engine = Engine(build_cluster(fid, placement), seed=fid.seed)
            engine.run(_fid_program)
            return engine.max_clock

        # Apples to apples: under the recorded binding the comparator must
        # reproduce the recording exactly.
        out.guarded("live re-run of fid under the recorded binding", live,
                    check=lambda t: t == max(fid.clocks))
        replayed, lived = [], []
        for strategy in FIDELITY_STRATEGIES:
            cand = out.guarded(f"score fid/{strategy}", score_candidate, fid,
                               strategy, seed=ctx.seed)
            if cand is None:
                continue
            t_live = out.guarded(f"live fid/{strategy}", live, cand.placement)
            if t_live is not None:
                replayed.append(cand.makespan)
                lived.append(t_live)
        if len(lived) != len(FIDELITY_STRATEGIES):
            return
        errs = [abs(r - t) / t for r, t in zip(replayed, lived)]
        out.put("replay_relerr", max(errs))
        out.put("search.rank_agreement", kendall_tau(replayed, lived))
        out.put("search.best_matches_live",
                float(replayed.index(min(replayed))
                      == lived.index(min(lived))))
        out.info["fidelity"] = {
            s: {"replayed": r, "live": t, "relerr": e}
            for s, r, t, e in zip(FIDELITY_STRATEGIES, replayed, lived, errs)}

    # -- the traced round and the per-layer probes -------------------------

    def trace(self, ctx: Ctx, out: Outcome) -> None:
        from repro.obs.diagnose import diagnose
        from repro.obs.timeline import Timeline
        from repro.placement import baselines
        from repro.placement.treematch import treematch
        from repro.replay import (ReplayTrace, compile_trace, replay,
                                  score_candidate)
        from repro.replay.engine import trace_byte_matrix
        from repro.replay.schema import topology_from_json

        batch = out.info["batch"]
        traced = self._round(ctx, out, batch, {})
        out.put("ledger.trace_overhead_ratio",
                sum(traced.values())
                / statistics.median(out.info["round_wall_s"]))

        # replay.record: the same cell with and without the recorder.
        plain_s, _ = timed(self._cell, ctx, self.big_reps)
        out.put("record.overhead_ratio", self.record_s / plain_s)
        out.put("record.events", len(self.big.events))

        # replay.schema: the trace file.
        path = os.path.join(ctx.tmpdir, "probe.trace")
        with ctx.spans.span("trace.dump"):
            out.put("trace.dump_s",
                    [timed(self.big.dump, path)[0] for _ in range(3)])
        loads = [timed(ReplayTrace.load, path) for _ in range(3)]
        out.put("trace.load_s", [t for t, _ in loads])
        out.put("trace.load_us_per_event",
                out.value("trace.load_s") / len(self.big.events) * 1e6)
        out.put("trace.file_mb", os.path.getsize(path) / 1e6)

        # replay.engine: compile once per fresh trace, then the three
        # replay paths, per wire message.
        compiles = [timed(compile_trace, trace) for _, trace in loads]
        book = compiles[0][1]
        out.put("replay.compile_s", [t for t, _ in compiles])
        out.put("replay.compile_us_per_event",
                out.value("replay.compile_s") / len(self.big.events) * 1e6)
        out.put("replay.book_mb", book.nbytes() / 1e6)
        trace = loads[0][1]
        moved = score_candidate(trace, "random", seed=ctx.seed).placement
        for name, target, kwargs in (
                ("compiled", trace, {"binding": moved}),
                ("exact", trace, {"verify": True}),
                ("derived", self.small, {"substitute": SUBSTITUTE})):
            with ctx.spans.span(f"replay.{name}"):
                runs = [timed(replay, target, **kwargs) for _ in range(3)]
            out.put(f"replay.{name}_us_per_msg",
                    [t / res.n_messages * 1e6 for t, res in runs])

        # placement + replay.search: generating a placement against
        # scoring it, on the trace's own 48-rank byte matrix.
        matrix = trace_byte_matrix(trace)
        topology = topology_from_json(trace.topology)
        pus = list(trace.binding)
        generators = {
            "treematch": lambda: treematch(matrix, topology, allowed_pus=pus),
            "local": lambda: baselines.local_search_placement(
                matrix, topology, allowed_pus=pus),
            "greedy": lambda: baselines.greedy_edge_placement(
                matrix, topology, allowed_pus=pus),
            "random": lambda: baselines.random_placement(
                len(pus), topology, allowed_pus=pus, seed=ctx.seed),
        }
        for strategy, generate in generators.items():
            with ctx.spans.span(f"placement.{strategy}"):
                gen_s = statistics.median(
                    timed(generate)[0] for _ in range(3))
            score_s = statistics.median(
                score_candidate(trace, strategy, seed=ctx.seed).wall_seconds
                for _ in range(3))
            out.put(f"search.generate_share.{strategy}", gen_s / score_s)
            if strategy == "local":
                out.put("placement.local_search_s.n48", gen_s)
            elif strategy == "greedy":
                out.put("placement.greedy_s.n48", gen_s)

        # obs: the analysis passes over the recorded trace.
        with ctx.spans.span("obs.timeline"):
            build_s, timeline = timed(Timeline.from_trace, trace)
        out.put("obs.timeline_build_s", build_s)
        with ctx.spans.span("obs.diagnose"):
            out.put("obs.diagnose_s", timed(diagnose, timeline)[0])


WORKLOADS = (Advice(),)
