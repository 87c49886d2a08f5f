"""What-if placement search over a recorded trace.

The paper's loop is *monitor once, then decide*: the introspection
matrix feeds TreeMatch, which produces a permutation the application
applies via ``MPI_Comm_split``.  A recorded replay trace lets that
decision run **offline**: candidate placements are scored by replaying
the same event stream through the network cost model under each
binding — milliseconds per candidate instead of re-running the live
simulation — and the winner is folded back into the live protocol as
the permutation ``k`` that :func:`repro.placement.reorder` expects.

Strategies (all consume the trace's aggregate byte matrix and the
recorded binding's PU set):

==========  ==============================================================
identity    the recorded binding, unchanged (the score to beat)
treematch   :func:`repro.placement.treematch.treematch`
round_robin the paper's RR baseline (deal ranks across nodes)
random      seeded uniform permutation of the allowed PUs
greedy      heaviest-edge-first adjacent packing
local       greedy start + pairwise-swap hill climbing on hop-bytes
==========  ==============================================================

Each candidate is scored by the replay makespan (the decision metric)
and by the static placement metrics (:mod:`repro.placement.metrics`),
so disagreements between the cost model and the static surrogates are
visible in the report.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.replay.engine import (ReplayResult, _build_network, _replay_ready,
                                 replay, trace_byte_matrix)
from repro.replay.schema import ReplayTrace, params_from_json, topology_from_json

__all__ = ["STRATEGIES", "Candidate", "SearchResult", "rank_candidates",
           "recorded_facts", "score_candidate", "speedup_of",
           "strategy_names", "what_if_search"]

STRATEGIES = ("identity", "treematch", "round_robin", "random", "greedy",
              "local")


@dataclass
class Candidate:
    """One scored placement."""

    strategy: str
    placement: List[int]  # placement[rank] = PU
    makespan: float  # replayed end-to-end virtual time (the decision metric)
    hop_bytes: float
    inter_node_bytes: float
    modeled_cost: float
    wall_seconds: float  # compute placement + replay, host time

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "placement": [int(p) for p in self.placement]}


def speedup_of(recorded_makespan: float, makespan: float) -> float:
    """How many times faster than the recording a candidate replays."""
    return recorded_makespan / makespan if makespan else float("inf")


@dataclass
class SearchResult:
    """All candidates (best first) plus the winning permutation."""

    candidates: List[Candidate]
    recorded_makespan: float
    k: np.ndarray  # new rank of each original rank, for comm.split
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def best(self) -> Candidate:
        return self.candidates[0]

    @property
    def speedup(self) -> float:
        return speedup_of(self.recorded_makespan, self.best.makespan)

    def to_dict(self) -> Dict[str, object]:
        """The answer document: what ``repro.replay search --json``
        writes, the ``whatif`` sweep cell stores and a served answer
        carries inside its envelope."""
        return {
            "recorded_makespan": self.recorded_makespan,
            "best": self.best.strategy,
            "speedup": self.speedup,
            "k": [int(v) for v in self.k],
            "candidates": [c.to_dict() for c in self.candidates],
            "meta": self.meta,
        }


def strategy_names(strategies: Optional[Sequence[str]]) -> List[str]:
    """The strategies a search scores (all of :data:`STRATEGIES` for
    None), refused with a ``ValueError`` if empty or unknown."""
    names = list(strategies) if strategies is not None else list(STRATEGIES)
    if not names:
        raise ValueError(f"no search strategy given; have {STRATEGIES}")
    for s in names:
        if s not in STRATEGIES:
            raise ValueError(f"unknown search strategy {s!r}; "
                             f"have {STRATEGIES}")
    return names


def recorded_facts(trace: ReplayTrace,
                   exact: Optional[ReplayResult] = None) -> Dict[str, object]:
    """What :func:`rank_candidates` needs of the recording: its
    binding, world size, event count, and its makespan as the exact
    replay ``exact`` (replayed here if not given) reads it from the
    ``F`` rows — the ``identity`` candidate's makespan, whatever the
    header's ``clocks`` say."""
    recorded = [int(pu) for pu in trace.binding]
    if exact is None:
        exact = replay(trace, binding=recorded)
    return {
        "binding": recorded,
        "recorded_makespan": exact.max_clock,
        "world_size": trace.world_size,
        "n_events": trace.n_events,
    }


def rank_candidates(candidates: Sequence[Candidate],
                    recorded: Dict[str, object], seed: int = 0,
                    substitute: Optional[Dict[str, str]] = None,
                    focus=None) -> SearchResult:
    """Rank scored candidates into the answer.

    ``candidates`` are in strategy-list order and ``recorded`` is the
    :func:`recorded_facts` of the trace they were scored on.  Best
    first by replayed makespan; the sort is stable, so an exact tie
    goes to the strategy listed first (the cheaper-to-apply one).  ``k``
    is the permutation that moves the recorded binding onto the best
    placement.
    """
    from repro.placement.mapping import reorder_permutation

    ranked = sorted(candidates, key=lambda c: c.makespan)
    return SearchResult(
        candidates=ranked,
        recorded_makespan=recorded["recorded_makespan"],
        k=reorder_permutation(ranked[0].placement, recorded["binding"]),
        meta={
            "strategies": [c.strategy for c in candidates],
            "seed": int(seed),
            "substitute": dict(substitute) if substitute else None,
            "focus": focus.to_dict() if focus else None,
            "world_size": recorded["world_size"],
            "n_events": recorded["n_events"],
        },
    )


def _candidate_placement(strategy: str, matrix, topology, allowed_pus,
                         seed: int) -> List[int]:
    from repro.placement import baselines
    from repro.placement.treematch import treematch

    if strategy == "identity":
        return list(allowed_pus)
    if strategy == "treematch":
        return treematch(matrix, topology, allowed_pus=allowed_pus)
    if strategy == "round_robin":
        return baselines.round_robin_placement(
            len(allowed_pus), topology, allowed_pus=allowed_pus)
    if strategy == "random":
        return baselines.random_placement(
            len(allowed_pus), topology, allowed_pus=allowed_pus, seed=seed)
    if strategy == "greedy":
        return baselines.greedy_edge_placement(
            matrix, topology, allowed_pus=allowed_pus)
    return baselines.local_search_placement(   # "local"; see strategy_names
        matrix, topology, allowed_pus=allowed_pus)


class _Search:
    """What every candidate of one search shares: the trace's topology,
    params and byte matrix, the generators' matrix, the substituted run
    and ``replays``, the replay per distinct placement.  Every replay
    rebuilds the network from the trace header with the recorded seed,
    so it is a pure function of the placement within one search (the
    paper's baseline binding *is* round-robin: ``identity`` and
    ``round_robin`` coincide on every rr-recorded trace)."""

    def __init__(self, trace: ReplayTrace,
                 substitute: Optional[Dict[str, str]], focus,
                 run: Optional[ReplayTrace] = None):
        self.trace = trace
        self.topology = topology_from_json(trace.topology)
        self.params = params_from_json(trace.params)
        self.recorded = list(trace.binding)
        # One pass over the columns builds both this matrix and the
        # compiled program every candidate replay reuses.
        self.matrix = self.gen_matrix = trace_byte_matrix(trace)
        if focus:
            # The matrix-driven generators optimize a copy biased toward
            # the diagnosed stragglers / congested link classes
            # (repro.placement.focus); scoring uses the true matrix, so
            # ranking stays honest.
            from repro.placement.focus import weighted_matrix

            self.gen_matrix = weighted_matrix(self.matrix, self.topology,
                                              self.recorded, focus)
        # The substituted run (None: the recording itself) does not
        # depend on the placement: built — and, on its first replay,
        # compiled — once per search, unless the caller holds it.
        self.substituted = run
        if substitute and run is None:
            from repro.replay.patterns import apply_substitution

            self.substituted = apply_substitution(trace, substitute)
        self.replays: Dict[tuple, ReplayResult] = {}

    def score(self, strategy: str, seed: int) -> Candidate:
        from repro.placement import metrics as pmetrics

        t0 = time.perf_counter()
        placement = _candidate_placement(strategy, self.gen_matrix,
                                         self.topology, self.recorded, seed)
        key = tuple(placement)
        res = self.replays.get(key)
        if res is None and self.substituted is None:
            res = self.replays[key] = replay(self.trace, binding=placement)
        elif res is None:
            res = self.replays[key] = _replay_ready(
                self.substituted, _build_network(self.substituted, placement))
        wall = time.perf_counter() - t0
        m, topo = self.matrix, self.topology
        return Candidate(
            strategy=strategy,
            placement=list(placement),
            makespan=res.max_clock,
            hop_bytes=pmetrics.hop_bytes(m, topo, placement),
            inter_node_bytes=pmetrics.inter_node_bytes(m, topo, placement),
            modeled_cost=pmetrics.modeled_cost(m, topo, placement,
                                               self.params),
            wall_seconds=wall,
        )


def score_candidate(
    trace: ReplayTrace,
    strategy: str,
    seed: int = 0,
    substitute: Optional[Dict[str, str]] = None,
    focus=None,
    run: Optional[ReplayTrace] = None,
) -> Candidate:
    """Score one placement strategy against a recorded trace.

    Candidates are independent — each replay rebuilds the network cost
    model from the trace header, so scoring a strategy alone yields the
    **bit-identical** Candidate that :func:`what_if_search` would have
    produced for it inside a full sweep.  This is the unit of work the
    ``repro.serve`` worker pool dispatches (and its result cache keys);
    :func:`rank_candidates` turns such candidates into the answer.
    ``run`` is ``apply_substitution(trace, substitute)`` when the caller
    already holds it (a serving worker keeps one per substitution), so
    ``trace`` needs only its book.
    """
    (strategy,) = strategy_names([strategy])
    return _Search(trace, substitute, focus, run).score(strategy, int(seed))


def what_if_search(
    trace: ReplayTrace,
    strategies: Optional[Sequence[str]] = None,
    seed: int = 0,
    substitute: Optional[Dict[str, str]] = None,
    focus=None,
) -> SearchResult:
    """Score candidate placements for a recorded trace by replay.

    Returns the :func:`rank_candidates` of the candidates: sorted by
    replayed makespan, ties broken by strategy-list order.  ``substitute``
    scores every placement on the run with those collectives
    re-decomposed, so "what if we *also* switched the bcast to chain"
    composes with the placement axis.  ``focus`` (a :class:`repro.placement.focus.Focus`
    from a diagnosis report) re-weights the matrix the candidate
    generators optimize; see :class:`_Search`.
    """
    names = strategy_names(strategies)
    search = _Search(trace, substitute, focus)
    # The recorded makespan is the exact replay's; unsubstituted, it is
    # also the identity candidate's replay.
    exact = replay(trace, binding=search.recorded)
    if search.substituted is None:
        search.replays[tuple(search.recorded)] = exact
    reg = _obs.registry()
    rec = _obs.spans()

    candidates: List[Candidate] = []
    for strategy in names:
        if rec is not None:
            rec.wall_begin(f"replay.search[{strategy}]")
        try:
            cand = search.score(strategy, int(seed))
        finally:
            if rec is not None:
                rec.wall_end()
        candidates.append(cand)
        reg.counter("replay_search_candidates_total",
                    strategy=strategy).inc()
        reg.gauge("replay_search_makespan_seconds",
                  strategy=strategy).set(cand.makespan)
    return rank_candidates(candidates, recorded_facts(trace, exact), seed,
                           substitute, focus)
