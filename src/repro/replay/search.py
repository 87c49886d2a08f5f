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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.replay.engine import (ReplayResult, _build_network, _replay_ready,
                                 replay, trace_byte_matrix)
from repro.replay.schema import ReplayTrace, params_from_json, topology_from_json

__all__ = ["STRATEGIES", "Candidate", "SearchResult", "score_candidate",
           "what_if_search"]

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
        m = self.best.makespan
        return self.recorded_makespan / m if m else float("inf")


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
    if strategy == "local":
        return baselines.local_search_placement(
            matrix, topology, allowed_pus=allowed_pus)
    raise ValueError(
        f"unknown search strategy {strategy!r}; have {STRATEGIES}")


def _generator_matrix(matrix, topology, recorded, focus):
    """The matrix the candidate *generators* see.

    With a focus (:mod:`repro.placement.focus`) the matrix-driven
    strategies optimize a re-weighted copy biased toward the diagnosed
    straggler ranks / congested link classes; scoring always uses the
    true matrix, so ranking stays honest.
    """
    if not focus:
        return matrix
    from repro.placement.focus import weighted_matrix

    return weighted_matrix(matrix, topology, recorded, focus)


def _substituted(trace: ReplayTrace,
                 substitute: Optional[Dict[str, str]]) -> Optional[ReplayTrace]:
    """The run every candidate of a substituted search is scored on
    (None: the recording itself).  It does not depend on the placement,
    so a search builds it — and, on its first replay, its book — once."""
    if not substitute:
        return None
    from repro.replay.patterns import apply_substitution

    return apply_substitution(trace, substitute)


def _score(trace: ReplayTrace, strategy: str, matrix, gen_matrix, topology,
           params, recorded, seed: int, substituted: Optional[ReplayTrace],
           replays: Dict[tuple, ReplayResult]) -> Candidate:
    """``replays`` memoises the replay per distinct placement: every
    replay rebuilds the network from the trace header with the recorded
    seed, so it is a pure function of the placement within one search
    (the paper's baseline binding *is* round-robin: ``identity`` and
    ``round_robin`` coincide on every rr-recorded trace)."""
    from repro.placement import metrics as pmetrics

    t0 = time.perf_counter()
    placement = _candidate_placement(strategy, gen_matrix, topology,
                                     recorded, seed)
    key = tuple(placement)
    res = replays.get(key)
    if res is None and substituted is None:
        res = replays[key] = replay(trace, binding=placement)
    elif res is None:
        res = replays[key] = _replay_ready(
            substituted, _build_network(substituted, placement))
    wall = time.perf_counter() - t0
    return Candidate(
        strategy=strategy,
        placement=list(placement),
        makespan=res.max_clock,
        hop_bytes=pmetrics.hop_bytes(matrix, topology, placement),
        inter_node_bytes=pmetrics.inter_node_bytes(
            matrix, topology, placement),
        modeled_cost=pmetrics.modeled_cost(
            matrix, topology, placement, params),
        wall_seconds=wall,
    )


def score_candidate(
    trace: ReplayTrace,
    strategy: str,
    seed: int = 0,
    substitute: Optional[Dict[str, str]] = None,
    focus=None,
) -> Candidate:
    """Score one placement strategy against a recorded trace.

    Candidates are independent — each replay rebuilds the network cost
    model from the trace header, so scoring a strategy alone yields the
    **bit-identical** Candidate that :func:`what_if_search` would have
    produced for it inside a full sweep.  This is the unit of work the
    ``repro.serve`` worker pool dispatches (and its result cache keys).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown search strategy {strategy!r}; "
                         f"have {STRATEGIES}")
    topology = topology_from_json(trace.topology)
    params = params_from_json(trace.params)
    recorded = list(trace.binding)
    matrix = trace_byte_matrix(trace)
    gen_matrix = _generator_matrix(matrix, topology, recorded, focus)
    return _score(trace, strategy, matrix, gen_matrix, topology, params,
                  recorded, seed, _substituted(trace, substitute), {})


def what_if_search(
    trace: ReplayTrace,
    strategies: Optional[Sequence[str]] = None,
    seed: int = 0,
    substitute: Optional[Dict[str, str]] = None,
    focus=None,
) -> SearchResult:
    """Score candidate placements for a recorded trace by replay.

    Returns a :class:`SearchResult` whose candidates are sorted by
    replayed makespan (ties broken by strategy-list order, so the
    cheaper-to-apply strategy wins an exact tie).  ``substitute``
    scores every placement on the run with those collectives
    re-decomposed, so "what if we *also* switched the bcast to chain"
    composes with the placement axis.  ``focus`` (a :class:`repro.placement.focus.Focus`
    from a diagnosis report) re-weights the matrix the candidate
    generators optimize; see :func:`_generator_matrix`.
    """
    from repro.placement.mapping import reorder_permutation

    names = list(strategies) if strategies is not None else list(STRATEGIES)
    if not names:
        raise ValueError(f"no search strategy given; have {STRATEGIES}")
    for s in names:
        if s not in STRATEGIES:
            raise ValueError(f"unknown search strategy {s!r}; "
                             f"have {STRATEGIES}")

    topology = topology_from_json(trace.topology)
    params = params_from_json(trace.params)
    recorded = list(trace.binding)
    # One pass over the columns builds both this matrix and the compiled
    # program every candidate replay reuses.
    matrix = trace_byte_matrix(trace)
    gen_matrix = _generator_matrix(matrix, topology, recorded, focus)
    reg = _obs.registry()
    rec = _obs.spans()

    candidates: List[Candidate] = []
    substituted = _substituted(trace, substitute)
    replays: Dict[tuple, ReplayResult] = {}
    for strategy in names:
        if rec is not None:
            rec.wall_begin(f"replay.search[{strategy}]")
        try:
            cand = _score(trace, strategy, matrix, gen_matrix, topology,
                          params, recorded, seed, substituted, replays)
        finally:
            if rec is not None:
                rec.wall_end()
        candidates.append(cand)
        reg.counter("replay_search_candidates_total",
                    strategy=strategy).inc()
        reg.gauge("replay_search_makespan_seconds",
                  strategy=strategy).set(cand.makespan)

    order = sorted(range(len(candidates)),
                   key=lambda i: (candidates[i].makespan, i))
    ranked = [candidates[i] for i in order]
    best = ranked[0]
    k = reorder_permutation(best.placement, recorded)
    recorded_makespan = max(trace.clocks) if trace.clocks else 0.0
    return SearchResult(
        candidates=ranked,
        recorded_makespan=recorded_makespan,
        k=k,
        meta={
            "strategies": names,
            "seed": int(seed),
            "substitute": dict(substitute) if substitute else None,
            "focus": focus.to_dict() if focus else None,
            "world_size": trace.world_size,
            "n_events": trace.n_events,
        },
    )
