"""Replay a recorded event stream through the network cost model.

One book, two schedulers.  A trace compiles once (:func:`_compile_trace`)
into op columns, a table of *cost classes* — who to whom, how many
bytes, monitored or not: a thousand for sixty thousand messages — and
the placement-invariant byte matrices.  Each replay prices the classes
under its placement in one vectorised pass (:func:`_cost_rows`, the
terms of :meth:`Network.transfer` with the same float expressions) and
draws jitter from the network's own stream; what differs is the order
in which messages claim the shared state (jitter stream, NIC and
memory-bandwidth windows):

**Recorded order** (:func:`_replay_in_order`; every replay without a
substitution).  Events execute in the order the live engine's transfers
claimed the network.  Replaying the recorded configuration verbatim is
therefore *bit-exact*: per-pair byte matrices and every per-rank
virtual clock match the live run to the last ulp.  Since such a walk
issues each rank's finish at its recorded time, an exact replay reads
the recording instead of walking it — each rank's clock is its
finish's ``t``, kept in the book — and only ``verify`` walks, to audit
the timing model against the recording.  Under a different
placement/topology/parameters the same global order is kept (it is a
valid dependency order of the program) while issue times are
re-derived from the recorded per-rank computation gaps — a
deterministic, documented approximation: the live engine would claim
resources in the new (clock, rank) order, replay claims them in the
recorded order.  ``tests/replay/reference.py`` is the per-message
interpreter it is pinned to.

**Ready set** (:func:`_replay_ready`; substituted runs, which have no
recorded order).  Each rank's events are consumed in program order,
a receive completes once its message has been injected, and among the
ranks parked on an injection the earliest ``(issue time, rank)`` goes
next — the live scheduler's rule.  Exact about the *schedule* wherever
no two ready injections tie in issue time: under the recorded binding
it reproduces the recorded clocks bit for bit, and re-placed it equals
a live re-run of the program on every rank for blocking collectives
and point-to-point traffic (``tests/replay/live.py``; the known gaps
are ROADMAP item 1b).

Timing rules mirror the engine's hook sites one-to-one:

======  ==============================================================
event   clock update (``tt`` = issue time; an exact walk uses the
        recorded absolute ``t``, otherwise ``last[r] + gap``)
======  ==============================================================
S       ``tt += ovh`` if monitored; ``last[r] = transfer(...)[0]``
R       ``last[r] = max(tt, arrival[seq]) + recv_overhead``
P       like S (one-sided put; no arrival consumed)
G       request flies ``tt + latency``; data returns target→origin;
        ``last[r] = max(tt, arrival) + recv_overhead``
F       ``last[r] = tt`` (end-of-program compute tail)
======  ==============================================================
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.replay.schema import (
    K_B,
    K_F,
    K_G,
    K_P,
    K_R,
    K_S,
    ReplayTrace,
    params_from_json,
    topology_from_json,
)
from repro.simmpi.pml_monitoring import CATEGORIES

__all__ = ["ReplayError", "ReplayVerifyError", "ReplayResult",
           "CompiledTrace", "compile_trace", "replay", "trace_byte_matrix"]


class ReplayError(RuntimeError):
    """Replay could not make progress (corrupt or inconsistent trace)."""


class ReplayVerifyError(ReplayError):
    """Exact-mode verification found a clock divergence."""


@dataclass
class ReplayResult:
    """Outcome of one replay pass.

    ``counts``/``sizes`` reproduce the monitoring component's matrices
    (what the live run's PML layer charged, post mode-remapping);
    ``total_counts``/``total_sizes`` book *every* wire message by raw
    category — the aggregate placement search scores.
    """

    clocks: List[float]
    counts: Dict[str, np.ndarray]
    sizes: Dict[str, np.ndarray]
    total_counts: Dict[str, np.ndarray]
    total_sizes: Dict[str, np.ndarray]
    n_messages: int
    exact: bool

    @property
    def max_clock(self) -> float:
        return max(self.clocks) if self.clocks else 0.0

    def byte_matrix(self, monitored_only: bool = False) -> np.ndarray:
        src = self.sizes if monitored_only else self.total_sizes
        out = np.zeros_like(next(iter(src.values())))
        for mat in src.values():
            out += mat
        return out


def _build_network(trace: ReplayTrace, binding, topology=None, params=None,
                   seed=None):
    from repro.simmpi.network import Network

    topo = topology if topology is not None \
        else topology_from_json(trace.topology)
    prm = params if params is not None else params_from_json(trace.params)
    bnd = list(trace.binding) if binding is None else list(binding)
    if len(bnd) != trace.world_size:
        raise ReplayError(
            f"binding has {len(bnd)} entries for {trace.world_size} ranks")
    # A PU the topology does not have would index the per-node tables
    # out of range — or, negative, wrap into a wrong answer.
    pus = np.asarray(bnd)
    outside = np.flatnonzero((pus < 0) | (pus >= topo.n_pus))
    if len(outside):
        rank = int(outside[0])
        raise ReplayError(
            f"rank {rank} is bound to PU {bnd[rank]}, outside the "
            f"topology's [0, {topo.n_pus})")
    # Two ranks on one PU is no placement a run can have (Cluster
    # refuses it too).
    first: Dict[int, int] = {}
    for rank, pu in enumerate(bnd):
        other = first.setdefault(pu, rank)
        if other != rank:
            raise ReplayError(
                f"ranks {other} and {rank} are both bound to PU {pu}")
    sd = trace.seed if seed is None else int(seed)
    return Network(topo, bnd, prm, seed=sd)


def _is_exact(trace: ReplayTrace, binding, topology, params, seed) -> bool:
    if binding is not None and list(binding) != list(trace.binding):
        return False
    if topology is not None and \
            [[n, a] for n, a in
             zip(topology.level_names, topology.arities)] != \
            [[n, int(a)] for n, a in trace.topology]:
        return False
    if params is not None and params != params_from_json(trace.params):
        return False
    if seed is not None and int(seed) != trace.seed:
        return False
    return True


def replay(
    trace: ReplayTrace,
    binding: Optional[List[int]] = None,
    topology=None,
    params=None,
    seed: Optional[int] = None,
    substitute: Optional[Dict[str, str]] = None,
    verify: bool = False,
) -> ReplayResult:
    """Re-cost a recorded run, optionally under a different placement.

    With every knob left at None the replay is *exact* and bit-identical
    to the live run, so it walks nothing: each rank's clock is the
    recorded issue time of its finish, which is where a walk issuing
    every event at its recorded time ends.  ``verify=True`` does walk,
    re-costing every message at its recorded issue time, and
    cross-checks the recomputed clocks against the recorded ones at
    every zero-gap event (a strong internal-consistency audit of the
    timing model).

    ``substitute`` maps collective op names to replacement algorithms,
    e.g. ``{"bcast": "chain"}`` — every recorded instance of the op is
    re-decomposed with the replacement algorithm
    (:func:`repro.replay.patterns.apply_substitution`) and the run that
    makes is rescheduled by the ready-set kernel.
    """
    exact = not substitute and \
        _is_exact(trace, binding, topology, params, seed)
    if verify and not exact:
        raise ReplayError("verify requires an exact (identity) replay")
    if substitute:
        from repro.replay.patterns import apply_substitution

        net = _build_network(trace, binding, topology, params, seed)
        return _replay_ready(apply_substitution(trace, substitute), net)
    book = _compile_trace(trace)
    if book.unsent is not None:
        raise ReplayError(
            f"receive references unsent message #{book.unsent}")
    if exact and not verify and book.finish is not None:
        return _result(book, book.finish.tolist(), exact=True)
    net = _build_network(trace, binding, topology, params, seed)
    return _replay_in_order(trace, net, exact, verify)


# ---------------------------------------------------------------------------
# the compiled trace


class CompiledTrace(NamedTuple):
    """A trace pre-digested for repeated re-costing.

    The timed events are three parallel python-list columns in recorded
    order (lists, not arrays: the replay loop reads them one scalar at
    a time).  A list holds one box per distinct value, not one per
    slot: every event of a rank, every message of a cost class, every
    finish and every ``+0.0`` gap reads one shared object (gaps are
    shared by bit pattern, so a ``-0.0`` or a subnormal keeps a box of
    its own); only a receive's ordinal is a box of its own.  ``rank``
    and ``gap`` are the recorded ones; ``operand`` says what the event
    is, with ``n`` cost classes:

    ==============  ================================================
    ``x >= 0``      receive-wait on the message of *ordinal* ``x``
                    (its position among the S/P/G events, resolved
                    from ``seq`` once, here)
    ``-n <= x < 0``  an S, P or G of cost class ``classes[:, x]``
    ``x < -n``      the rank's finish
    ==============  ================================================

    ``classes`` is the distinct ``(src, dst, nbytes, charged)`` of the
    trace's messages as four int64 rows, in the direction the data
    flows (a get's is target → origin), the ``n_get`` get classes first
    and everything that is priced like a send after them.  ``finish``
    is each rank's clock under exact replay (float64): the recorded
    issue time of its last timed event, a finish — or ``None`` when
    some rank's last timed event is not one, and exact replay has to
    walk.  ``unsent`` is the ``seq`` of the first receive recorded
    before its message (``None``: every receive finds one), the error
    of every recorded-order replay.  ``op_bytes`` is the resident size
    of the three lists, each shared box counted once (see
    :meth:`nbytes`).
    """

    rank: List[int]
    operand: List[int]
    gap: List[float]
    classes: "np.ndarray"
    n_get: int
    counts: Dict[str, "np.ndarray"]
    sizes: Dict[str, "np.ndarray"]
    total_counts: Dict[str, "np.ndarray"]
    total_sizes: Dict[str, "np.ndarray"]
    n_messages: int
    finish: Optional["np.ndarray"]
    unsent: Optional[int]
    op_bytes: int

    def nbytes(self) -> int:
        """Resident size of the book, in bytes — what the serving
        layer's byte-bounded LRU evicts by.  Numpy buffers plus
        ``op_bytes``, both fixed when the book is built: no walk over
        the columns."""
        total = int(self.classes.nbytes) + self.op_bytes
        if self.finish is not None:
            total += int(self.finish.nbytes)
        for table in (self.counts, self.sizes,
                      self.total_counts, self.total_sizes):
            for mat in table.values():
                total += int(mat.nbytes)
        return total


def compile_trace(trace: ReplayTrace) -> CompiledTrace:
    """Public spelling of the compile step (cached on the trace).

    Standalone use: ``compile_trace(trace).nbytes()`` is what one hot
    book costs to keep resident — the unit the ``repro.serve`` LRU
    budgets by.
    """
    return _compile_trace(trace)


def _pair_matrices(flat, nb, codes, n: int):
    """Per-category (count, byte) matrices of the messages whose
    ``codes`` entry names the category (code 0 books nowhere)."""
    counts, sizes = {}, {}
    for code, cat in enumerate(CATEGORIES, start=1):
        sel = codes == code
        idx = flat[sel]
        counts[cat] = np.bincount(idx, minlength=n * n) \
            .astype(np.uint64).reshape(n, n)
        mat = np.zeros(n * n, dtype=np.uint64)
        np.add.at(mat, idx, nb[sel])
        sizes[cat] = mat.reshape(n, n)
    return counts, sizes


def _list_bytes(slots: int, boxes: np.ndarray) -> int:
    """Resident size of a list of ``slots`` slots over the objects whose
    values are ``boxes``, one entry per object however many slots share
    it: the list's spine plus each box once — except that CPython keeps
    the ints of ``[-5, 256]`` as shared singletons (every float is
    boxed)."""
    boxed = len(boxes)
    if boxes.dtype.kind == "i":
        boxed -= int(np.count_nonzero((boxes >= -5) & (boxes <= 256)))
    return sys.getsizeof([]) + 8 * slots \
        + boxed * sys.getsizeof(1.0 if boxes.dtype.kind == "f" else 1 << 20)


def _rank_column(rank: np.ndarray, n: int):
    """The ``rank`` list, one box per rank, and its resident size."""
    size = _list_bytes(len(rank),
                       np.flatnonzero(np.bincount(rank, minlength=n)))
    return np.array(range(n), dtype=object)[rank].tolist(), size


def _ordinals(kind: np.ndarray, seq: np.ndarray, n_messages: int):
    """Which message each receive of the timed events ``kind`` / ``seq``
    waits for, by its ordinal among the S/P/G events — one that no send
    carries gets ``n_messages``, past the last — and the ``seq`` of the
    first receive that comes before its message in recorded order
    (None: every receive finds one)."""
    is_msg = (kind == K_S) | (kind == K_P) | (kind == K_G)
    is_send = kind[is_msg] == K_S
    is_recv = kind == K_R
    sends, waits = seq[is_msg][is_send], seq[is_recv]
    ordinal = np.full(max(sends.max(initial=-1), waits.max(initial=-1)) + 1,
                      n_messages, dtype=np.int64)
    ordinal[sends] = np.flatnonzero(is_send)
    received = ordinal[waits]
    del ordinal
    early = np.flatnonzero(received >= np.cumsum(is_msg)[is_recv])
    return received, (int(waits[early[0]]) if len(early) else None)


def _finish_clocks(c, timed: np.ndarray, kind: np.ndarray,
                   n: int) -> Optional[np.ndarray]:
    """Each rank's clock at the end of an exact replay of the columns
    ``c``'s ``timed`` events, whose kinds are ``kind``: the recorded
    ``t`` of its last event, when that is a finish (the walk issues it
    at ``-0.0 + t``, which is ``t`` bit for bit), and ``0.0`` for a rank
    with no event.  None when some rank ends on another kind — only a
    walk knows that rank's clock."""
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, c.rank[timed], np.arange(len(timed)))
    ends = last[last >= 0]
    if not (kind[ends] == K_F).all():
        return None
    clocks = np.zeros(n)
    clocks[last >= 0] = c.t[timed[ends]]
    return clocks


def _operand_column(kind: np.ndarray, cls: np.ndarray, n_cls: int,
                    received: np.ndarray):
    """The ``operand`` list of the timed events ``kind``, whose messages
    are of cost classes ``cls`` and whose receives wait for the
    ``received`` ordinals, and its resident size: one box per class and
    one for the finish, each receive's ordinal a box of its own."""
    is_msg = (kind == K_S) | (kind == K_P) | (kind == K_G)
    has_finish = len(kind) > len(cls) + len(received)
    size = _list_bytes(len(kind), np.concatenate(
        [np.arange(-n_cls - has_finish, 0), received]))
    operand = np.full(len(kind), -n_cls - 1, dtype=object)
    operand[is_msg] = np.array(range(-n_cls, 0), dtype=object)[cls]
    operand[kind == K_R] = received
    return operand.tolist(), size


def _gap_column(gap: np.ndarray):
    """The ``gap`` list and its resident size: the gaps share their
    ``+0.0`` by bit pattern (any other, a ``-0.0`` or a subnormal,
    keeps a box of its own)."""
    nonzero = np.flatnonzero(gap.view(np.int64))
    size = _list_bytes(len(gap), np.concatenate(
        [gap[nonzero], np.zeros(int(len(gap) > len(nonzero)))]))
    gaps = np.full(len(gap), 0.0, dtype=object)
    gaps[nonzero] = gap[nonzero]
    return gaps.tolist(), size


def _compile_trace(trace: ReplayTrace) -> CompiledTrace:
    """Pre-digest a trace for repeated re-costing (cached on the trace).

    Three facts make this profitable: the byte matrices are
    *placement-invariant* (what was sent does not depend on where ranks
    sit), so the books are built once per trace instead of once per
    replay; B/E markers carry no cost in recorded order, so the loop
    only needs the timed events; and a trace has few distinct cost
    classes, so which message a receive waits for and which class a
    send belongs to are resolved here, once.  All of it is column
    work — no tuple, no python-level step per event.  The build holds
    the book plus about one column (DESIGN.md §4.4): each temporary is
    dropped after its last reader, and each list column is built by a
    helper whose object array is gone before the next is built.
    Assumes the trace is not mutated afterwards (nothing in this
    package mutates a trace).
    """
    cached = trace._compiled
    if cached is not None:
        return cached
    c = trace.columns()
    n = trace.world_size
    timed = np.flatnonzero(c.kind < K_B)
    kind = c.kind[timed]
    msg = timed[(kind == K_S) | (kind == K_P) | (kind == K_G)]

    # Every S/P/G moves nbytes rank -> peer, except that a get's data
    # flows target -> origin.
    is_get = c.kind[msg] == K_G
    origin = c.rank[msg].astype(np.int64)
    peer = c.peer[msg].astype(np.int64)
    src = np.where(is_get, peer, origin)
    dst = np.where(is_get, origin, peer)
    del origin, peer
    flat = src * n + dst
    nb = c.nbytes[msg]
    weight = nb.astype(np.uint64)
    counts, sizes = _pair_matrices(flat, weight, c.mcat[msg], n)
    total_counts, total_sizes = _pair_matrices(flat, weight, c.cat[msg], n)
    del weight

    # Cost classes: one integer key per message (sizes ranked first, so
    # the key fits whatever the byte counts are), distinct keys sorted —
    # gets first — and decoded back into the class table.
    charged = (c.mcat[msg] != 0) & (trace.monitoring_overhead > 0.0)
    size_of = np.unique(nb)
    n_ranks = len(nb) + 1
    key = ((~is_get * (n * n) + flat) * n_ranks
           + np.searchsorted(size_of, nb)) * 2 + charged
    n_messages = len(msg)
    del flat, msg, src, dst, nb, charged, is_get
    key, cls = np.unique(key, return_inverse=True)
    pair, size_rank = np.divmod(key >> 1, n_ranks)
    pair %= n * n
    classes = np.stack([pair // n, pair % n, size_of[size_rank], key & 1])
    n_get = int(np.count_nonzero(key < n * n * n_ranks * 2))
    del key, pair, size_rank, size_of

    # One box per value: each list column indexes a table of boxes, so
    # a rank, a class and the finish are one object however many events
    # hold them, and so are the +0.0 gaps; the sizes count each box once.
    rank, rank_bytes = _rank_column(c.rank[timed], n)
    received, unsent = _ordinals(kind, c.seq[timed], n_messages)
    operand, operand_bytes = _operand_column(
        kind, cls, classes.shape[1], received)
    del cls, received
    finish = _finish_clocks(c, timed, kind, n)
    gap = c.gap[timed]
    del kind, timed
    gap, gap_bytes = _gap_column(gap)
    compiled = CompiledTrace(
        rank, operand, gap, classes, n_get,
        counts, sizes, total_counts, total_sizes,
        n_messages=n_messages,
        finish=finish,
        unsent=unsent,
        op_bytes=rank_bytes + operand_bytes + gap_bytes,
    )
    trace._compiled = compiled
    return compiled


def trace_byte_matrix(trace: ReplayTrace,
                      monitored_only: bool = False) -> np.ndarray:
    """Per-pair byte totals (all categories summed) from the compile
    cache — one pass over the columns serves both the matrix and all
    subsequent re-costings, which matters when the search is racing a
    live re-simulation.  :meth:`ReplayTrace.byte_matrix` is this."""
    compiled = _compile_trace(trace)
    src = compiled.sizes if monitored_only else compiled.total_sizes
    out = np.zeros((trace.world_size, trace.world_size), dtype=np.uint64)
    for mat in src.values():
        out += mat
    return out


# ---------------------------------------------------------------------------
# recorded-order replay


def _cost_rows(book: CompiledTrace, net, overhead: float) -> List[tuple]:
    """Price the cost classes under ``net``'s placement: per class
    ``(charge, alpha, nbytes / bw, nbytes / mem_bw, src node, dst node,
    NIC gate, memory gate)`` — the terms :meth:`Network.transfer`
    evaluates per message, with the same float expressions.  An
    uncharged class carries ``-0.0``, the one float that adds to
    nothing bit for bit."""
    src, dst, nbytes, charged = book.classes
    alpha, bw, src_node, dst_node, nic_gate, mem_gate = net.routes(src, dst)
    mem_gate = mem_gate & (nbytes > 0)
    mem_t = nbytes / net._mem_bw if mem_gate.any() else np.zeros(len(nbytes))
    return list(zip(*(column.tolist() for column in (
        np.where(charged, overhead, -0.0), alpha, nbytes / bw, mem_t,
        src_node, dst_node, nic_gate, mem_gate))))


def _result(book: CompiledTrace, clocks: List[float],
            exact: bool) -> ReplayResult:
    """A replay's result: its clocks and the compile cache's books
    (read-only)."""
    return ReplayResult(
        clocks=clocks,
        counts=book.counts,
        sizes=book.sizes,
        total_counts=book.total_counts,
        total_sizes=book.total_sizes,
        n_messages=book.n_messages,
        exact=exact,
    )


def _replay_in_order(trace: ReplayTrace, net, exact: bool,
                     verify: bool) -> ReplayResult:
    """Every recorded-order walk: the max-plus recurrence over the
    compiled columns, each message priced by its class's row.  The
    caller has checked that every receive comes after its message
    (``book.unsent``).

    Re-placed, an event issues at its rank's clock plus the recorded
    gap.  An exact walk (``verify``, or a rank that does not end on its
    finish) is the same expression over other lists: it issues at the
    recorded ``t``, so ``t`` stands in for the gap and the clock it is
    added to is read from a list of ``-0.0`` nobody writes (``-0.0 + t``
    is ``t`` bit for bit).  ``verify`` gives every event a clock slot of
    its own, so the loop leaves behind when each one completed and the
    audit is a pass over that (:func:`_audit`).

    The loop is :meth:`Network.transfer` minus everything a class row
    already holds and minus the hardware counters; jitter is the
    network's own stream, two factors per message in recorded order.
    """
    book = _compile_trace(trace)
    slot = range(len(book.rank)) if verify else book.rank
    last = [0.0] * (len(slot) if verify else trace.world_size)
    base = [-0.0] * len(last) if exact else last
    if exact:
        c = trace.columns()
        issued = c.t[c.kind < K_B]
    rows = _cost_rows(book, net, trace.monitoring_overhead)
    first_msg = -len(rows)
    first_send = first_msg + book.n_get
    nic_free = net._nic_free
    mem_free = net._mem_free
    o_send = net._o_send
    o_recv = net.recv_overhead
    jittered = net._sigma > 0.0
    factors = net.jitter_factors(2 * book.n_messages) if jittered else []
    draw = zip(factors[0::2], factors[1::2]).__next__
    arrivals: List[float] = []
    arrived = arrivals.append

    for r, x, g in zip(slot, book.operand,
                       memoryview(issued) if exact else book.gap):
        tt = base[r] + g
        if x >= 0:  # receive-wait
            arr = arrivals[x]
            last[r] = (arr if arr > tt else tt) + o_recv
        elif x >= first_msg:
            charge, lat, bwt, mem_t, src_node, dst_node, nic_gate, \
                mem_gate = rows[x]
            tt = tt + charge
            # A get's request flies to the target first; the data
            # then comes back like any send.
            start = (tt if x >= first_send else tt + lat) + o_send
            if jittered:
                j_lat, j_bw = draw()
                lat = lat * j_lat
                bwt = bwt * j_bw
            if nic_gate:
                f = nic_free[src_node]
                if f > start:
                    start = f
            if mem_gate:
                f = mem_free[src_node]
                if f > start:
                    start = f
                f = mem_free[dst_node]
                if f > start:
                    start = f
                mem_free[src_node] = mem_free[dst_node] = start + mem_t
            if nic_gate:
                nic_free[src_node] = start + bwt
            arr = start + lat + bwt
            arrived(arr)
            if x >= first_send:  # send, put: injection is synchronous
                last[r] = start + bwt
            else:
                last[r] = (arr if arr > tt else tt) + o_recv
        else:  # final compute tail
            last[r] = tt

    if verify:
        last = _audit(trace, book, issued, last)
    return _result(book, last, exact)


def _audit(trace: ReplayTrace, book: CompiledTrace, issued: np.ndarray,
           done: List[float]) -> List[float]:
    """The ``verify`` check, from the completion time of every timed
    event: wherever the recording says no time passed since the rank's
    previous event (gap 0; :func:`_timed_program`), that event's
    completion must *be* this one's recorded issue time (``issued``).
    Returns the per-rank final clocks."""
    rank = np.asarray(book.rank, dtype=np.intp)
    order, cut = _timed_program(trace)
    follows = np.delete(np.arange(len(order) + 1), cut) - 1  # same rank next
    before = np.zeros(len(rank))
    before[order[follows + 1]] = np.asarray(done)[order[follows]]
    bad = np.flatnonzero((np.asarray(book.gap) == 0.0) & (before != issued))
    if len(bad):
        head = "; ".join(
            f"rank {rank[i]}: computed {before[i].item()!r} != "
            f"recorded {issued[i].item()!r}" for i in bad[:5])
        raise ReplayVerifyError(
            f"{len(bad)} clock divergences in exact replay: {head}")
    clocks = np.zeros(trace.world_size)
    clocks[rank] = done                # repeated index: the last one stays
    return clocks.tolist()


# ---------------------------------------------------------------------------
# ready-set replay


def _timed_program(trace: ReplayTrace):
    """:meth:`ReplayTrace.program` of the book's rows, the timed events."""
    order, cut = trace.program()
    timed = trace.columns().kind < K_B
    keep = timed[order]
    return (np.cumsum(timed) - 1)[order[keep]], np.cumsum(np.r_[0, keep])[cut]


def _program_order(trace: ReplayTrace, book: CompiledTrace) -> List[tuple]:
    """Each rank's timed events in program order (:func:`_timed_program`),
    as three lists — ``operand``, ``gap`` and, for an injection, its
    message ordinal (the one receives name) — built on the first
    ready-set replay of a trace and cached next to its book, so every
    candidate of a substituted search shares them and a trace replayed
    only in recorded order never pays for them.  The operand and gap
    lists hold the book's own boxes."""
    cached = trace._program
    if cached is not None:
        return cached
    operand = np.asarray(book.operand, dtype=np.int64)
    injects = (operand < 0) & (operand >= -book.classes.shape[1])
    ordinal = np.where(injects, np.cumsum(injects) - 1, -1)
    del operand, injects
    program, cut = _timed_program(trace)
    columns = [np.array(book.operand, dtype=object)[program],
               np.array(book.gap, dtype=object)[program],
               ordinal[program]]
    del program, ordinal
    trace._program = [tuple(column[a:b].tolist() for column in columns)
                      for a, b in zip(cut.tolist(), cut[1:].tolist())]
    return trace._program


def _replay_ready(trace: ReplayTrace, net) -> ReplayResult:
    """Reschedule ``trace`` the way the live engine would run it: each
    rank's events in program order, a receive-wait completing once its
    message has been injected, and of the ranks parked on an injection
    the earliest ``(issue time, rank)`` claiming the network next.

    The same book as :func:`_replay_in_order` and the same pricing — a
    class row per message, the network's jitter stream in claim order —
    under another scheduler: a cursor per rank over its program order
    (:func:`_program_order`), a heap of the parked injections, and one
    slot per message ordinal for the receive waiting on it.  A claim
    runs the claiming rank on, then the rank its message woke, to their
    next park.  Needs no recorded global order, so it also runs a
    substituted trace.
    """
    book = _compile_trace(trace)
    n = trace.world_size
    rows = _cost_rows(book, net, trace.monitoring_overhead)
    first_msg = -len(rows)
    first_send = first_msg + book.n_get
    nic_free = net._nic_free
    mem_free = net._mem_free
    o_send = net._o_send
    o_recv = net.recv_overhead
    jittered = net._sigma > 0.0
    factors = net.jitter_factors(2 * book.n_messages) if jittered else []
    draw = zip(factors[0::2], factors[1::2]).__next__
    cursors = [zip(*columns) for columns in _program_order(trace, book)]

    last = [0.0] * n
    arrivals: List[Optional[float]] = [None] * (book.n_messages + 1)
    waiting: List[Optional[tuple]] = [None] * (book.n_messages + 1)
    parked: List[tuple] = []
    starting = list(range(n - 1, -1, -1))
    running = n
    woken = -1
    # Each pass runs one rank on to its next park: the rank the last
    # claim woke, else a rank not started yet, else the next claimer.
    while True:
        if woken >= 0:
            r, woken = woken, -1
        elif starting:
            r = starting.pop()
        elif parked:
            tt, r, x, ordinal = heappop(parked)
            charge, lat, bwt, mem_t, src_node, dst_node, nic_gate, \
                mem_gate = rows[x]
            tt = tt + charge
            start = (tt if x >= first_send else tt + lat) + o_send
            if jittered:
                j_lat, j_bw = draw()
                lat = lat * j_lat
                bwt = bwt * j_bw
            if nic_gate:
                f = nic_free[src_node]
                if f > start:
                    start = f
            if mem_gate:
                f = mem_free[src_node]
                if f > start:
                    start = f
                f = mem_free[dst_node]
                if f > start:
                    start = f
                mem_free[src_node] = mem_free[dst_node] = start + mem_t
            if nic_gate:
                nic_free[src_node] = start + bwt
            arr = arrivals[ordinal] = start + lat + bwt
            if x >= first_send:  # send, put: injection is synchronous
                last[r] = start + bwt
            else:
                last[r] = (arr if arr > tt else tt) + o_recv
            if waiting[ordinal] is not None:
                woken, g = waiting[ordinal]
                tt = last[woken] + g
                last[woken] = (arr if arr > tt else tt) + o_recv
        else:
            break
        for x, g, ordinal in cursors[r]:
            if x >= 0:  # receive-wait
                arr = arrivals[x]
                if arr is None:
                    waiting[x] = (r, g)
                    break
                tt = last[r] + g
                last[r] = (arr if arr > tt else tt) + o_recv
            elif x >= first_msg:
                heappush(parked, (last[r] + g, r, x, ordinal))
                break
            else:  # final compute tail
                last[r] = last[r] + g
        else:
            running -= 1

    if running:
        # Ranks still parked on a receive, and nothing left to inject.
        if waiting[-1] is None:
            stuck = sorted(w[0] for w in waiting if w is not None)
            raise ReplayError(
                f"replay deadlock: {running} ranks wait for messages sent "
                f"only after their own receives complete, ranks {stuck[:8]}")
        c = trace.columns()
        seq = c.seq[c.kind < K_B][np.asarray(book.operand) == book.n_messages]
        raise ReplayError(f"receive references unsent message #{seq[0]}")
    return _result(book, last, exact=False)
