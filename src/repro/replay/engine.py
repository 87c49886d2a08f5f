"""Replay a recorded event stream through the network cost model.

Two scheduling regimes:

**Recorded order** (no collective substitution).  Events execute in
the order the live engine's transfers claimed shared network state —
the jitter stream, NIC serialization windows and memory-bandwidth
windows are consumed in the identical sequence, so replaying the
recorded configuration verbatim is *bit-exact*: per-pair byte matrices
and every per-rank virtual clock match the live run to the last ulp.
Under a different placement/topology/parameters the same global order
is kept (it is a valid dependency order of the program) while issue
times are re-derived from the recorded per-rank computation gaps —
a deterministic, documented approximation: the live engine would claim
resources in the new (clock, rank) order, replay claims them in the
recorded order.

**Derived order** (collective substitution).  Substituted instances
have no recorded order, so all events are rescheduled: each rank's
stream is consumed in program order, receives unblock when their
matching send has been injected, and among ready sends the earliest
``(issue time, rank)`` goes first — the same tie-break the live
scheduler uses.

Timing rules mirror the engine's hook sites one-to-one:

======  ==============================================================
event   clock update (``tt`` = issue time; exact mode uses the
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

import gc
import sys
from dataclasses import dataclass
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
    kind_rows,
    merge_by_kind,
    params_from_json,
    topology_from_json,
)

__all__ = ["ReplayError", "ReplayVerifyError", "ReplayResult",
           "CompiledTrace", "compile_trace", "replay", "trace_byte_matrix"]

CATEGORIES = ("p2p", "coll", "osc")


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


class _Books:
    """Per-category (src, dst, nbytes) accumulators -> dense matrices."""

    __slots__ = ("n", "mon", "tot")

    def __init__(self, n: int):
        self.n = n
        self.mon = {c: ([], [], []) for c in CATEGORIES}
        self.tot = {c: ([], [], []) for c in CATEGORIES}

    def book(self, cat: str, mcat: str, src: int, dst: int,
             nbytes: int) -> None:
        rows, cols, vals = self.tot[cat]
        rows.append(src)
        cols.append(dst)
        vals.append(nbytes)
        if mcat:
            rows, cols, vals = self.mon[mcat]
            rows.append(src)
            cols.append(dst)
            vals.append(nbytes)

    def _dense(self, triples, weights: bool) -> Dict[str, np.ndarray]:
        out = {}
        for cat, (rows, cols, vals) in triples.items():
            mat = np.zeros((self.n, self.n), dtype=np.uint64)
            if rows:
                w = (np.asarray(vals, dtype=np.uint64) if weights
                     else np.uint64(1))
                np.add.at(mat, (np.asarray(rows), np.asarray(cols)), w)
            out[cat] = mat
        return out

    def result(self, clocks, n_messages, exact) -> ReplayResult:
        return ReplayResult(
            clocks=list(clocks),
            counts=self._dense(self.mon, weights=False),
            sizes=self._dense(self.mon, weights=True),
            total_counts=self._dense(self.tot, weights=False),
            total_sizes=self._dense(self.tot, weights=True),
            n_messages=n_messages,
            exact=exact,
        )


def _build_network(trace: ReplayTrace, binding, topology, params, seed):
    from repro.simmpi.network import Network

    topo = topology if topology is not None \
        else topology_from_json(trace.topology)
    prm = params if params is not None else params_from_json(trace.params)
    bnd = list(trace.binding) if binding is None else list(binding)
    if len(bnd) != trace.world_size:
        raise ReplayError(
            f"binding has {len(bnd)} entries for {trace.world_size} ranks")
    sd = trace.seed if seed is None else int(seed)
    # record_nic=False: the replayer never reads the per-node hardware
    # counters, and skipping their per-message appends does not change
    # any cost computation.
    return Network(topo, bnd, prm, seed=sd, record_nic=False)


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

    With every knob left at None the replay is *exact*: issue times use
    the recorded absolute clocks and the result is bit-identical to the
    live run.  ``verify=True`` additionally cross-checks the recomputed
    clocks against the recorded ones at every zero-gap event (a strong
    internal-consistency audit of the timing model).

    ``substitute`` maps collective op names to replacement algorithms,
    e.g. ``{"bcast": "chain"}`` — every recorded instance of the op is
    re-decomposed with the replacement algorithm and the whole trace is
    rescheduled in derived order.
    """
    if substitute:
        from repro.replay.patterns import apply_substitution

        per_rank = apply_substitution(trace, substitute)
        net = _build_network(trace, binding, topology, params, seed)
        return _replay_derived(trace, per_rank, net)
    net = _build_network(trace, binding, topology, params, seed)
    exact = _is_exact(trace, binding, topology, params, seed)
    if verify and not exact:
        raise ReplayError("verify requires an exact (identity) replay")
    if exact or verify:
        return _replay_recorded(trace, net, exact, verify)
    return _replay_compiled(trace, net)


# ---------------------------------------------------------------------------
# recorded-order replay


def _replay_recorded(trace: ReplayTrace, net, exact: bool,
                     verify: bool) -> ReplayResult:
    """The interpreter: every message through :meth:`Network.transfer`,
    over the compiled op stream.  Exact mode issues each event at its
    recorded ``t`` (the compile cache's parallel column); the books are
    placement-invariant and come from the compile cache — treat the
    result's matrices as read-only."""
    book = _compile_trace(trace)
    last = [0.0] * trace.world_size
    arrivals: List[Optional[float]] = [None] * (book.max_seq + 1)
    orecv = net.recv_overhead
    alpha = net._alpha_l
    nr = net._n_ranks
    transfer = net.transfer
    bad: List[str] = []

    for rec, t in zip(book.prog, book.t.tolist()):
        k = rec[0]
        r = rec[1]
        gap = rec[-1] if k else rec[6]   # a send's last slot is its pair
        if verify and gap == 0.0 and last[r] != t:
            bad.append(f"rank {r}: computed {last[r]!r} != recorded {t!r}")
        tt = t if exact else last[r] + gap
        if k == 0:  # send
            _, _r, dst, nb, o, seq, _gap, _pidx = rec
            if o:
                tt = tt + o
            done, arr = transfer(r, dst, nb, tt)
            arrivals[seq] = arr
            last[r] = done
        elif k == 1:  # receive-wait
            arr = arrivals[rec[2]]
            if arr is None:
                raise ReplayError(
                    f"receive references unsent message #{rec[2]}")
            last[r] = max(tt, arr) + orecv
        elif k == 2:  # final compute tail
            last[r] = tt
        elif k == 3:  # one-sided put
            _, _r, dst, nb, o, _gap = rec
            if o:
                tt = tt + o
            done, _arr = transfer(r, dst, nb, tt)
            last[r] = done
        else:  # one-sided get
            _, _r, target, nb, o, _gap = rec
            if o:
                tt = tt + o
            t_req = tt + alpha[r * nr + target]
            _done, arr = transfer(target, r, nb, t_req)
            last[r] = max(tt, arr) + orecv

    if bad:
        head = "; ".join(bad[:5])
        raise ReplayVerifyError(
            f"{len(bad)} clock divergences in exact replay: {head}")
    return ReplayResult(
        clocks=last,
        counts=book.counts,
        sizes=book.sizes,
        total_counts=book.total_counts,
        total_sizes=book.total_sizes,
        n_messages=net.n_messages,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# compiled recorded-order replay (the placement-search hot path)


class CompiledTrace(NamedTuple):
    """A trace pre-digested for repeated re-costing.

    ``prog`` is the compact op stream of the timed events, one record
    per event with the rank-pair index and the monitoring-overhead
    charge resolved::

        (0, rank, dst, nbytes, ovh, seq, gap, rank * n + dst)   send
        (1, rank, seq, gap)                                     receive-wait
        (2, rank, gap)                                          finish
        (3, rank, target, nbytes, ovh, gap)                     put
        (4, rank, target, nbytes, ovh, gap)                     get

    ``t`` is the recorded issue time of each record, a float64 column
    parallel to ``prog``: only the exact interpreter reads it, so the
    per-candidate records stay as narrow as the hot loop needs.
    ``op_bytes`` is the resident size of ``prog``, worked out from the
    per-kind record counts when the book is built (see :meth:`nbytes`).
    """

    prog: List[tuple]
    counts: Dict[str, "np.ndarray"]
    sizes: Dict[str, "np.ndarray"]
    total_counts: Dict[str, "np.ndarray"]
    total_sizes: Dict[str, "np.ndarray"]
    n_messages: int
    max_seq: int
    t: "np.ndarray"
    op_bytes: int

    def nbytes(self) -> int:
        """Resident size of the book, in bytes — what the serving
        layer's byte-bounded LRU evicts by.

        Numpy buffers are exact; the compact op stream is estimated as
        the list spine + each record's tuple shell + one boxed float /
        large int per payload slot (CPython boxes are 28–32 bytes;
        small ints and the empty-overhead 0.0 are interned, so 32 per
        slot is a deliberate slight over-estimate — an LRU should err
        toward evicting early, not late).  A record's width is fixed by
        its kind, so that estimate is arithmetic on the kind counts
        (``op_bytes``), not a walk over the records.
        """
        total = int(self.t.nbytes) + self.op_bytes
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


def _compile_trace(trace: ReplayTrace) -> CompiledTrace:
    """Pre-digest a trace for repeated re-costing (cached on the trace).

    Two facts make this profitable: the byte matrices are
    *placement-invariant* (what was sent does not depend on where ranks
    sit), so the books can be built once per trace instead of once per
    replay; and B/E markers carry no cost in recorded order, so the
    replay loops only need a compact op stream of the timed events.
    Both are built from the trace's columns — vectorised books, op
    records zipped from ``.tolist()`` columns — without touching the
    event tuples.  Assumes the trace is not mutated afterwards (nothing
    in this package mutates a trace).
    """
    cached = trace._compiled
    if cached is not None:
        return cached
    c = trace.columns()
    n = trace.world_size
    kind = c.kind

    # The books: every S/P/G moves nbytes rank -> peer, except that a
    # get's data flows target -> origin.
    msg = np.flatnonzero((kind == K_S) | (kind == K_P) | (kind == K_G))
    rank = c.rank[msg].astype(np.intp)
    peer = c.peer[msg].astype(np.intp)
    is_get = kind[msg] == K_G
    flat = np.where(is_get, peer, rank) * n + np.where(is_get, rank, peer)
    nb = c.nbytes[msg].astype(np.uint64)
    counts, sizes = _pair_matrices(flat, nb, c.mcat[msg], n)
    total_counts, total_sizes = _pair_matrices(flat, nb, c.cat[msg], n)

    # The op stream: per-kind records over python-native columns,
    # merged back into recorded order.  Kind codes of the timed events
    # are the opcodes.
    ovh = trace.monitoring_overhead
    charge = np.where(c.mcat != 0, ovh, 0.0) if ovh > 0.0 \
        else np.zeros(len(kind))
    pair = c.rank.astype(np.intp) * n + c.peer
    timed = kind < K_B
    fields = (
        (c.rank, c.peer, c.nbytes, charge, c.seq, c.gap, pair),   # K_S
        (c.rank, c.seq, c.gap),                                   # K_R
        (c.rank, c.gap),                                          # K_F
        (c.rank, c.peer, c.nbytes, charge, c.gap),                # K_P
        (c.rank, c.peer, c.nbytes, charge, c.gap),                # K_G
    )
    # (A generator: one kind's python-native columns alive at a time.)
    # The collector is paused meanwhile — a hundred thousand fresh
    # tuples of scalars hold no cycle, and with it running every 700th
    # allocation starts a pass — and one young-generation pass at the
    # end untracks them here instead of in whichever replay allocates
    # next.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        prog = merge_by_kind(kind[timed], (
            kind_rows(kind, code, code, *cols)
            for code, cols in enumerate(fields)))
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect(0)
    per_kind = np.bincount(kind, minlength=len(fields)).tolist()
    op_bytes = sys.getsizeof(prog) + sum(
        count * (sys.getsizeof((0,) * (len(cols) + 1)) + 32 * len(cols))
        for count, cols in zip(per_kind, fields))
    seqs = c.seq[(kind == K_S) | (kind == K_R)]
    compiled = CompiledTrace(
        prog, counts, sizes, total_counts, total_sizes,
        n_messages=len(msg),
        max_seq=int(seqs.max()) if len(seqs) else 0,
        t=c.t[timed],
        op_bytes=op_bytes,
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


def _replay_compiled(trace: ReplayTrace, net) -> ReplayResult:
    """Recorded-order re-costing under a non-identity configuration.

    Produces clocks bitwise-identical to :func:`_replay_recorded` in
    non-exact mode (pinned by a test): the send path below inlines
    :meth:`Network.transfer` operation-for-operation — same float
    expression order, same jitter-stream consumption — minus the
    per-message call overhead and the hardware-counter bookkeeping the
    replayer never reads.  The shared matrices in the result come from
    the per-trace compile cache; treat them as read-only.
    """
    book = _compile_trace(trace)
    n = trace.world_size
    last = [0.0] * n
    arrivals: List[Optional[float]] = [None] * (book.max_seq + 1)
    orecv = net.recv_overhead
    alpha_l = net._alpha_l
    nr = net._n_ranks
    pair_l = net._pair_l
    nic_free = net._nic_free
    mem_free = net._mem_free
    mem_bw = net._mem_bw
    o_send = net._o_send
    sigma = net._sigma
    blk = net._jit_blk
    jlen = len(blk)
    jpos = net._jit_pos
    transfer = net.transfer

    for rec in book.prog:
        k = rec[0]
        if k == 0:  # send — Network.transfer inlined
            _, r, dst, nb, o, seq, gap, pidx = rec
            tt = last[r] + gap
            if o:
                tt = tt + o
            alpha, bw, src_node, dst_node, _cross, nic_gate, mem_gate = \
                pair_l[pidx]
            if sigma > 0.0:
                if jpos + 2 > jlen:
                    # _refill_jitter slices the unconsumed tail from
                    # _jit_pos, so the local cursor must be synced first.
                    net._jit_pos = jpos
                    blk = net._refill_jitter()
                    jlen = len(blk)
                    jpos = 0
                lat = alpha * blk[jpos]
                bwt = (nb / bw) * blk[jpos + 1]
                jpos = jpos + 2
            else:
                lat = alpha
                bwt = nb / bw
            start = tt + o_send
            if nic_gate:
                f = nic_free[src_node]
                if f > start:
                    start = f
            mem_gate = mem_gate and nb > 0
            if mem_gate:
                start = max(start, mem_free[src_node], mem_free[dst_node])
            if nic_gate:
                nic_free[src_node] = start + bwt
            if mem_gate:
                mem_t = nb / mem_bw
                mem_free[src_node] = start + mem_t
                if dst_node != src_node:
                    mem_free[dst_node] = start + mem_t
            arrivals[seq] = start + lat + bwt
            last[r] = start + bwt
        elif k == 1:  # receive-wait
            _, r, seq, gap = rec
            tt = last[r] + gap
            arr = arrivals[seq]
            if arr is None:
                raise ReplayError(
                    f"receive references unsent message #{seq}")
            last[r] = arr + orecv if arr > tt else tt + orecv
        elif k == 2:  # final compute tail
            _, r, gap = rec
            last[r] = last[r] + gap
        elif k == 3:  # one-sided put
            _, r, dst, nb, o, gap = rec
            net._jit_pos = jpos
            net._jit_blk = blk
            tt = last[r] + gap
            if o:
                tt = tt + o
            done, _arr = transfer(r, dst, nb, tt)
            last[r] = done
            blk = net._jit_blk
            jlen = len(blk)
            jpos = net._jit_pos
        else:  # one-sided get
            _, r, target, nb, o, gap = rec
            net._jit_pos = jpos
            net._jit_blk = blk
            tt = last[r] + gap
            if o:
                tt = tt + o
            t_req = tt + alpha_l[r * nr + target]
            _done, arr = transfer(target, r, nb, t_req)
            last[r] = max(tt, arr) + orecv
            blk = net._jit_blk
            jlen = len(blk)
            jpos = net._jit_pos

    net._jit_pos = jpos
    net._jit_blk = blk
    return ReplayResult(
        clocks=list(last),
        counts=book.counts,
        sizes=book.sizes,
        total_counts=book.total_counts,
        total_sizes=book.total_sizes,
        n_messages=book.n_messages,
        exact=False,
    )


# ---------------------------------------------------------------------------
# derived-order replay (collective substitution)


def _replay_derived(trace: ReplayTrace, per_rank: List[List[tuple]],
                    net) -> ReplayResult:
    n = trace.world_size
    last = [0.0] * n
    max_seq = max((ev[6] for q in per_rank for ev in q if ev[0] == "S"),
                  default=0)
    arrivals: List[Optional[float]] = [None] * (max_seq + 1)
    books = _Books(n)
    ovh = trace.monitoring_overhead
    orecv = net.recv_overhead
    alpha = net._alpha_l
    nr = net._n_ranks
    transfer = net.transfer
    heads = [0] * n
    remaining = sum(len(q) for q in per_rank)

    while remaining:
        progress = True
        while progress:
            progress = False
            for r in range(n):
                q = per_rank[r]
                i = heads[r]
                while i < len(q):
                    ev = q[i]
                    kind = ev[0]
                    if kind == "B" or kind == "E":
                        i += 1
                        remaining -= 1
                        progress = True
                        continue
                    if kind == "R":
                        arr = arrivals[ev[2]]
                        if arr is None:
                            break
                        last[r] = max(last[r] + ev[4], arr) + orecv
                        i += 1
                        remaining -= 1
                        progress = True
                        continue
                    if kind == "F":
                        last[r] = last[r] + ev[3]
                        i += 1
                        remaining -= 1
                        progress = True
                        continue
                    break
                heads[r] = i

        # Among ranks parked on an injection (S/P/G), the earliest
        # (issue time, rank) claims the network next — the live
        # scheduler's tie-break.
        best_r = -1
        best_t = 0.0
        for r in range(n):
            q = per_rank[r]
            if heads[r] < len(q):
                ev = q[heads[r]]
                if ev[0] in ("S", "P", "G"):
                    t_issue = last[r] + ev[-1]
                    if best_r < 0 or t_issue < best_t:
                        best_r = r
                        best_t = t_issue
        if best_r < 0:
            if remaining:
                stuck = [(r, per_rank[r][heads[r]][0]) for r in range(n)
                         if heads[r] < len(per_rank[r])]
                raise ReplayError(
                    f"replay deadlock: {remaining} events stuck, "
                    f"blocked heads {stuck[:8]}")
            break

        r = best_r
        ev = per_rank[r][heads[r]]
        heads[r] += 1
        remaining -= 1
        kind = ev[0]
        tt = best_t
        if kind == "S":
            _, _r, dst, nb, cat, mcat, seq, _t, _gap = ev
            if mcat and ovh > 0.0:
                tt = tt + ovh
            done, arr = transfer(r, dst, nb, tt)
            arrivals[seq] = arr
            last[r] = done
            books.book(cat, mcat, r, dst, nb)
        elif kind == "P":
            _, _r, dst, nb, mcat, _t, _gap = ev
            if mcat and ovh > 0.0:
                tt = tt + ovh
            done, _arr = transfer(r, dst, nb, tt)
            last[r] = done
            books.book("osc", mcat, r, dst, nb)
        else:  # "G"
            _, _r, target, nb, mcat, _t, _gap = ev
            if mcat and ovh > 0.0:
                tt = tt + ovh
            t_req = tt + alpha[r * nr + target]
            _done, arr = transfer(target, r, nb, t_req)
            last[r] = max(tt, arr) + orecv
            books.book("osc", mcat, target, r, nb)

    return books.result(last, net.n_messages, exact=False)
