"""Cross-layer, virtual-time-indexed timeline store.

The simulator records three independent layers (the paper's §4–§6
stack): NIC hardware counters (:mod:`repro.simmpi.nic`), PML monitoring
matrices and epochs (:mod:`repro.simmpi.pml_monitoring`) and obs spans
(:mod:`repro.obs.spans`).  Each is useful alone, but "why is this run
slow" questions need all of them joined on one clock.  A
:class:`Timeline` is that join: a columnar store of

* per-rank **span intervals** (:class:`SpanTable` — parallel numpy
  columns, names interned),
* per-link-class / per-node **counter series** (:class:`CounterSeries`
  — monotone cumulative step functions over virtual time),
* per-category **PML totals and epochs**,
* and, when a :class:`repro.replay.schema.ReplayTrace` is available,
  the full event-level record: per-message send/arrival times, receive
  waits, collective instances with per-rank arrival times, and local
  computation gaps.

The correlation key is virtual time: every layer's timestamps come from
the same per-rank simulated clocks, so joining them needs no clock
alignment.

Two ingestion paths build the same store, and both read the recorded
run the same way — from ``trace.columns()``
(:class:`repro.replay.schema.TraceColumns`), vectorised, with **no
re-simulation** and without ever materialising the trace's tuple view:

* :meth:`Timeline.from_run` — after an instrumented live run (obs
  enabled, optionally an ambient replay recording): the live span
  recorder, NIC histories and PML state, joined with the trace's
  event-level layers;
* :meth:`Timeline.from_trace` — from a recorded replay trace alone:
  per-event times are reconstructed from the recorded ``t``/``gap``
  pairs (the post-clock of event *i* is ``t[i+1] - gap[i+1]``; the
  final ``F`` marker closes the stream), and link classes are
  :attr:`Topology.sharing_classes` at :meth:`Topology.common_depths`
  of the recorded binding — the network model's own rule.

The diagnosis passes (:mod:`repro.obs.diagnose`) are pure consumers of
this API; hand-built timelines (tests) construct :class:`Timeline`
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.replay.schema import (CATS, K_B, K_G, K_P, K_R, K_S,
                                 params_from_json, topology_from_json)

__all__ = [
    "CounterSeries", "SpanTable", "Wait", "CollectiveInstance", "Timeline",
]


# ---------------------------------------------------------------------------
# columns


class CounterSeries:
    """A monotone cumulative step function over virtual time.

    ``values[i]`` is the running total *after* the event at
    ``times[i]`` — the same shape as a NIC cumulative byte counter, so
    NIC histories ingest without transformation.  Non-cumulative step
    series (in-flight depth) fit too: build them from signed deltas via
    :meth:`from_events`.
    """

    __slots__ = ("times", "values")

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have the same length")

    @classmethod
    def from_events(cls, events: Iterable[Tuple[float, float]]
                    ) -> "CounterSeries":
        """Build from (time, delta) samples; deltas at equal times merge."""
        pairs = np.asarray(list(events), dtype=np.float64).reshape(-1, 2)
        return cls.from_deltas(pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_deltas(cls, times: np.ndarray,
                    deltas: np.ndarray) -> "CounterSeries":
        """:meth:`from_events` over two parallel float arrays."""
        order = np.lexsort((deltas, times))
        times = times[order]
        last = np.ones(len(times), dtype=bool)
        last[:-1] = times[1:] != times[:-1]
        return cls(times[last], np.cumsum(deltas[order])[last])

    def __len__(self) -> int:
        return len(self.times)

    @property
    def total(self) -> float:
        return float(self.values[-1]) if len(self.values) else 0.0

    def at(self, t: float) -> float:
        """Value of the step function at time ``t`` (right-continuous)."""
        i = int(np.searchsorted(self.times, t, side="right"))
        return float(self.values[i - 1]) if i else 0.0

    def window_of_mass(self, lo: float = 0.05,
                       hi: float = 0.95) -> Tuple[float, float]:
        """Times bracketing the ``[lo, hi]`` fraction of the final total.

        Localizes *when* a cumulative counter did its growing — the
        window a congestion finding anchors to.
        """
        if not len(self.values) or self.values[-1] <= 0:
            return (0.0, 0.0)
        tot = self.values[-1]
        i0 = int(np.searchsorted(self.values, lo * tot, side="left"))
        i1 = int(np.searchsorted(self.values, hi * tot, side="left"))
        i0 = min(i0, len(self.times) - 1)
        i1 = min(i1, len(self.times) - 1)
        return (float(self.times[i0]), float(self.times[i1]))


class SpanTable:
    """Columnar span storage: parallel arrays plus an interned name list.

    Rows come from :attr:`repro.obs.spans.SpanRecorder.finished`
    (integer lanes only) or from collective markers reconstructed out
    of a replay trace.
    """

    __slots__ = ("rank", "t0", "t1", "depth", "name_id", "names", "args")

    def __init__(self, rank, t0, t1, depth, name_id,
                 names: List[str], args: List[Optional[dict]]):
        self.rank = np.asarray(rank, dtype=np.int32)
        self.t0 = np.asarray(t0, dtype=np.float64)
        self.t1 = np.asarray(t1, dtype=np.float64)
        self.depth = np.asarray(depth, dtype=np.int16)
        self.name_id = np.asarray(name_id, dtype=np.int32)
        self.names = list(names)
        self.args = list(args)

    @classmethod
    def empty(cls) -> "SpanTable":
        return cls([], [], [], [], [], [], [])

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[int, str, float, float, int,
                                            Optional[dict]]]) -> "SpanTable":
        """Build from ``(rank, name, t0, t1, depth, args)`` tuples."""
        ranks: List[int] = []
        t0s: List[float] = []
        t1s: List[float] = []
        depths: List[int] = []
        ids: List[int] = []
        names: List[str] = []
        intern: Dict[str, int] = {}
        args: List[Optional[dict]] = []
        for rank, name, t0, t1, depth, a in rows:
            nid = intern.get(name)
            if nid is None:
                nid = intern[name] = len(names)
                names.append(name)
            ranks.append(int(rank))
            t0s.append(float(t0))
            t1s.append(float(t1))
            depths.append(int(depth))
            ids.append(nid)
            args.append(a)
        return cls(ranks, t0s, t1s, depths, ids, names, args)

    def __len__(self) -> int:
        return len(self.rank)


@dataclass(frozen=True)
class Wait:
    """One receive-wait interval: ``rank`` blocked on send ``seq``."""

    rank: int
    t0: float
    t1: float
    seq: int = -1

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class CollectiveInstance:
    """One collective call matched across its participating ranks.

    ``index`` is the per-communicator call ordinal (every participant
    reaches the same collectives of a communicator in the same order,
    so ``(comm_id, index)`` identifies the instance world-wide).
    ``arrivals`` maps rank → virtual time at the begin marker — the
    straggler detector's raw material.
    """

    comm_id: int
    index: int
    op: str
    alg: str = ""
    root: int = -1
    nbytes: int = -1
    segments: int = 0
    ranks: Tuple[int, ...] = ()
    arrivals: Dict[int, float] = field(default_factory=dict)
    t_end: float = 0.0

    @property
    def name(self) -> str:
        return f"{self.op}[{self.alg}]" if self.alg else self.op


# ---------------------------------------------------------------------------
# replay-trace ingestion


def message_flows(kind, rank, peer):
    """``(rows, src, dst)`` of the rows that move bytes (S / P / G):
    origin -> target, except that a get's flow target -> origin (as
    monitored)."""
    moved = np.flatnonzero((kind == K_S) | (kind == K_P) | (kind == K_G))
    is_get = kind[moved] == K_G
    return (moved, np.where(is_get, peer[moved], rank[moved]),
            np.where(is_get, rank[moved], peer[moved]))


def collective_spans(trace, order, cut, derived=None,
                     phases_open=lambda rank, row: 0):
    """``(span rows, instances)`` of a trace's ``B`` / ``E`` markers, rank
    by rank over ``trace.program()``'s ``order, cut``.  A marker's clock
    is its ``t``, or ``derived[i]`` (if given) where that is 0, as in every
    file older than marker clocks.  A span's depth: the collectives open
    around it plus ``phases_open(rank, row of its E)``."""
    c = trace.columns()
    is_mark = c.kind[order] >= K_B
    marks = order[is_mark]
    clock = c.t[marks]
    if derived is not None:
        clock = np.where(clock != 0.0, clock, derived)
    rows = zip(marks.tolist(), c.kind[marks].tolist(),
               c.peer[marks].tolist(), clock.tolist())
    instances: Dict[Tuple[int, int], CollectiveInstance] = {}
    span_rows: List[tuple] = []
    counts = np.diff(np.cumsum(np.r_[0, is_mark])[cut])
    for r, n in enumerate(counts.tolist()):
        stack, calls = [], {}
        for i, k, sig, now in islice(rows, n):
            if k == K_B:
                comm_id, op, alg, root, size, segs = c.colls[sig]
                key = (comm_id, calls.get(comm_id, 0))
                calls[comm_id] = key[1] + 1
                inst = instances.get(key)
                if inst is None:
                    inst = instances[key] = CollectiveInstance(
                        comm_id=comm_id, index=key[1], op=op, alg=alg,
                        root=root, nbytes=size, segments=segs,
                        ranks=tuple(trace.comms.get(comm_id, ())))
                inst.arrivals[r] = now
                stack.append((inst, now))
            elif stack:
                inst, t0 = stack.pop()
                inst.t_end = max(inst.t_end, now)
                span_rows.append((r, inst.name, t0, max(now, t0),
                                  len(stack) + phases_open(r, i), None))
    return span_rows, instances


def _ingest(trace) -> Dict[str, Any]:
    """Every event-level layer of a :class:`ReplayTrace`, straight from
    its columns, as :class:`Timeline` keyword arguments (``pml`` being
    the per-category totals of the recorded monitored events).

    Per-event completion times need no re-simulation: the clock *after*
    timed event ``i`` of a rank is ``t[i+1] - gap[i+1]`` in its program
    order (:meth:`ReplayTrace.program`; the ``F`` marker's own ``t``
    closes it).  Link classes come from the recorded topology and binding.
    """
    c = trace.columns()
    topo = topology_from_json(trace.topology)
    params = params_from_json(trace.params)

    # The timed events (S R F P G) carry the clocks; rank r's are
    # at[timed[r]:timed[r + 1]], so event i is followed on its rank by
    # i + 1 unless i + 1 is a timed[r].
    order, cut = trace.program()
    is_timed = c.kind[order] < K_B
    timed = np.cumsum(np.r_[0, is_timed])[cut]
    at = order[is_timed]
    rank, kind, t, gap = c.rank[at], c.kind[at], c.t[at], c.gap[at]
    seq, peer, nbytes = c.seq[at], c.peer[at], c.nbytes[at]
    post = t.copy()
    chained = np.delete(np.arange(len(t) + 1), timed) - 1
    post[chained] = t[chained + 1] - gap[chained + 1]
    end = np.maximum(post, t)

    computing = gap > 0.0
    gaps = list(zip(rank[computing].tolist(),
                    (t - gap)[computing].tolist(), t[computing].tolist()))
    recv = kind == K_R
    waits = list(map(Wait, rank[recv].tolist(), t[recv].tolist(),
                     end[recv].tolist(), seq[recv].tolist()))

    # Messages, indexed by sequence number: sends fill in who / how
    # much / when issued, the matching receive-wait when it completed.
    send = np.flatnonzero(kind == K_S)
    n_seq = int(seq[send].max()) + 1 if len(send) else 0
    messages = None
    counters: Dict[str, CounterSeries] = {}
    if n_seq:
        messages = {"src": np.full(n_seq, -1, dtype=np.int32),
                    "dst": np.full(n_seq, -1, dtype=np.int32),
                    "nbytes": np.zeros(n_seq, dtype=np.int64),
                    "t_send": np.full(n_seq, np.nan),
                    "t_recv": np.full(n_seq, np.nan)}
        for name, col in (("src", rank), ("dst", peer), ("nbytes", nbytes),
                          ("t_send", t)):
            messages[name][seq[send]] = col[send]
        matched = recv & (seq >= 0) & (seq < n_seq)
        messages["t_recv"][seq[matched]] = post[matched]
        sent = messages["src"] >= 0
        t0 = messages["t_send"][sent]
        t1 = messages["t_recv"][sent]
        t1 = np.where(np.isnan(t1), max(trace.clocks, default=0.0), t1)
        counters["net:inflight"] = CounterSeries.from_deltas(
            np.concatenate((t0, np.maximum(t1, t0))),
            np.concatenate((np.ones(len(t0)), -np.ones(len(t0)))))

    moved, src, dst = message_flows(kind, rank, peer)
    m_t, m_bytes, mcat = t[moved], nbytes[moved], c.mcat[at][moved]
    pml = {}
    for code, cat in enumerate(CATS[1:], start=1):
        booked = mcat == code
        n = int(booked.sum())
        pml[cat] = {"epoch": n, "messages": n,
                    "bytes": int(m_bytes[booked].sum())}
    pus = np.asarray(trace.binding, dtype=np.int64)
    depth = topo.common_depths(pus[src], pus[dst])
    classes = topo.sharing_classes
    link_alpha = {}
    for d in np.unique(depth).tolist():
        on = depth == d
        counters[f"link:bytes:{classes[d]}"] = CounterSeries.from_deltas(
            m_t[on], m_bytes[on].astype(np.float64))
        link_alpha[classes[d]] = params.link_for(classes[d], topo).latency
    # The NIC ticks on cross-node transfers only, charged to the
    # source's node.
    cross = depth == 0
    node = np.array([topo.node_of(pu) for pu in trace.binding])[src[cross]]
    for nd in np.unique(node).tolist():
        on = node == nd
        counters[f"nic:issued:node{nd}"] = CounterSeries.from_deltas(
            m_t[cross][on], m_bytes[cross][on].astype(np.float64))

    # A legacy marker's clock: where its rank's previous timed event
    # left the clock (`post` with a 0.0 put ahead of each rank's).
    derived = np.insert(post, timed[:-1], 0.0)[
        np.cumsum(is_timed)[~is_timed] + c.rank[order[~is_timed]]]
    span_rows, instances = collective_spans(trace, order, cut, derived)

    return {
        "spans": SpanTable.from_rows(span_rows),
        "counters": counters,
        "link_alpha": link_alpha,
        "pml": pml,
        "messages": messages,
        "waits": waits,
        "gaps": gaps,
        "collectives": sorted(instances.values(),
                              key=lambda i: (i.comm_id, i.index)),
    }


# ---------------------------------------------------------------------------
# the store


class Timeline:
    """The joined cross-layer store; see the module docstring.

    Every field is optional beyond ``world_size``/``makespan`` so tests
    can hand-build minimal timelines; the diagnosis passes check for
    the layers they need and report "pass skipped" when one is absent.
    """

    def __init__(self, world_size: int, makespan: float,
                 source: str = "hand",
                 spans: Optional[SpanTable] = None,
                 counters: Optional[Dict[str, CounterSeries]] = None,
                 link_alpha: Optional[Dict[str, float]] = None,
                 pml: Optional[Dict[str, Dict[str, int]]] = None,
                 messages: Optional[Dict[str, np.ndarray]] = None,
                 waits: Sequence[Wait] = (),
                 gaps: Sequence[Tuple[int, float, float]] = (),
                 collectives: Sequence[CollectiveInstance] = (),
                 clocks: Optional[Sequence[float]] = None,
                 meta: Optional[dict] = None):
        self.world_size = int(world_size)
        self.makespan = float(makespan)
        self.source = source
        self.spans = spans if spans is not None else SpanTable.empty()
        self.counters = dict(counters or {})
        self.link_alpha = dict(link_alpha or {})
        self.pml = dict(pml or {})
        self.messages = messages
        self.waits = list(waits)
        self.gaps = list(gaps)
        self.collectives = list(collectives)
        self.clocks = list(clocks) if clocks is not None else None
        self.meta = dict(meta or {})

    # -- ingestion -------------------------------------------------------

    @classmethod
    def from_run(cls, engine, spans=None, trace=None,
                 meta: Optional[dict] = None) -> "Timeline":
        """Ingest an instrumented live run.

        ``spans`` is the :class:`~repro.obs.spans.SpanRecorder` used
        during the run (its integer lanes become the span table) and
        ``trace`` the ambient :class:`~repro.replay.schema.ReplayTrace`
        capture of the same run (event-level layers: messages, waits,
        collective arrivals, per-link-class series).  Both are
        optional; whatever is present is joined.
        """
        layers = _ingest(trace) if trace is not None else {}
        # What the live recorders hold outranks its reconstruction.
        layers["pml"] = engine.pml.snapshot_state()
        if spans is not None:
            layers["spans"] = SpanTable.from_rows(
                row for row in spans.finished if isinstance(row[0], int))
        counters = layers.setdefault("counters", {})
        nic = engine.network.nic
        for node in range(nic.n_nodes):
            for name, history in (("xmit", nic.xmit_events(node)),
                                  ("rcv", nic.rcv_events(node))):
                if history:
                    counters[f"nic:{name}:node{node}"] = CounterSeries(
                        *zip(*history))
        return cls(
            world_size=engine.n_ranks,
            makespan=engine.max_clock,
            source="run",
            clocks=engine.clocks(),
            meta=meta,
            **layers,
        )

    @classmethod
    def from_trace(cls, trace, meta: Optional[dict] = None) -> "Timeline":
        """Ingest a recorded replay trace — no re-simulation.

        Link classes are derived from the recorded topology + binding;
        ``nic:issued:node<N>`` series are per-node *issue-time*
        cumulative bytes of the cross-node messages (what the node's
        hardware counter totals; it ticks at ``sender_done``, a
        send-overhead later — close enough for windowed diagnosis, and
        noted in the resulting meta).  A category's PML epoch is the
        number of recorded events monitored in it: every message is one
        record and each record moves the live epoch once, so this equals
        the live counter on a run that never calls ``pml.reset()``.
        """
        full_meta = {"nic_series": "issue-time approximation",
                     "pml_epochs": "recorded-event counts"}
        full_meta.update(trace.meta or {})
        full_meta.update(meta or {})
        return cls(
            world_size=trace.world_size,
            makespan=max(trace.clocks, default=0.0),
            source="trace",
            clocks=trace.clocks,
            meta=full_meta,
            **_ingest(trace),
        )

    # -- queries ---------------------------------------------------------

    def counter_keys(self, prefix: Optional[str] = None) -> List[str]:
        keys = sorted(self.counters)
        if prefix is None:
            return keys
        return [k for k in keys if k.startswith(prefix)]

    def counter(self, key: str) -> CounterSeries:
        return self.counters[key]

    def link_classes(self) -> List[str]:
        return [k[len("link:bytes:"):]
                for k in self.counter_keys("link:bytes:")]

    def link_bytes(self, cls_name: str) -> float:
        series = self.counters.get(f"link:bytes:{cls_name}")
        return series.total if series is not None else 0.0

    def inflight_coverage(self, rank: int, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` during which at least one message
        destined for ``rank`` was in flight (sent, not yet received).

        The serialization-stall detector's core question: a long wait
        whose window has ~zero coverage means the rank starved because
        its peer had not even *issued* the data yet.
        """
        if self.messages is None or t1 <= t0:
            return 0.0
        m = self.messages
        sel = np.flatnonzero(m["dst"] == rank)
        if not len(sel):
            return 0.0
        starts = m["t_send"][sel]
        ends = m["t_recv"][sel]
        ends = np.where(np.isnan(ends), self.makespan, ends)
        lo = np.maximum(starts, t0)
        hi = np.minimum(ends, t1)
        keep = lo < hi
        if not keep.any():
            return 0.0
        ivals = sorted(zip(lo[keep].tolist(), hi[keep].tolist()))
        covered = 0.0
        cur_lo, cur_hi = ivals[0]
        for s, e in ivals[1:]:
            if s > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            elif e > cur_hi:
                cur_hi = e
        covered += cur_hi - cur_lo
        return covered

    # -- export bridge ---------------------------------------------------

    def as_finished_spans(self) -> List[tuple]:
        """Span rows in :data:`repro.obs.spans.FinishedSpan` shape, so
        the Chrome-trace exporter can render a timeline built from a
        replay trace exactly like a live recorder."""
        return [(int(self.spans.rank[i]),
                 self.spans.names[self.spans.name_id[i]],
                 float(self.spans.t0[i]), float(self.spans.t1[i]),
                 int(self.spans.depth[i]), self.spans.args[i])
                for i in range(len(self.spans))]

    def layer_summary(self) -> Dict[str, Any]:
        """Per-layer presence/volume summary (reports embed this)."""
        return {
            "spans": {"rows": len(self.spans),
                      "names": len(self.spans.names)},
            "counters": {"series": len(self.counters),
                         "link_classes": self.link_classes()},
            "pml": {cat: dict(rec) for cat, rec in sorted(self.pml.items())},
            "events": {
                "messages": (0 if self.messages is None
                             else int((self.messages["src"] >= 0).sum())),
                "waits": len(self.waits),
                "collectives": len(self.collectives),
                "gaps": len(self.gaps),
            },
        }
