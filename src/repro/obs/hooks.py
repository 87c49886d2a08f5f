"""Engine-side instrumentation: the bridge from simulator to obs.

:class:`EngineObserver` is created by :class:`~repro.simmpi.engine.Engine`
at construction time — only when the layer is enabled, so disabled
engines carry a plain ``None`` and pay nothing.  An observed engine
also records (:mod:`repro.replay.autorecord`).  The observer samples
the ready-queue depth on the engine's *per-wait* path; at
:meth:`run_finished`, handed the run's trace (unfinished if the run
raised), it publishes the per-link-class totals of the recorded
messages, the engine's own counters and the per-category monitoring
totals, and adds the recorded collective spans to the span recorder.

The observer keeps no reference to its engine (the engine hands itself
to :meth:`run_started` / :meth:`run_finished`), so the pair is not a
reference cycle.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro import obs
from repro.obs.timeline import collective_spans, message_flows
from repro.simmpi.pml_monitoring import CATEGORIES

__all__ = ["EngineObserver"]

#: Ready-queue depths are small (bounded by world size).
_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class EngineObserver:
    """Per-engine recorder; one instance per instrumented Engine."""

    __slots__ = ("registry", "spans", "_depth_hist", "_depth_max", "_rr",
                 "_phases")

    def __init__(self):
        self.registry = obs.registry()
        self.spans = obs.spans()
        self._depth_hist = self.registry.histogram(
            "repro_engine_ready_queue_depth", buckets=_DEPTH_BUCKETS)
        self._depth_max = 0
        self._rr = None         # the run's recorder
        self._phases = {}       # lane -> (rows recorded at begins, at ends)

    # -- per-wait sampling -------------------------------------------------

    def note_block(self, depth: int) -> None:
        """Ready-queue depth observed as a rank parks (per wait)."""
        self._depth_hist.observe(depth)
        if depth > self._depth_max:
            self._depth_max = depth

    def begin(self, lane, name: str, t: float, args=None) -> None:
        """Span a phase (``virtual_span``'s, placement.reorder's), noting
        how far the recording had got, for the collectives' depth."""
        self.spans.begin(lane, name, t, args)
        self._phases.setdefault(lane, ([], []))[0].append(len(self._rr))

    def end(self, lane, t: float) -> str:
        self._phases[lane][1].append(len(self._rr))
        return self.spans.end(lane, t)

    # -- run lifecycle -----------------------------------------------------

    def run_started(self, eng) -> None:
        self._rr = eng._rr
        self.spans.wall_begin("engine.run", {"n_ranks": eng.n_ranks})

    def run_finished(self, eng, trace) -> None:
        def phases_open(rank: int, row: int) -> int:
            begins, ends = self._phases.get(rank, ((), ()))
            return bisect_right(begins, row) - bisect_right(ends, row)

        self.spans.wall_end()
        rows, _ = collective_spans(trace, *trace.program(),
                                   phases_open=phases_open)
        self.spans.finished.extend(rows)
        self._publish(eng, trace)

    def _publish(self, eng, trace) -> None:
        reg = self.registry
        net = eng.network
        reg.counter("repro_engine_runs_total").inc()
        reg.counter("repro_engine_context_switches_total").inc(eng._switches)
        # Paired with context_switches_total: every switch is followed
        # by exactly one scheduler resume (a ``task.send``), counted
        # independently.  Divergence between the two on a completed run
        # would mean the scheduler resumed a rank it was not told to —
        # the bit-exactness invariant.
        reg.counter("repro_engine_resumes_total").inc(eng.resumes)
        if eng.max_clock > 0:
            reg.gauge("repro_engine_resumes_per_virtual_second").set_max(
                eng.resumes / eng.max_clock)
        reg.counter("repro_engine_messages_total").inc(net.n_messages)
        reg.counter("repro_engine_deferred_sends_total").inc(eng._qseq)
        reg.counter("repro_engine_handoffs_elided_total",
                    kind="self").inc(eng._self_handoffs)
        reg.counter("repro_engine_handoffs_elided_total",
                    kind="phantom").inc(eng._phantom_elisions)
        reg.gauge("repro_engine_ready_queue_depth_max").set_max(
            self._depth_max)
        reg.gauge("repro_engine_virtual_makespan_seconds").set_max(
            eng.max_clock)
        # Every recorded message on its link class, summed in row order,
        # the order the messages moved: each latency total is the
        # per-message sum, to the bit.
        c = trace.columns()
        moved, src, dst = message_flows(c.kind, c.rank, c.peer)
        pu = np.asarray(net.binding)
        depth = net.topology.common_depths(pu[src], pu[dst])
        sharing = net.topology.sharing_classes
        msgs, byts, lats = (
            np.bincount(depth, weights=w, minlength=len(sharing))
            for w in (None, c.nbytes[moved], net.routes(src, dst)[0]))
        for cls in net.route_classes:
            d = sharing.index(cls)
            if msgs[d]:
                reg.counter("repro_net_link_messages_total",
                            link=cls).inc(int(msgs[d]))
                reg.counter("repro_net_link_bytes_total",
                            link=cls).inc(int(byts[d]))
                reg.counter("repro_net_link_latency_seconds_total",
                            link=cls).inc(float(lats[d]))
        # totals() flushes; pml.sync no-ops on the main thread so this
        # is safe after the run has drained.
        for cat in CATEGORIES:
            n_msg, n_bytes = eng.pml.totals(cat)
            reg.counter("repro_pml_recorded_messages_total",
                        category=cat).inc(n_msg)
            reg.counter("repro_pml_recorded_bytes_total",
                        category=cat).inc(n_bytes)
            reg.gauge("repro_pml_epoch", category=cat).set_max(
                eng.pml.epoch(cat))
