"""Engine-side instrumentation: the bridge from simulator to obs.

:class:`EngineObserver` is created by :class:`~repro.simmpi.engine.Engine`
at construction time — only when the layer is enabled, so disabled
engines carry a plain ``None`` and pay nothing.  It does three things:

* hangs ``on_message`` on the engine's per-message observer slot: it
  accumulates per-link-class message/byte/latency totals in plain
  Python lists for every message, monitored or not (the slot's ``is
  not None`` test is one a plain run already pays);
* samples a cheap signal on the engine's *per-wait* path (ready-queue
  depth at block time);
* publishes everything into the metrics registry once, at
  :meth:`run_finished`, together with the engine's own counters
  (switches, messages, deferred sends, elided switches) and the
  per-category monitoring totals.

The observer keeps no reference to its engine (the engine hands itself
to :meth:`run_started` / :meth:`run_finished`), so the pair is not a
reference cycle.
"""

from __future__ import annotations

from repro import obs
from repro.simmpi.pml_monitoring import CATEGORIES

__all__ = ["EngineObserver"]

#: Ready-queue depths are small (bounded by world size).
_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class EngineObserver:
    """Per-engine recorder; one instance per instrumented Engine."""

    __slots__ = (
        "registry", "spans", "on_message",
        "_depth_hist", "_depth_max",
        "_link_msgs", "_link_bytes", "_link_lat",
    )

    def __init__(self, engine):
        self.registry = obs.registry()
        self.spans = obs.spans()
        self._depth_hist = self.registry.histogram(
            "repro_engine_ready_queue_depth", buckets=_DEPTH_BUCKETS)
        self._depth_max = 0
        net = engine.network
        n_classes = len(net.route_classes)
        # Per-link-class accumulators, indexed like route_classes;
        # on_message bumps these per message and run_finished publishes
        # them as labelled counters.
        msgs = self._link_msgs = [0] * n_classes
        byts = self._link_bytes = [0] * n_classes
        lats = self._link_lat = [0.0] * n_classes
        clsidx, alpha, n = net._clsidx_l, net._alpha_l, net._n_ranks

        def on_message(kind, proc, peer, nbytes, category, mcat, t_pre, msg):
            # Per message, from the engine's observer slot: a closure
            # over the lists, not self.  A get's bytes flow target ->
            # origin.
            pair = (peer * n + proc.rank if kind == "G"
                    else proc.rank * n + peer)
            i = clsidx[pair]
            msgs[i] += 1
            byts[i] += nbytes
            lats[i] += alpha[pair]

        self.on_message = on_message

    # -- per-wait sampling -------------------------------------------------

    def note_block(self, depth: int) -> None:
        """Ready-queue depth observed as a rank parks (per wait)."""
        self._depth_hist.observe(depth)
        if depth > self._depth_max:
            self._depth_max = depth

    # -- run lifecycle -----------------------------------------------------

    def run_started(self, eng) -> None:
        if self.spans is not None:
            self.spans.wall_begin("engine.run", {"n_ranks": eng.n_ranks})

    def run_finished(self, eng) -> None:
        if self.spans is not None:
            self.spans.wall_end()
        self._publish(eng)

    def _publish(self, eng) -> None:
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
        for i, cls in enumerate(net.route_classes):
            if self._link_msgs[i]:
                reg.counter("repro_net_link_messages_total",
                            link=cls).inc(self._link_msgs[i])
                reg.counter("repro_net_link_bytes_total",
                            link=cls).inc(self._link_bytes[i])
                reg.counter("repro_net_link_latency_seconds_total",
                            link=cls).inc(self._link_lat[i])
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
