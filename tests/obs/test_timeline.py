"""The cross-layer timeline store: columns, in-flight coverage, both
ingestions."""

import numpy as np
import pytest

from repro.obs.timeline import CounterSeries, SpanTable, Timeline
from repro.replay.schema import ReplayTrace


class TestCounterSeries:
    def test_at_and_delta(self):
        s = CounterSeries([1.0, 2.0, 4.0], [10.0, 30.0, 60.0])
        assert s.at(0.5) == 0.0
        assert s.at(1.0) == 10.0
        assert s.at(3.0) == 30.0
        assert s.at(100.0) == 60.0 == s.total
        assert s.at(4.0) - s.at(1.0) == 50.0

    def test_from_events_accumulates_and_merges_ties(self):
        s = CounterSeries.from_events([(2.0, 5.0), (1.0, 1.0), (2.0, 3.0)])
        assert list(s.times) == [1.0, 2.0]
        assert list(s.values) == [1.0, 9.0]

    def test_signed_deltas_model_a_depth_series(self):
        s = CounterSeries.from_events(
            [(0.0, 1.0), (1.0, 1.0), (2.0, -1.0), (3.0, -1.0)])
        assert s.at(1.5) == 2.0
        assert s.at(3.0) == 0.0

    def test_window_of_mass_brackets_the_growth(self):
        s = CounterSeries.from_events([(float(i), 1.0) for i in range(100)])
        t0, t1 = s.window_of_mass()
        assert 0.0 <= t0 < t1 <= 99.0
        assert t0 >= 4.0 and t1 <= 95.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CounterSeries([1.0], [1.0, 2.0])


class TestSpanTable:
    def test_interning_and_rows(self):
        t = SpanTable.from_rows([
            (0, "reduce", 0.0, 1.0, 0, None),
            (1, "reduce", 0.2, 1.1, 0, None),
            (0, "barrier", 2.0, 2.5, 0, {"k": 1}),
        ])
        assert len(t) == 3
        assert t.names == ["reduce", "barrier"]
        assert list(t.name_id) == [0, 0, 1]
        assert (t.rank[2], t.args[2]) == (0, {"k": 1})

    def test_empty(self):
        assert len(SpanTable.empty()) == 0


class TestInflightCoverage:
    def test_union_of_intervals(self):
        msgs = {
            "src": np.array([0, 0], dtype=np.int32),
            "dst": np.array([1, 1], dtype=np.int32),
            "nbytes": np.array([8, 8], dtype=np.int64),
            "t_send": np.array([1.0, 2.0]),
            "t_recv": np.array([3.0, 4.0]),
        }
        tl = Timeline(world_size=2, makespan=10.0, messages=msgs)
        assert tl.inflight_coverage(1, 0.0, 10.0) == pytest.approx(3.0)
        assert tl.inflight_coverage(1, 0.0, 0.5) == 0.0
        assert tl.inflight_coverage(0, 0.0, 10.0) == 0.0

    def test_unreceived_message_covers_to_makespan(self):
        msgs = {
            "src": np.array([0], dtype=np.int32),
            "dst": np.array([1], dtype=np.int32),
            "nbytes": np.array([8], dtype=np.int64),
            "t_send": np.array([6.0]),
            "t_recv": np.array([np.nan]),
        }
        tl = Timeline(world_size=2, makespan=10.0, messages=msgs)
        assert tl.inflight_coverage(1, 0.0, 10.0) == pytest.approx(4.0)


class TestFromRun:
    def test_layers_present(self, fig5_timelines):
        tl, _ = fig5_timelines
        s = tl.layer_summary()
        assert s["spans"]["rows"] > 0
        assert s["events"]["messages"] > 0
        assert s["events"]["collectives"] > 0
        assert tl.source == "run"
        assert tl.pml["coll"]["messages"] > 0
        # NIC cumulative series straight off the hardware counters.
        assert tl.counter_keys("nic:xmit:")

    def test_pml_layer_equals_trace_reconstruction(self, fig5_timelines):
        """Every message is one PML record, so the live totals and
        epochs equal the recording's monitored rows per category."""
        tl_run, tl_trace = fig5_timelines
        assert tl_run.pml == tl_trace.pml
        assert tl_run.pml["coll"]["epoch"] == tl_run.pml["coll"]["messages"]

    def test_nic_series_matches_counters(self, instrumented_fig5,
                                         fig5_timelines):
        engine, _, _, _ = instrumented_fig5
        tl, _ = fig5_timelines
        nic = engine.network.nic
        for node in range(nic.n_nodes):
            key = f"nic:xmit:node{node}"
            if key in tl.counters:
                assert tl.counter(key).total == nic.total_xmit_bytes(node)

    def test_link_alpha_from_params(self, fig5_timelines):
        tl, _ = fig5_timelines
        assert set(tl.link_alpha) == set(tl.link_classes())
        assert all(a > 0 for a in tl.link_alpha.values())
        # Deeper (closer) classes have smaller latency than cluster.
        assert tl.link_alpha["cluster"] == max(tl.link_alpha.values())


class TestFromTrace:
    def test_no_resimulation_join_matches_run(self, fig5_timelines,
                                              fig5_live_counters):
        tl_run, tl_trace = fig5_timelines
        assert tl_trace.source == "trace"
        assert tl_trace.world_size == tl_run.world_size
        assert tl_trace.makespan == pytest.approx(tl_run.makespan)
        # The correlation keys line up across ingestion paths: same
        # link classes, identical per-class byte totals ...
        assert tl_trace.link_classes() == tl_run.link_classes()
        for cls in tl_run.link_classes():
            assert tl_trace.link_bytes(cls) == tl_run.link_bytes(cls)
        assert tl_trace.pml["coll"]["bytes"] == tl_run.pml["coll"]["bytes"]
        # ... and they are the totals the live PML hook accumulated,
        # message by message, through the network's own route table.
        live = {key.split("link=")[1].rstrip("}"): value
                for key, value in fig5_live_counters.items()
                if key.startswith("repro_net_link_bytes_total")}
        assert live == {cls: tl_trace.link_bytes(cls)
                        for cls in tl_trace.link_classes()}

    def test_nic_issued_counts_what_the_nic_saw(self, instrumented_fig5,
                                                fig5_timelines):
        """``nic:issued:node<N>`` books cross-node messages only, like
        the hardware counter it approximates: intra-node traffic (two
        thirds of this run's bytes) never reaches the NIC."""
        engine, _, _, _ = instrumented_fig5
        _, tl = fig5_timelines
        nic = engine.network.nic
        assert nic.n_nodes == 2
        for node in range(nic.n_nodes):
            assert tl.counter(f"nic:issued:node{node}").total \
                == nic.total_xmit_bytes(node) > 0

    def test_link_bytes_match_trace_byte_matrix(self, instrumented_fig5,
                                                fig5_timelines):
        _, _, trace, _ = instrumented_fig5
        _, tl = fig5_timelines
        total = sum(tl.link_bytes(c) for c in tl.link_classes())
        assert total == int(trace.byte_matrix().sum())

    def test_span_names_subset_of_live(self, fig5_timelines):
        tl_run, tl_trace = fig5_timelines
        assert set(tl_trace.spans.names) <= set(tl_run.spans.names)

    def test_collective_arrivals_cover_participants(self, fig5_timelines):
        _, tl = fig5_timelines
        inst = max(tl.collectives, key=lambda c: len(c.arrivals))
        assert set(inst.arrivals) == set(inst.ranks)
        assert inst.t_end >= max(inst.arrivals.values())

    def test_waits_match_recv_events(self, instrumented_fig5,
                                     fig5_timelines):
        _, _, trace, _ = instrumented_fig5
        _, tl = fig5_timelines
        n_recv = sum(1 for ev in trace.events if ev[0] == "R")
        assert len(tl.waits) == n_recv
        assert all(w.t1 >= w.t0 for w in tl.waits)

    def test_markers_ahead_of_every_timed_event_sit_at_zero(self):
        """A rank's B / E before its first timed event sits at 0.0, also
        in a trace with no timed event at all (such a file loads)."""
        from tests.replay.conftest import columns_of
        from tests.replay.test_columnar import _hand_built

        base = _hand_built()
        for timed in ([], [("F", 0, 2.5, 0.5)]):
            trace = base._with_columns(columns_of(timed + [
                ("B", 1, 7, "bcast", "binomial", 0, 4096, 2), ("E", 1)]))
            (inst,) = Timeline.from_trace(trace).collectives
            assert inst.arrivals == {1: 0.0} and inst.t_end == 0.0

    def test_as_finished_spans_roundtrip(self, fig5_timelines):
        _, tl = fig5_timelines
        rows = tl.as_finished_spans()
        assert len(rows) == len(tl.spans)
        rank, name, t0, t1, depth, args = rows[0]
        assert isinstance(rank, int) and isinstance(name, str)
        assert t1 >= t0


def _collective_rows(tl):
    """A timeline's collective span rows ``(rank, name, t0, t1)``, sorted
    (the dotted names are placement.reorder's phases)."""
    return sorted((int(r), tl.spans.names[i], t0, t1)
                  for r, i, t0, t1 in zip(tl.spans.rank, tl.spans.name_id,
                                          tl.spans.t0.tolist(),
                                          tl.spans.t1.tolist())
                  if "." not in tl.spans.names[i])


def _arrivals(tl):
    return [(c.comm_id, c.index, c.arrivals, c.t_end)
            for c in tl.collectives]


def _probe_run():
    """barrier; rank 0 computes for 1 ms; bcast — on 48 ranks, with obs
    on and the run recorded."""
    from repro import obs
    from repro.replay import autorecord
    from repro.simmpi import Cluster, Engine

    def prog(comm):
        yield from comm.co_barrier()
        if comm.rank == 0:
            yield from comm.co_compute(1e-3)
        yield from comm.co_bcast(None, root=0, nbytes=4096)

    _, spans = obs.enable()
    try:
        with autorecord.capture() as traces:
            engine = Engine(Cluster.plafrim(2), seed=0)
            engine.run(prog)
    finally:
        obs.disable()
    return engine, spans, traces[0]


class TestOneRecordOfCollectives:
    """A collective's span and arrival clocks are the recorded ones: the
    live run's spans (which obs reads back from the recording) and a
    timeline of the trace file alone agree to the bit."""

    def test_fig5_spans_and_arrivals_agree(self, fig5_timelines):
        tl_run, tl_trace = fig5_timelines
        assert _collective_rows(tl_run) == _collective_rows(tl_trace)
        assert _arrivals(tl_run) == _arrivals(tl_trace)

    def test_a_span_after_compute_starts_after_it(self, tmp_path):
        engine, spans, trace = _probe_run()
        tl_run = Timeline.from_run(engine, spans=spans, trace=trace)
        path = str(tmp_path / "probe.trace")
        trace.dump(path)
        tl_file = Timeline.from_trace(ReplayTrace.load(path))
        assert _collective_rows(tl_run) == _collective_rows(tl_file)
        assert _arrivals(tl_run) == _arrivals(tl_file)
        (bcast,) = [c for c in tl_file.collectives if c.op == "bcast"]
        assert bcast.arrivals[0] > 1e-3 > bcast.arrivals[1]


class TestHandBuilt:
    def test_direct_construction_defaults(self):
        tl = Timeline(world_size=4, makespan=1.0)
        assert tl.link_classes() == []
        assert tl.waits == [] and tl.gaps == []
        assert tl.layer_summary()["events"]["messages"] == 0
