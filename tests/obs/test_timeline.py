"""The cross-layer timeline store: columns, queries, both ingestions."""

import numpy as np
import pytest

from repro.obs.timeline import (CounterSeries, SpanTable, Timeline, Wait)


class TestCounterSeries:
    def test_at_and_delta(self):
        s = CounterSeries([1.0, 2.0, 4.0], [10.0, 30.0, 60.0])
        assert s.at(0.5) == 0.0
        assert s.at(1.0) == 10.0
        assert s.at(3.0) == 30.0
        assert s.at(100.0) == 60.0 == s.total
        assert s.delta(1.0, 4.0) == 50.0

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


def _table():
    return SpanTable.from_rows([
        (0, "reduce", 0.0, 1.0, 0, None),
        (1, "reduce", 0.2, 1.1, 0, None),
        (0, "barrier", 2.0, 2.5, 0, {"k": 1}),
        (1, "barrier", 2.1, 2.6, 0, None),
    ])


class TestSpanTable:
    def test_interning_and_rows(self):
        t = _table()
        assert len(t) == 4
        assert t.names == ["reduce", "barrier"]
        r = t.row(2)
        assert (r.rank, r.name, r.args) == (0, "barrier", {"k": 1})

    def test_select_window_rank_name(self):
        t = _table()
        assert len(t.select(t0=0.0, t1=1.5)) == 2
        assert len(t.select(ranks=[0])) == 2
        assert len(t.select(names=["barrier"])) == 2
        assert len(t.select(t0=2.55, t1=3.0)) == 1  # only rank 1's barrier

    def test_empty(self):
        t = SpanTable.empty()
        assert len(t) == 0
        assert list(t.select()) == []


class TestOverlapJoin:
    def test_pairs_intersect(self):
        t = _table()
        tl = Timeline(world_size=2, makespan=3.0, spans=t)
        pairs = tl.overlap_join(tl.span_indices(ranks=[0]),
                                tl.span_indices(ranks=[1]))
        # reduce0 x reduce1 and barrier0 x barrier1 overlap; the
        # cross-op pairs do not.
        assert sorted(pairs) == [(0, 1), (2, 3)]


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

    def test_window_query_narrows(self, fig5_timelines):
        tl, _ = fig5_timelines
        full = tl.span_indices()
        half = tl.span_indices(t0=0.0, t1=tl.makespan / 4)
        assert 0 < len(half) < len(full)
        ranks = {s.rank for s in tl.spans_between(ranks=[0, 1])}
        assert ranks <= {0, 1}


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

    def test_critical_path(self, instrumented_fig5, fig5_timelines):
        engine, _, _, _ = instrumented_fig5
        _, tl = fig5_timelines
        segs = tl.critical_path()
        assert segs
        last = segs[-1]
        clocks = engine.clocks()
        assert last.rank == clocks.index(max(clocks))
        assert last.t1 == pytest.approx(tl.makespan)
        assert all(0.0 <= s.t0 <= s.t1 <= tl.makespan + 1e-12 for s in segs)
        assert {s.kind for s in segs} <= {"send", "wait", "osc",
                                          "compute", "finish"}
        # A reduce run's path must cross ranks via receive-waits.
        assert len({s.rank for s in segs}) > 1

    def test_as_finished_spans_roundtrip(self, fig5_timelines):
        _, tl = fig5_timelines
        rows = tl.as_finished_spans()
        assert len(rows) == len(tl.spans)
        rank, name, t0, t1, depth, args = rows[0]
        assert isinstance(rank, int) and isinstance(name, str)
        assert t1 >= t0


class TestHandBuilt:
    def test_direct_construction_defaults(self):
        tl = Timeline(world_size=4, makespan=1.0)
        assert tl.link_classes() == []
        assert tl.waits_of(0) == []
        assert tl.rank_gaps(0) == []
        assert tl.critical_path() == []
        assert tl.layer_summary()["events"]["messages"] == 0

    def test_rank_gaps_filter(self):
        tl = Timeline(world_size=2, makespan=1.0,
                      gaps=[(0, 0.0, 0.1), (0, 0.5, 0.52), (1, 0.0, 0.3)])
        assert tl.rank_gaps(0) == [(0.0, 0.1), (0.5, 0.52)]
        assert tl.rank_gaps(0, min_gap=0.05) == [(0.0, 0.1)]

    def test_waits_of(self):
        tl = Timeline(world_size=2, makespan=1.0,
                      waits=[Wait(0, 0.0, 0.5, 0), Wait(1, 0.1, 0.2, 1)])
        assert [w.seq for w in tl.waits_of(0)] == [0]
