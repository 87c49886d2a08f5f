"""End-to-end: an instrumented engine run populates the registry."""

import contextlib

import numpy as np
import pytest

from repro import obs
from repro.simmpi import SUM, Cluster, Engine, Topology


@pytest.fixture
def enabled():
    registry, spans = obs.enable()
    try:
        yield registry, spans
    finally:
        obs.disable()


def small_engine(n_ranks=8, seed=0):
    topo = Topology([("node", 2), ("socket", 2), ("core", 4)])
    return Engine(Cluster(topo, n_ranks), seed=seed)


def monitored_mix(comm):
    from repro.core import Flags, MonitoringSession, monitoring

    me, n = comm.rank, comm.size
    with monitoring():
        with MonitoringSession(comm) as mon:
            comm.barrier()
            comm.bcast(None, root=0, nbytes=10_000 if me == 0 else None)
            comm.allreduce(np.float64(me), SUM)
            comm.sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                          sendtag=0, recvtag=0, nbytes=4_000)
        mon.free()


class TestEngineMetrics:
    def test_disabled_engine_carries_no_observer(self):
        engine = small_engine()
        assert engine._obs is None
        assert engine._rr is None
        assert engine._observe is None

    def test_run_publishes_engine_counters(self, enabled):
        registry, _ = enabled
        engine = small_engine()
        assert engine._obs is not None
        engine.run(monitored_mix)
        snap = registry.snapshot()
        counters = snap["counters"]

        assert counters["repro_engine_runs_total"] == 1
        assert counters["repro_engine_context_switches_total"] == \
            engine.switches > 0
        # Threaded core: the resumes/switches pair is degenerate.
        assert counters["repro_engine_resumes_total"] == engine.switches
        assert counters["repro_engine_messages_total"] == \
            engine.messages > 0
        assert counters["repro_engine_deferred_sends_total"] > 0
        assert counters["repro_engine_handoffs_elided_total{kind=self}"] >= 0
        assert counters["repro_engine_handoffs_elided_total{kind=phantom}"] >= 0

        gauges = snap["gauges"]
        assert gauges["repro_engine_virtual_makespan_seconds"] == \
            engine.max_clock > 0
        assert 1 <= gauges["repro_engine_ready_queue_depth_max"] < engine.n_ranks

        depth = snap["histograms"]["repro_engine_ready_queue_depth"]
        assert depth["count"] > 0

    def test_eventloop_run_publishes_scheduler_metrics(self, enabled):
        """A generator program feeds the same registry: the
        resumes/switches counter pair must agree (bit-exact scheduling)
        and the per-virtual-second rate gauge must be consistent with
        the published makespan."""
        registry, _ = enabled
        topo = Topology([("node", 2), ("socket", 2), ("core", 4)])
        engine = Engine(Cluster(topo, 8), seed=0)

        def prog(comm):
            me, n = comm.rank, comm.size
            yield from comm.co_barrier()
            yield from comm.co_sendrecv(
                None, dest=(me + 1) % n, source=(me - 1) % n, nbytes=4_000)
            yield from comm.co_allreduce(np.float64(me), SUM)

        engine.run(prog)
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["repro_engine_resumes_total"] == engine.resumes > 0
        assert counters["repro_engine_resumes_total"] == \
            counters["repro_engine_context_switches_total"]
        gauges = snap["gauges"]
        assert gauges["repro_engine_resumes_per_virtual_second"] == \
            pytest.approx(engine.resumes / engine.max_clock)
        assert gauges["repro_engine_virtual_makespan_seconds"] == \
            engine.max_clock
        # Ready-queue depth sampling works for generator programs too: parks
        # go through the same note_block tap.
        assert snap["histograms"]["repro_engine_ready_queue_depth"]["count"] > 0

    def test_per_link_totals_match_network(self, enabled):
        registry, _ = enabled
        engine = small_engine()
        engine.run(monitored_mix)
        counters = registry.snapshot()["counters"]
        link_msgs = {
            k.split("link=")[-1].rstrip("}"): v
            for k, v in counters.items()
            if k.startswith("repro_net_link_messages_total")
        }
        assert set(link_msgs) <= set(engine.network.route_classes)
        assert sum(link_msgs.values()) == engine.messages
        link_bytes = sum(
            v for k, v in counters.items()
            if k.startswith("repro_net_link_bytes_total"))
        assert link_bytes > 0

    def test_pml_category_totals_published(self, enabled):
        registry, _ = enabled
        engine = small_engine()
        engine.run(monitored_mix)
        counters = registry.snapshot()["counters"]
        # The monitored window recorded both collective and p2p traffic.
        assert counters["repro_pml_recorded_messages_total{category=coll}"] > 0
        assert counters["repro_pml_recorded_messages_total{category=p2p}"] > 0
        assert counters["repro_pml_recorded_bytes_total{category=p2p}"] >= \
            8 * 4_000
        epochs = registry.snapshot()["gauges"]
        assert epochs["repro_pml_epoch{category=coll}"] > 0

    def test_collective_spans_recorded_per_rank(self, enabled):
        _, spans = enabled
        engine = small_engine(n_ranks=4)

        def prog(comm):
            comm.barrier()
            comm.bcast(None, root=0, nbytes=1_000 if comm.rank == 0 else None)
            comm.allgather(None, nbytes=2_000, algorithm="ring")

        engine.run(prog)
        names = {s[1] for s in spans.finished if isinstance(s[0], int)}
        assert "barrier" in names
        assert "bcast" in names
        # An explicit algorithm shows up in the span name.
        assert "allgather[ring]" in names
        # Every rank got a lane; the wall lane holds engine.run.
        assert set(spans.lanes()) == {0, 1, 2, 3, "wall"}
        wall_names = {s[1] for s in spans.finished if s[0] == "wall"}
        assert "engine.run" in wall_names

    def test_session_lifecycle_counters(self, enabled):
        registry, _ = enabled
        engine = small_engine(n_ranks=4)
        engine.run(monitored_mix)
        counters = registry.snapshot()["counters"]
        # Each of the 4 ranks installs a runtime, then creates and
        # frees one session inside it.
        assert counters["repro_session_events_total{event=create}"] == 4
        assert counters["repro_session_events_total{event=free}"] == 4
        assert counters["repro_session_events_total{event=runtime_install}"] == 4
        assert counters["repro_session_events_total{event=runtime_finalize}"] == 4

    def test_link_accounting_sees_every_message(self, enabled):
        from repro.replay import autorecord, compile_trace

        registry, _ = enabled
        with autorecord.capture() as traces:
            engine = small_engine(n_ranks=4)
            engine.run(lambda comm: comm.barrier())
        # The PML hook's per-link totals, the engine's own counter and
        # the recorded trace agree on how many messages flowed.
        counters = registry.snapshot()["counters"]
        link_msgs = sum(
            v for k, v in counters.items()
            if k.startswith("repro_net_link_messages_total"))
        assert (link_msgs == engine.messages
                == compile_trace(traces[0]).n_messages == 8)

    def test_a_raising_run_still_counts_what_it_sent(self, enabled):
        """Counters come from the recording, also of a run that raised:
        its link totals are the messages it got onto the wire."""
        from repro.simmpi import RankFailure

        registry, _ = enabled
        engine = small_engine()

        def prog(comm):
            me, n = comm.rank, comm.size
            comm.barrier()
            comm.sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                          nbytes=3_000)
            if me == 5:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(RankFailure):
            engine.run(prog)
        counters = registry.snapshot()["counters"]
        link = {kind: sum(v for k, v in counters.items()
                          if k.startswith(f"repro_net_link_{kind}_total"))
                for kind in ("messages", "bytes")}
        assert counters["repro_engine_runs_total"] == 1
        assert link["messages"] == engine.messages > 8
        assert link["bytes"] >= 3_000


def _osc_mix(comm):
    me, n = comm.rank, comm.size
    comm.barrier()
    win = comm.win_create(np.zeros(8), nbytes=64)
    win.fence()
    win.put(np.ones(2), target=(me + 3) % n, nbytes=16)
    win.fence()
    if me % 2:
        win.get(target=(me + 4) % n, nbytes=48)
    win.fence()
    comm.engine.pml.set_mode(2)
    comm.bcast(None, root=1, nbytes=20_000 if me == 1 else None, segments=2)
    comm.sendrecv(None, dest=(me + 5) % n, source=(me - 5) % n, nbytes=900)


def test_link_totals_are_the_per_message_sums():
    """The link counters, summed from the recording's rows, equal a
    per-message walk through the network's own route table, to the
    bit: the loop obs ran live before it read the recording."""
    from repro.replay import autorecord

    registry, _ = obs.enable()
    try:
        with autorecord.capture() as traces:
            engine = small_engine()
            engine.run(_osc_mix)
    finally:
        obs.disable()
    net, n = engine.network, engine.n_ranks
    want = {"messages": {}, "bytes": {}, "latency_seconds": {}}
    for ev in traces[0].events:
        if ev[0] in ("S", "P", "G"):
            src, dst = (ev[2], ev[1]) if ev[0] == "G" else (ev[1], ev[2])
            cls = net.sharing_class(src, dst)
            for kind, x in (("messages", 1), ("bytes", ev[3]),
                            ("latency_seconds", net._alpha_l[src * n + dst])):
                want[kind][cls] = want[kind].get(cls, 0) + x
    counters = registry.snapshot()["counters"]
    for kind, per_class in want.items():
        got = {cls: counters[f"repro_net_link_{kind}_total{{link={cls}}}"]
               for cls in per_class}
        assert got == per_class
        assert [v.hex() for v in got.values() if isinstance(v, float)] == \
            [v.hex() for v in per_class.values() if isinstance(v, float)]

def _observed_run(obs_on: bool, record: bool, tmp_path):
    """(link-class counters, dumped trace bytes) of one ``_osc_mix`` run."""
    from repro.replay import autorecord

    if obs_on:
        registry, _ = obs.enable()
    try:
        with contextlib.ExitStack() as stack:
            traces = (stack.enter_context(autorecord.capture()) if record
                      else None)
            engine = small_engine()
            engine.run(_osc_mix)
        links = ({k: v for k, v in registry.snapshot()["counters"].items()
                  if k.startswith("repro_net_link_")} if obs_on else None)
    finally:
        if obs_on:
            obs.disable()
    if not record:
        return links, None
    path = tmp_path / f"obs{int(obs_on)}.trace"
    traces[0].dump(str(path))
    return links, path.read_bytes()


def test_obs_and_recorder_share_the_slot_without_changing_either(tmp_path):
    """With both taps on, the engine fans each message out to both: the
    link-class counters equal an obs-only run's and the trace bytes a
    recording-only run's."""
    links_both, trace_both = _observed_run(True, True, tmp_path)
    links_obs, _ = _observed_run(True, False, tmp_path)
    _, trace_rec = _observed_run(False, True, tmp_path)
    assert links_both == links_obs
    assert len(links_both) >= 6          # two classes at least, three kinds
    assert trace_both == trace_rec
