"""The simulated NIC keeps one history per node, whoever writes it.

One writer appends to a node's counter series, ``_Series.add``, and two
paths reach it: ``Network.transfer``, which costs every message
(point-to-point and collective sends materialized by the engine, and
both one-sided operations), and ``NicCounters.record_xmit`` /
``record_rcv``.  The series keeps one running tail (last time, running
total), so it stays monotone and its total equals the cross-node bytes
actually sent.  A writer that skips the tail changes no clock, and one
that skips the clamp changes no total either, so only a check on the
series itself sees every such slip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.simmpi import Cluster, Engine
from repro.simmpi.nic import NicCounters

EPOCHS = 3


def _p2p_bytes(me, epoch):
    return 1_000 + 997 * ((me * 5 + epoch) % 7)


def _put_bytes(me, epoch):
    return 2_000 + 131 * ((me + 3 * epoch) % 11)


def _get_bytes(me, epoch):
    return 500 + 71 * ((me * 3 + epoch) % 13)


def _program(comm):
    """Put/get/fence epochs interleaved with deferred p2p exchanges."""
    me, n = comm.rank, comm.size
    win = yield from comm.co_win_create(np.zeros(4), nbytes=32)
    for epoch in range(EPOCHS):
        # Staggered clocks: a sender that is ahead of a runnable rank
        # defers its transfer, which then materializes later.
        yield from comm.co_compute(1e-6 * ((me * 7 + epoch) % 5))
        req = comm.irecv(source=(me - 1) % n, tag=epoch)
        yield from comm.co_isend(None, dest=(me + 1) % n, tag=epoch,
                                 nbytes=_p2p_bytes(me, epoch))
        yield from req.co_wait()
        yield from win.co_put(None, (me + 3) % n, nbytes=_put_bytes(me, epoch))
        yield from win.co_get((me + 2) % n, nbytes=_get_bytes(me, epoch))
        yield from win.co_fence()


def _expected_xmit(cluster, n_nodes):
    """Cross-node bytes each node's NIC sends, from the program alone."""
    node = cluster.node_of_rank
    n = cluster.n_ranks
    want = [0] * n_nodes
    for me in range(n):
        for epoch in range(EPOCHS):
            # (wire source, wire destination, bytes)
            for src, dst, nbytes in (
                    (me, (me + 1) % n, _p2p_bytes(me, epoch)),
                    (me, (me + 3) % n, _put_bytes(me, epoch)),
                    ((me + 2) % n, me, _get_bytes(me, epoch))):
                if node(src) != node(dst):
                    want[node(src)] += nbytes
    return want


@pytest.fixture(scope="module")
def run():
    cluster = Cluster.plafrim(3, binding="rr", jitter=0.1)
    engine = Engine(cluster, seed=5)
    net = engine.network
    # Cross-node transfers costed by Network.transfer, by caller: the
    # engine's send path or a one-sided put/get.
    cross = {"materialized": 0, "one_sided": 0}
    inside = []
    transfer, materialize = net.transfer, engine._materialize

    def counting_materialize(ps):
        inside.append(ps)
        try:
            return materialize(ps)
        finally:
            inside.pop()

    def counting_transfer(src, dst, nbytes, t_send):
        if cluster.node_of_rank(src) != cluster.node_of_rank(dst):
            cross["materialized" if inside else "one_sided"] += 1
        return transfer(src, dst, nbytes, t_send)

    net.transfer = counting_transfer
    engine._materialize = counting_materialize
    engine.run(_program)
    del net.transfer, engine._materialize
    return cluster, engine, cross


def test_both_hot_paths_wrote_the_series(run):
    """Every NIC event was written through ``Network.transfer``: one
    transmit and one receive event per cross-node transfer, from the
    send path and the one-sided operations alike."""
    _cluster, engine, cross = run
    nic = engine.network.nic
    for table in (nic._xmit, nic._rcv):
        assert sum(len(series.times) for series in table) == \
            sum(cross.values())
    assert cross["materialized"] > 0, "no cross-node send was materialized"
    assert cross["one_sided"] > 0, "no cross-node put or get"


def test_each_node_series_is_monotone_and_totals_the_bytes_sent(run):
    cluster, engine, _cross = run
    nic = engine.network.nic
    want = _expected_xmit(cluster, nic.n_nodes)
    assert sum(want) > 0
    for node in range(nic.n_nodes):
        assert nic.total_xmit_bytes(node) == want[node]
        for history in (nic.xmit_events(node), nic.rcv_events(node)):
            times = [t for t, _ in history]
            totals = [b for _, b in history]
            assert times == sorted(times)
            assert totals == sorted(totals)
        if want[node]:
            assert nic.xmit_bytes(node, float("inf")) == want[node]
    assert sum(nic.rcv_events(n)[-1][1] for n in range(nic.n_nodes)
               if nic.rcv_events(n)) == sum(want)


def test_series_are_eight_byte_typed_arrays(run):
    _cluster, engine, _cross = run
    for series in engine.network.nic._xmit + engine.network.nic._rcv:
        assert series.times.itemsize == 8
        assert series.totals.itemsize == 8


def test_array_history_pickles_and_thaws_equal(run):
    _cluster, engine, _cross = run
    nic = engine.network.nic
    thawed = pickle.loads(pickle.dumps(engine)).network.nic
    for node in range(nic.n_nodes):
        assert thawed.xmit_events(node) == nic.xmit_events(node)
        assert thawed.rcv_events(node) == nic.rcv_events(node)
        assert thawed.total_xmit_bytes(node) == nic.total_xmit_bytes(node)
    # The thawed tail still clamps and accumulates.
    last_t, last_total = nic.xmit_events(0)[-1]
    thawed.record_xmit(0, 0.0, 10)
    assert thawed.xmit_events(0)[-1] == (last_t, last_total + 10)


def test_running_total_past_int64_raises_instead_of_wrapping():
    nic = NicCounters(1)
    nic.record_xmit(0, 1.0, 2**62)
    nic.record_xmit(0, 2.0, 2**62 - 1)
    assert nic.total_xmit_bytes(0) == 2**63 - 1
    with pytest.raises(OverflowError):
        nic.record_xmit(0, 3.0, 1)
    # The failed append left the series as it was.
    assert nic.total_xmit_bytes(0) == 2**63 - 1
    assert nic.xmit_events(0) == [(1.0, 2**62), (2.0, 2**63 - 1)]


@pytest.mark.parametrize("reader", [
    lambda nic, node: nic.port_xmit_data(node, 1.0),
    lambda nic, node: nic.xmit_bytes(node, 1.0),
    lambda nic, node: nic.rcv_bytes(node, 1.0),
    lambda nic, node: nic.xmit_events(node),
    lambda nic, node: nic.rcv_events(node),
    lambda nic, node: nic.total_xmit_bytes(node),
], ids=["port_xmit_data", "xmit_bytes", "rcv_bytes", "xmit_events",
        "rcv_events", "total_xmit_bytes"])
@pytest.mark.parametrize("node", [-1, 2])
def test_every_reader_rejects_a_node_that_does_not_exist(reader, node):
    """A negative index would silently answer for node n - 1."""
    nic = NicCounters(2)
    nic.record_xmit(1, 0.5, 100)
    nic.record_rcv(1, 0.5, 100)
    with pytest.raises(ValueError, match=f"no node {node}"):
        reader(nic, node)
