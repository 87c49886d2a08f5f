"""Unit tests for the hierarchical network cost model and NIC counters."""

import numpy as np
import pytest

from repro.simmpi.network import LinkParams, Network, NetworkParams, plafrim_params
from repro.simmpi.nic import NicCounters
from repro.simmpi.topology import Topology


@pytest.fixture
def topo():
    return Topology([("node", 2), ("socket", 2), ("core", 2)])  # 8 PUs


def simple_params(**kw):
    defaults = dict(
        links={
            "cluster": LinkParams(1e-6, 1e9),
            "node": LinkParams(5e-7, 2e9),
            "socket": LinkParams(2e-7, 4e9),
            "self": LinkParams(1e-7, 1e10),
        },
        send_overhead=0.0,
        recv_overhead=0.0,
    )
    defaults.update(kw)
    return NetworkParams(**defaults)


class TestLinkSelection:
    def test_classes(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        assert net.sharing_class(0, 1) == "socket"
        assert net.sharing_class(0, 2) == "node"
        assert net.sharing_class(0, 4) == "cluster"
        assert net.sharing_class(3, 3) == "self"

    def test_fallback_to_deeper_level(self, topo):
        params = NetworkParams(links={"cluster": LinkParams(1e-6, 1e9),
                                      "self": LinkParams(1e-7, 1e10)})
        # "socket" undefined: falls through to "self".
        lp = params.link_for("socket", topo)
        assert lp.bandwidth == 1e10

    def test_no_coverage_raises(self, topo):
        params = NetworkParams(links={"cluster": LinkParams(1e-6, 1e9)})
        with pytest.raises(ValueError):
            params.link_for("node", topo)

    def test_unknown_class_raises(self, topo):
        params = simple_params()
        with pytest.raises(ValueError):
            params.link_for("rack", topo)

    def test_bad_link_params(self):
        with pytest.raises(ValueError):
            LinkParams(-1e-6, 1e9)
        with pytest.raises(ValueError):
            LinkParams(1e-6, 0)


class TestTransfer:
    def test_intra_socket_cost(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        done, arrival = net.transfer(0, 1, 4_000, t_send=0.0)
        assert done == pytest.approx(1e-6)  # 4000 B / 4 GB/s
        assert arrival == pytest.approx(1e-6 + 2e-7)

    def test_cross_node_cost(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        done, arrival = net.transfer(0, 4, 1_000, t_send=0.0)
        assert done == pytest.approx(1e-6)  # 1000 B / 1 GB/s
        assert arrival == pytest.approx(2e-6)

    def test_send_overhead_applied(self, topo):
        net = Network(topo, list(range(8)),
                      simple_params(send_overhead=1e-5))
        done, _ = net.transfer(0, 1, 0, t_send=0.0)
        assert done == pytest.approx(1e-5)

    def test_negative_size_rejected(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        with pytest.raises(ValueError):
            net.transfer(0, 1, -5, 0.0)

    def test_nic_serialization(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        # Two cross-node messages from the same node: the second waits
        # for the first to clear the NIC.
        done1, _ = net.transfer(0, 4, 1_000_000, 0.0)
        done2, _ = net.transfer(1, 5, 1_000_000, 0.0)
        assert done2 == pytest.approx(done1 + 1e-3)

    def test_nic_serialization_disabled(self, topo):
        net = Network(topo, list(range(8)),
                      simple_params(nic_serialize=False))
        done1, _ = net.transfer(0, 4, 1_000_000, 0.0)
        done2, _ = net.transfer(1, 5, 1_000_000, 0.0)
        assert done2 == pytest.approx(done1)

    def test_intra_node_does_not_touch_nic(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        net.transfer(0, 1, 1_000_000, 0.0)
        assert net.nic.total_xmit_bytes(0) == 0

    def test_cross_node_charges_counters(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        net.transfer(0, 4, 12_345, 0.0)
        assert net.nic.total_xmit_bytes(0) == 12_345
        assert net.nic.total_xmit_bytes(1) == 0

    def test_memory_contention_serializes_same_node(self, topo):
        net = Network(topo, list(range(8)),
                      simple_params(mem_bandwidth=1e9))
        done1, _ = net.transfer(0, 1, 1_000_000, 0.0)
        done2, _ = net.transfer(2, 3, 1_000_000, 0.0)
        # Both transfers live on node 0: the second starts after the
        # first's 1 ms memory reservation.
        assert done2 >= 1e-3

    def test_memory_contention_other_node_free(self, topo):
        net = Network(topo, list(range(8)),
                      simple_params(mem_bandwidth=1e9))
        net.transfer(0, 1, 1_000_000, 0.0)
        done2, _ = net.transfer(4, 5, 1_000_000, 0.0)
        assert done2 == pytest.approx(0.00025)  # unaffected by node 0


class TestJitter:
    def test_no_jitter_is_deterministic(self, topo):
        net = Network(topo, list(range(8)), simple_params())
        a = net.transfer(0, 4, 1000, 0.0)
        net2 = Network(topo, list(range(8)), simple_params())
        assert a == net2.transfer(0, 4, 1000, 0.0)

    def test_jitter_seeded(self, topo):
        p = simple_params(jitter=0.1)
        a = Network(topo, list(range(8)), p, seed=1).transfer(0, 4, 1000, 0.0)
        b = Network(topo, list(range(8)), p, seed=1).transfer(0, 4, 1000, 0.0)
        c = Network(topo, list(range(8)), p, seed=2).transfer(0, 4, 1000, 0.0)
        assert a == b
        assert a != c

    def test_the_generator_is_built_by_the_first_draw(self, topo):
        """Lazy, but the same stream an eager ``default_rng(seed)``
        gives."""
        p = simple_params(jitter=0.1)
        net = Network(topo, list(range(8)), p, seed=7)
        assert net._rng is None
        want = np.exp(np.random.default_rng(7).normal(0.0, 0.1, 5)).tolist()
        assert net.jitter_factors(5) == want
        assert Network(topo, list(range(8)), simple_params())._rng is None


class TestNicCounters:
    def test_read_before_any_event(self):
        nic = NicCounters(2)
        assert nic.xmit_bytes(0, 100.0) == 0

    def test_cumulative_read_at_time(self):
        nic = NicCounters(1)
        nic.record_xmit(0, 1.0, 100)
        nic.record_xmit(0, 2.0, 50)
        assert nic.xmit_bytes(0, 0.5) == 0
        assert nic.xmit_bytes(0, 1.0) == 100
        assert nic.xmit_bytes(0, 5.0) == 150

    def test_lane_units(self):
        nic = NicCounters(1, lanes=4)
        nic.record_xmit(0, 1.0, 400)
        assert nic.port_xmit_data(0, 2.0) == 100
        assert nic.port_xmit_data(0, 2.0) * nic.lanes == 400

    def test_out_of_order_clamped_monotone(self):
        nic = NicCounters(1)
        nic.record_xmit(0, 2.0, 10)
        nic.record_xmit(0, 1.0, 20)  # recorded late, clamped to t=2
        assert nic.xmit_bytes(0, 1.5) == 0  # both events clamp to t=2.0
        assert nic.xmit_bytes(0, 2.0) == 30

    def test_rcv_counters_independent(self):
        nic = NicCounters(2)
        nic.record_rcv(1, 1.0, 77)
        assert nic.rcv_bytes(1, 2.0) == 77
        assert nic.xmit_bytes(1, 2.0) == 0

    def test_events_history(self):
        nic = NicCounters(1)
        nic.record_xmit(0, 1.0, 5)
        nic.record_xmit(0, 3.0, 5)
        assert nic.xmit_events(0) == [(1.0, 5), (3.0, 10)]

    def test_bad_node(self):
        nic = NicCounters(1)
        with pytest.raises(ValueError):
            nic.xmit_bytes(5, 0.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NicCounters(0)
        with pytest.raises(ValueError):
            NicCounters(1, lanes=0)


def test_plafrim_preset_has_mem_contention():
    p = plafrim_params()
    assert p.mem_bandwidth is not None
    assert "cluster" in p.links and "socket" in p.links


@pytest.mark.parametrize("binding", [
    list(range(8)), [0, 4, 1, 5, 2, 6, 3, 7], [3, 2, 1, 0], [5], [6, 7],
    [0, 2, 4, 6], [7, 3, 6, 2, 5, 1, 4, 0]])
def test_route_classes_are_the_row_major_first_appearances(binding):
    """Every sharing class some pair reaches, in the order a row-major
    walk over all pairs first meets it."""
    topo = Topology([("node", 2), ("socket", 2), ("core", 2)])
    net = Network(topo, binding, simple_params())
    walk = [net._common_depth(s, d)
            for s in range(len(binding)) for d in range(len(binding))]
    want = tuple(topo.sharing_classes[d] for d in dict.fromkeys(walk))
    assert net.route_classes == want


def test_lazy_views_resolve_after_a_pickle_round_trip():
    import pickle

    topo = Topology([("node", 2), ("socket", 2), ("core", 2)])
    net = Network(topo, list(range(8)), simple_params(jitter=0.1), seed=2)
    before = [net._pair_l[k] for k in range(64)]
    thawed = pickle.loads(pickle.dumps(net))
    assert thawed._pair_l._net() is thawed
    assert [thawed._pair_l[k] for k in range(64)] == before
    assert thawed.sharing_class(0, 7) == net.sharing_class(0, 7)
