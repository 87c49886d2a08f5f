"""Hand-computed ground truth for the placement metrics and baselines.

Every expected value here is worked out on paper from a tiny matrix
and the 8-PU ``(node 2, socket 2, core 2)`` tree, so a regression in
``hop_distance`` weighting, level attribution or the cost surrogate
shows up as a wrong *number*, not just a changed ordering.

Tree distances on that topology: same PU 0, same socket 2, same node
(other socket) 4, other node 6.
"""

import itertools

import numpy as np
import pytest

from repro.placement.baselines import (
    greedy_edge_placement,
    identity_placement,
    local_search_placement,
    round_robin_placement,
)
from repro.placement.metrics import (
    hop_bytes,
    inter_node_bytes,
    level_bytes,
    modeled_cost,
)
from repro.simmpi.network import LinkParams, NetworkParams
from repro.simmpi.topology import Topology


@pytest.fixture
def topo():
    return Topology([("node", 2), ("socket", 2), ("core", 2)])  # 8 PUs


@pytest.fixture
def matrix4():
    # ranks:     0     1     2     3
    m = np.array([[0,   100,    0,    7],
                  [0,     0,   40,    0],
                  [0,     0,    0,    3],
                  [60,    0,    0,    0]], dtype=float)
    return m


class TestHandComputedMetrics:
    def test_hop_bytes_identity(self, topo, matrix4):
        # PUs 0,1,2,3: (0,1) same socket d=2; (0,3),(3,0) same node d=4;
        # (1,2) same node d=4; (2,3) same socket d=2.
        # 100*2 + 7*4 + 40*4 + 3*2 + 60*4 = 200+28+160+6+240 = 634
        assert hop_bytes(matrix4, topo, [0, 1, 2, 3]) == 634.0

    def test_hop_bytes_cross_node(self, topo, matrix4):
        # PUs 0,1,4,5: (0,1) d=2; (0,3)->(0,5) d=6; (1,2)->(1,4) d=6;
        # (2,3)->(4,5) d=2; (3,0)->(5,0) d=6.
        # 100*2 + 7*6 + 40*6 + 3*2 + 60*6 = 200+42+240+6+360 = 848
        assert hop_bytes(matrix4, topo, [0, 1, 4, 5]) == 848.0

    def test_hop_bytes_self_traffic_is_free(self, topo):
        m = np.diag([1e9, 1e9])
        assert hop_bytes(m, topo, [0, 4]) == 0.0

    def test_level_bytes_breakdown(self, topo, matrix4):
        # PUs 0,1,2,6: (0,1) socket; (0,3)->(0,6) cluster;
        # (1,2) node; (2,3)->(2,6) cluster; (3,0)->(6,0) cluster.
        lb = level_bytes(matrix4, topo, [0, 1, 2, 6])
        assert lb == {"cluster": 7.0 + 3.0 + 60.0, "node": 40.0,
                      "socket": 100.0, "self": 0.0}

    def test_inter_node_bytes_matches_level_bytes(self, topo, matrix4):
        for pus in ([0, 1, 2, 3], [0, 1, 4, 5], [0, 2, 4, 6]):
            assert inter_node_bytes(matrix4, topo, pus) == \
                level_bytes(matrix4, topo, pus)["cluster"]

    def test_modeled_cost_exact(self, topo):
        # Distinct bandwidths per class so each term is attributable.
        params = NetworkParams(links={
            "cluster": LinkParams(latency=0.0, bandwidth=10.0),
            "node": LinkParams(latency=0.0, bandwidth=100.0),
            "socket": LinkParams(latency=0.0, bandwidth=1000.0),
            "self": LinkParams(latency=0.0, bandwidth=10000.0),
        })
        m = np.zeros((4, 4))
        m[0, 1] = 50.0   # socket  -> 50/1000
        m[1, 2] = 30.0   # node    -> 30/100
        m[2, 3] = 20.0   # socket  -> 20/1000
        m[3, 3] = 40.0   # self    -> 40/10000
        cost = modeled_cost(m, topo, [0, 1, 2, 3], params)
        assert cost == pytest.approx(0.05 + 0.3 + 0.02 + 0.004)

    def test_modeled_cost_cross_node(self, topo):
        params = NetworkParams(links={
            "cluster": LinkParams(latency=0.0, bandwidth=10.0),
            "self": LinkParams(latency=0.0, bandwidth=10000.0),
        })
        m = np.zeros((2, 2))
        m[0, 1] = 70.0
        # PUs on different nodes: 70/10; "node"-class falls back to
        # "self" (the next-cheaper defined level) when placed together.
        assert modeled_cost(m, topo, [0, 4], params) == pytest.approx(7.0)
        assert modeled_cost(m, topo, [0, 1], params) == pytest.approx(0.007)


class TestLocalSearch:
    def test_improves_a_bad_start(self, topo):
        # Ranks 0 and 1 exchange everything; start them on different
        # nodes.  One swap (rank 1 <-> rank 2) makes the pair adjacent.
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1000.0
        start = [0, 4, 1, 5]  # hop_bytes = 2000*6 = 12000
        out = local_search_placement(m, topo, start=start)
        assert sorted(out) == sorted(start)
        assert hop_bytes(m, topo, out) == 2000.0 * 2  # same socket

    def test_reaches_two_opt_optimum(self, topo):
        # Brute-force the best reachable-by-swaps assignment for a
        # small instance and check the search lands on a placement no
        # pairwise swap can improve.
        rng = np.random.default_rng(3)
        m = rng.integers(0, 50, (5, 5)).astype(float)
        np.fill_diagonal(m, 0.0)
        pus = [0, 1, 2, 4, 6]
        out = local_search_placement(m, topo, start=pus)
        base = hop_bytes(m, topo, out)
        for i, j in itertools.combinations(range(5), 2):
            swapped = list(out)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert hop_bytes(m, topo, swapped) >= base - 1e-9

    def test_never_worse_than_greedy_start(self, topo):
        rng = np.random.default_rng(11)
        for trial in range(5):
            m = rng.integers(0, 100, (8, 8)).astype(float)
            np.fill_diagonal(m, 0.0)
            greedy = greedy_edge_placement(m, topo)
            refined = local_search_placement(m, topo)
            assert sorted(refined) == sorted(greedy)
            assert hop_bytes(m, topo, refined) <= \
                hop_bytes(m, topo, greedy) + 1e-9

    def test_start_length_validated(self, topo):
        with pytest.raises(ValueError):
            local_search_placement(np.zeros((3, 3)), topo, start=[0, 1])


class TestBaselineShapes:
    def test_all_baselines_are_valid_placements(self, topo):
        m = np.ones((6, 6)) - np.eye(6)
        for pl in (identity_placement(6, topo),
                   round_robin_placement(6, topo),
                   greedy_edge_placement(m, topo),
                   local_search_placement(m, topo)):
            assert len(pl) == 6
            assert len(set(pl)) == 6
            assert all(0 <= p < topo.n_pus for p in pl)

    def test_allowed_pus_respected(self, topo):
        allowed = [1, 3, 5, 7]
        m = np.ones((4, 4)) - np.eye(4)
        for pl in (identity_placement(4, topo, allowed),
                   round_robin_placement(4, topo, allowed),
                   greedy_edge_placement(m, topo, allowed),
                   local_search_placement(m, topo, allowed)):
            assert sorted(pl) == allowed


# ---------------------------------------------------------------------------
# the vectorised metrics against the double loops they replaced


def _loop_hop_bytes(m, topology, rank_pus):
    total = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            if m[i, j]:
                total += m[i, j] * topology.hop_distance(rank_pus[i],
                                                         rank_pus[j])
    return total


def _loop_level_bytes(m, topology, rank_pus):
    out = {"cluster": 0.0, "self": 0.0}
    for name in topology.level_names[:-1]:
        out[name] = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            if m[i, j]:
                cls = topology.common_level_name(rank_pus[i], rank_pus[j])
                out[cls] = out.get(cls, 0.0) + m[i, j]
    return out


def _loop_modeled_cost(m, topology, rank_pus, params):
    total = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            if m[i, j]:
                cls = topology.common_level_name(rank_pus[i], rank_pus[j])
                total += m[i, j] / params.link_for(cls, topology).bandwidth
    return total


def _bits(value):
    return (type(value), float(value).hex())


class TestVectorisedMetricsEqualTheLoops:
    """Same terms, same order of addition: every value to the bit (the
    terms are floats of every magnitude, so a pairwise or reordered sum
    would differ in the last place)."""

    TOPOLOGIES = (
        [("node", 4), ("socket", 2), ("core", 3)],
        [("node", 3), ("core", 5)],
        [("core", 6)],
        [("rack", 2), ("node", 2), ("socket", 2), ("l3", 1), ("core", 2)],
    )

    @pytest.mark.parametrize("levels", TOPOLOGIES,
                             ids=lambda lv: "x".join(str(a) for _, a in lv))
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_bit_identical(self, levels, density):
        from repro.simmpi.network import plafrim_params

        topology = Topology(levels)
        params = plafrim_params()
        rng = np.random.default_rng([len(levels), int(density * 100)])
        for n in (1, 2, topology.n_pus // 2, topology.n_pus):
            m = rng.random((n, n)) * 10.0 ** rng.integers(-3, 12, (n, n))
            m[rng.random((n, n)) >= density] = 0.0
            # shared PUs and a rank on its own PU's diagonal: "self"
            pus = rng.integers(0, topology.n_pus, n).tolist()
            assert _bits(hop_bytes(m, topology, pus)) == \
                _bits(_loop_hop_bytes(m, topology, pus))
            got = level_bytes(m, topology, pus)
            want = _loop_level_bytes(m, topology, pus)
            assert list(got) == list(want)
            assert {k: _bits(v) for k, v in got.items()} == \
                {k: _bits(v) for k, v in want.items()}
            assert _bits(modeled_cost(m, topology, pus, params)) == \
                _bits(_loop_modeled_cost(m, topology, pus, params))

    def test_pu_out_of_range_and_uncovered_class(self, topo):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="out of range"):
            hop_bytes(m, topo, [0, 8])
        # A rank that exchanges nothing is never looked at, as before.
        assert hop_bytes(m, topo, [0, 1, 99]) == 2.0
        # Only the classes traffic uses need link parameters.
        cluster_only = NetworkParams(links={"cluster": LinkParams(1e-6, 1e9)})
        assert modeled_cost(m, topo, [0, 4], cluster_only) == 1e-9
        with pytest.raises(ValueError, match="no link parameters"):
            modeled_cost(m, topo, [0, 1], cluster_only)
