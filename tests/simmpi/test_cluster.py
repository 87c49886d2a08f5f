"""Tests for cluster presets and configuration."""

import pytest

from repro.simmpi import Cluster, Topology
from repro.simmpi.network import ib_pair_params, plafrim_params


class TestPlafrimPreset:
    def test_shape(self):
        c = Cluster.plafrim(4)
        assert c.n_ranks == 96
        assert c.n_nodes == 4
        assert c.topology.arities == [4, 2, 12]

    def test_one_rank_per_core_default(self):
        c = Cluster.plafrim(2)
        assert c.n_ranks == c.topology.n_pus == 48

    def test_custom_rank_count(self):
        c = Cluster.plafrim(3, n_ranks=64)
        assert c.n_ranks == 64
        assert c.n_nodes == 3
        # 64 ranks on 72 cores: the paper's "some cores are spared".
        assert c.topology.n_pus == 72

    def test_binding_strategies(self):
        packed = Cluster.plafrim(2, binding="packed")
        rr = Cluster.plafrim(2, binding="rr")
        assert packed.node_of_rank(1) == 0
        assert rr.node_of_rank(1) == 1

    def test_random_binding_seeded(self):
        a = Cluster.plafrim(2, binding="random", seed=1)
        b = Cluster.plafrim(2, binding="random", seed=1)
        c = Cluster.plafrim(2, binding="random", seed=2)
        assert a.binding == b.binding
        assert a.binding != c.binding


class TestIbPairPreset:
    def test_two_ranks_two_nodes(self):
        c = Cluster.ib_pair()
        assert c.n_ranks == 2
        assert c.node_of_rank(0) == 0
        assert c.node_of_rank(1) == 1


class TestConfiguration:
    def test_explicit_binding(self):
        topo = Topology([("node", 2), ("core", 4)])
        c = Cluster(topo, 3, binding=[7, 0, 4])
        assert c.binding == [7, 0, 4]
        assert c.binding_strategy == "explicit"

    def test_too_many_ranks(self):
        topo = Topology([("node", 1), ("core", 2)])
        with pytest.raises(ValueError):
            Cluster(topo, 3)

    def test_zero_ranks(self):
        topo = Topology([("node", 1), ("core", 2)])
        with pytest.raises(ValueError):
            Cluster(topo, 0)

    def test_default_params_are_plafrim(self):
        topo = Topology([("node", 2), ("core", 2)])
        c = Cluster(topo, 2)
        assert c.params.links["cluster"].bandwidth == \
            plafrim_params().links["cluster"].bandwidth

    def test_ib_pair_params_distinct(self):
        assert ib_pair_params().links["cluster"].bandwidth != \
            plafrim_params().links["cluster"].bandwidth
