"""Unit tests for the hardware topology tree."""

import pytest

from repro.simmpi.topology import Topology


@pytest.fixture
def plafrim4():
    return Topology([("node", 4), ("socket", 2), ("core", 12)])


class TestShape:
    def test_n_pus(self, plafrim4):
        assert plafrim4.n_pus == 96

    def test_depth(self, plafrim4):
        assert plafrim4.depth == 3

    def test_arities(self, plafrim4):
        assert plafrim4.arities == [4, 2, 12]

    def test_level_names(self, plafrim4):
        assert plafrim4.level_names == ["node", "socket", "core"]

    def test_single_level(self):
        topo = Topology([("node", 5)])
        assert topo.n_pus == 5
        assert topo.depth == 1

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            Topology([])

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            Topology([("node", 0)])

    def test_duplicate_level_names_rejected(self):
        with pytest.raises(ValueError):
            Topology([("x", 2), ("x", 3)])


class TestCoords:
    def test_first_pu(self, plafrim4):
        assert plafrim4.coords(0) == (0, 0, 0)

    def test_last_pu(self, plafrim4):
        assert plafrim4.coords(95) == (3, 1, 11)

    def test_middle(self, plafrim4):
        # PU 30 = node 1 (24..47), socket 0 (24..35), core 6
        assert plafrim4.coords(30) == (1, 0, 6)

    def test_out_of_range(self, plafrim4):
        with pytest.raises(ValueError):
            plafrim4.coords(96)
        with pytest.raises(ValueError):
            plafrim4.coords(-1)

    def test_component_of(self, plafrim4):
        assert plafrim4.component_of(30, "node") == 1
        assert plafrim4.component_of(30, "socket") == 2
        assert plafrim4.component_of(30, "core") == 30

    def test_node_of(self, plafrim4):
        assert plafrim4.node_of(0) == 0
        assert plafrim4.node_of(24) == 1
        assert plafrim4.node_of(95) == 3

    def test_n_components(self, plafrim4):
        assert plafrim4.n_components("node") == 4
        assert plafrim4.n_components("socket") == 8
        assert plafrim4.n_components("core") == 96

    def test_unknown_level(self, plafrim4):
        with pytest.raises(ValueError):
            plafrim4.component_of(0, "rack")


class TestDistances:
    def test_same_pu(self, plafrim4):
        assert plafrim4.common_depth(5, 5) == 3
        assert plafrim4.common_level_name(5, 5) == "self"
        assert plafrim4.hop_distance(5, 5) == 0

    def test_same_socket(self, plafrim4):
        assert plafrim4.common_level_name(0, 11) == "socket"
        assert plafrim4.hop_distance(0, 11) == 2

    def test_same_node_cross_socket(self, plafrim4):
        assert plafrim4.common_level_name(0, 12) == "node"
        assert plafrim4.hop_distance(0, 12) == 4

    def test_cross_node(self, plafrim4):
        assert plafrim4.common_level_name(0, 24) == "cluster"
        assert plafrim4.hop_distance(0, 24) == 6

    def test_symmetry(self, plafrim4):
        for a, b in [(0, 11), (3, 40), (95, 1)]:
            assert plafrim4.common_depth(a, b) == plafrim4.common_depth(b, a)

    @pytest.mark.parametrize("levels", [
        [("node", 4), ("socket", 2), ("core", 12)],
        [("core", 5)],
        [("rack", 2), ("node", 3), ("socket", 1), ("core", 2)],
    ])
    def test_all_pairs_at_once_agree_with_one_pair_at_a_time(self, levels):
        topo = Topology(levels)
        pus = range(topo.n_pus)
        a = [x for x in pus for _ in pus]
        b = [y for _ in pus for y in pus]
        depths = topo.common_depths(a, b).tolist()
        assert depths == [topo.common_depth(x, y) for x, y in zip(a, b)]
        assert [topo.sharing_classes[d] for d in depths] == \
            [topo.common_level_name(x, y) for x, y in zip(a, b)]
        assert topo.common_depths([], []).tolist() == []
        for bad in (-1, topo.n_pus):
            with pytest.raises(ValueError):
                topo.common_depths([0, bad], [0, 0])
            with pytest.raises(ValueError):
                topo.common_depths([0, 0], [bad, 0])

    def test_equality_and_hash(self, plafrim4):
        same = Topology([("node", 4), ("socket", 2), ("core", 12)])
        other = Topology([("node", 4), ("socket", 2), ("core", 6)])
        assert plafrim4 == same
        assert hash(plafrim4) == hash(same)
        assert plafrim4 != other
