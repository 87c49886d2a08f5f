"""The paper's shape claims (§6.1–6.5, Table 1), asserted once.

Every test computes cells the sweep registry enumerates, through the
registry's ``compute`` — the cells ``python -m repro.sweep`` and
``python -m repro.experiments`` run — so a claim is checked on the
numbers that get published, not on a private grid.
"""

import numpy as np
import pytest

from repro.experiments import fig7_cg, table1_treematch
from repro.experiments.common import render_table
from repro.sweep.registry import SweepConfig, get_scenario

SMOKE = SweepConfig(smoke=True)


def cells(name, config=SweepConfig(), keep=lambda params: True):
    """The scenario's cells under ``config`` that ``keep`` selects."""
    return [p for p in get_scenario(name).enumerate_cells(config) if keep(p)]


def report(name, results):
    return get_scenario(name).report(results)


class TestCommon:
    def test_render_table(self):
        out = render_table(["a", "bb"], [(1, 2.5), (30, 0.001)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestFig2:
    @pytest.fixture
    def smoke(self, computed):
        (params,) = cells("fig2", SMOKE)
        return computed("fig2", params)

    def test_monitors_agree(self, smoke):
        assert smoke.mon_window.sum() == smoke.total_sent
        # HW counter loses at most `lanes` bytes to integer division.
        assert abs(int(smoke.hw_window.sum()) - smoke.total_sent) <= 4
        assert smoke.max_cumulative_lag <= 4 * len(smoke.times)
        assert "introspection" in report("fig2", [smoke])

    def test_cumulative_monotone(self, smoke):
        assert (np.diff(smoke.hw_cumulative) >= 0).all()
        assert (np.diff(smoke.mon_cumulative) >= 0).all()

    def test_cumulative_curves_track_each_other(self, computed):
        """Fig. 3 on the default cell: same volume, a barely-visible
        offset."""
        (params,) = cells("fig2")
        res = computed("fig2", params)
        assert res.mon_window.sum() == res.total_sent
        assert abs(int(res.hw_window.sum()) - res.total_sent) <= 4
        # The gap is bounded by one in-flight message (800 KB).
        assert res.max_cumulative_lag <= 800_000
        # Time series are aligned sample-for-sample.
        assert len(res.times) == len(res.hw_window) == len(res.mon_window)
        corr = np.corrcoef(res.hw_cumulative, res.mon_cumulative)[0, 1]
        assert corr > 0.999


class TestFig4:
    def test_overhead_small_and_bounded(self, computed):
        pts = [computed("fig4", p) for p in cells("fig4", SMOKE)]
        assert len(pts) == 2
        for p in pts:
            assert abs(p.mean_diff_us) < 5.0  # the paper's bound
            assert p.ci95_us > 0
        assert "Fig. 4" in report("fig4", pts)


class TestFig5:
    @pytest.mark.parametrize("op", ["reduce", "bcast"])
    def test_reordering_wins(self, op, computed):
        grid = cells("fig5", SweepConfig(sizes=(5_000_000, 20_000_000)),
                     lambda c: c["op"] == op and c["n_nodes"] <= 4)
        points = [p for params in grid for p in computed("fig5", params)]
        assert {p.np_ranks for p in points} == {48, 96}
        # The reordered collective wins at every size and NP (the paper
        # reports roughly 1.5-2x for reduce, up to ~3.4x for bcast).
        for p in points:
            assert p.t_reordered < p.t_baseline, p
        best = {np_ranks: max(p.speedup for p in points
                              if p.np_ranks == np_ranks)
                for np_ranks in (48, 96)}
        assert best[48] > 1.2
        assert best[96] > 1.5
        # Gains grow (or at least persist) with the node count, as in
        # the paper's panels.
        assert best[96] >= 0.9 * best[48]
        assert "Fig. 5" in report("fig5", [points])


class TestFig6:
    def test_heatmap_shape(self, computed):
        grid = cells("fig6", SMOKE)
        by = {(c.n_ints, c.iterations): c
              for c in (computed("fig6", p) for p in grid)}
        assert len(by) == 4
        sizes = sorted({s for s, _ in by})
        iters = sorted({i for _, i in by})
        # Tiny work: reordering cost dominates (negative gain).
        assert by[(sizes[0], iters[0])].gain_percent < 0
        # Large buffers, many iterations: reordering pays off.
        assert by[(sizes[-1], iters[-1])].gain_percent > 25
        # At the largest buffer the gain rises with the iteration count.
        assert (by[(sizes[-1], iters[-1])].gain_percent
                > by[(sizes[-1], iters[0])].gain_percent)
        assert "Fig. 6" in report("fig6", list(by.values()))


class TestFig7:
    def test_ratios_above_one(self, computed):
        (params,) = cells("fig7", SMOKE)
        pt = computed("fig7", params)
        assert pt.exec_ratio > 1.0
        assert pt.comm_ratio > 1.0
        assert pt.comm_ratio > pt.exec_ratio  # comm gain drives exec gain
        assert "Fig. 7" in report("fig7", [pt])

    def test_class_and_mapping_trends(self, computed):
        """§6.5 on a miniature of the default grid (one simulated
        iteration): class B from a round-robin and a random start,
        class D from round-robin, all at 64 ranks."""
        wanted = {("B", 64, "rr"), ("B", 64, "random"), ("D", 64, "rr")}
        grid = cells("fig7", keep=lambda c: (
            c["cg_class"], c["np_ranks"], c["mapping"]) in wanted)
        assert len(grid) == len(wanted)
        by = {}
        for params in grid:
            p = computed("fig7", dict(params, sim_iters=1))
            by[(p.cg_class, p.mapping)] = p
            # Fig. 7a: "all the ratios are greater than 1"; Fig. 7b:
            # communication gains at least as large as execution gains.
            assert p.exec_ratio > 1.0, p
            assert p.comm_ratio >= 0.95 * p.exec_ratio, p
        assert max(p.comm_ratio for p in by.values()) > 1.3
        # "In case of the random mapping the gain is not better than the
        # round-robin mapping": a random start must not reach a better
        # reordered state.
        assert (by[("B", "random")].comm_reordered
                >= 0.9 * by[("B", "rr")].comm_reordered)
        # "The larger the problem ... the smaller the ratio."
        assert (by[("D", "rr")].exec_ratio
                <= 1.05 * by[("B", "rr")].exec_ratio)

    def test_nodes_for_matches_paper(self):
        assert fig7_cg.nodes_for(64) == 3
        assert fig7_cg.nodes_for(128) == 6
        assert fig7_cg.nodes_for(256) == 11
        assert fig7_cg.nodes_for(48) == 2


class TestTable1:
    def test_timings_grow_with_order(self, computed):
        orders = (1024, 2048, 4096)
        grid = cells("table1", SweepConfig(sizes=orders))
        timings = [computed("table1", p) for p in grid]
        assert tuple(t.order for t in timings) == orders
        # Superlinear growth: the paper's column grows 2.4-4.2x per
        # doubling of the order.  Wall-clock, so each order is judged by
        # its least disturbed of three runs, not by one.
        compute = get_scenario("table1").compute
        best = [min([t.seconds] + [compute(p).seconds for _ in range(2)])
                for t, p in zip(timings, grid)]
        for order, a, b in zip(orders, best, best[1:]):
            assert b > 1.3 * a, (order, a, b)
        # "Even for such large input size the time to compute the
        # reordering is less than 100 s."
        assert timings[-1].seconds < 100.0
        assert "Table 1" in report("table1", timings)

    def test_synthetic_matrix_structure(self):
        m = table1_treematch.synthetic_comm_matrix(64)
        assert m.shape == (64, 64)
        assert m.diagonal().sum() == 0
        assert m[0, 1] >= 1000  # heavy ring neighbour
