"""Tests for scan/exscan/reduce_scatter collectives."""

import numpy as np
import pytest

from repro.simmpi import MAX, RankFailure, SUM
from repro.simmpi.op import Op
from tests.conftest import run_spmd

SIZES = [1, 2, 3, 4, 5, 8]


class TestScan:
    @pytest.mark.parametrize("n", SIZES)
    def test_inclusive_prefix_sum(self, n):
        def prog(comm):
            return float(comm.scan(np.float64(comm.rank + 1), SUM))

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [sum(range(1, i + 2)) for i in range(n)]

    def test_scan_max(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]

        def prog(comm):
            return float(comm.scan(np.float64(values[comm.rank]), MAX))

        results, _ = run_spmd(prog, n_ranks=8)
        expected = [max(values[: i + 1]) for i in range(8)]
        assert results == expected

    def test_scan_vector(self):
        def prog(comm):
            v = np.full(3, float(comm.rank))
            return comm.scan(v, SUM).tolist()

        results, _ = run_spmd(prog, n_ranks=4)
        assert results[3] == [6.0, 6.0, 6.0]
        assert results[0] == [0.0, 0.0, 0.0]

    def test_scan_abstract_traffic_recorded(self):
        def prog(comm):
            comm.engine.pml.set_mode(2)
            comm.scan(None, SUM, nbytes=100)

        _, engine = run_spmd(prog, n_ranks=8)
        count, size = engine.pml.totals("coll")
        # Hillis-Steele: rank i sends in round k iff i + 2^k < n.
        expected = sum(1 for k in range(3) for i in range(8) if i + 2**k < 8)
        assert count == expected
        assert size == expected * 100


class TestExscan:
    @pytest.mark.parametrize("n", SIZES)
    def test_exclusive_prefix_sum(self, n):
        def prog(comm):
            out = comm.exscan(np.float64(comm.rank + 1), SUM)
            return None if out is None else float(out)

        results, _ = run_spmd(prog, n_ranks=n)
        assert results[0] is None
        for i in range(1, n):
            assert results[i] == sum(range(1, i + 1))

    def test_exscan_then_scan_relationship(self):
        def prog(comm):
            v = np.float64(2 ** comm.rank)
            inc = float(comm.scan(v, SUM))
            exc = comm.exscan(v, SUM)
            exc = 0.0 if exc is None else float(exc)
            return inc - exc  # must equal the local value

        results, _ = run_spmd(prog, n_ranks=6)
        assert results == [float(2 ** i) for i in range(6)]


class TestReduceScatter:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_pow2_recursive_halving(self, n):
        def prog(comm):
            # values[j] = rank * 10 + j: result at rank j = sum over
            # ranks of (rank*10 + j).
            values = [np.float64(comm.rank * 10 + j) for j in range(comm.size)]
            return float(comm.reduce_scatter(values, SUM))

        results, _ = run_spmd(prog, n_ranks=n)
        base = 10 * sum(range(n))
        assert results == [base + n * j for j in range(n)]

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_non_pow2_fallback(self, n):
        def prog(comm):
            values = [np.float64(j) for j in range(comm.size)]
            return float(comm.reduce_scatter(values, SUM))

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [float(n * j) for j in range(n)]

    def test_vector_items(self):
        def prog(comm):
            values = [np.full(2, float(comm.rank + j)) for j in range(comm.size)]
            return comm.reduce_scatter(values, SUM).tolist()

        results, _ = run_spmd(prog, n_ranks=4)
        # result at rank j = sum over ranks of (rank + j)
        assert results == [[6.0 + 4 * j] * 2 for j in range(4)]

    @pytest.mark.parametrize("op", [SUM, Op("second", lambda a, b: b)])
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_arrays_are_copied_not_shared(self, op, n):
        # A partner may keep a piece it was sent (an op can return an
        # operand): writes right after the call, to the values or to
        # the result, change what no other rank gets.
        def prog(comm, write):
            values = [np.full(2, float(comm.rank * 10 + j))
                      for j in range(comm.size)]
            got = comm.reduce_scatter(values, op)
            seen = got.tolist()
            if write:
                for v in values:
                    v[:] = -1
                got[:] = -2
            return seen

        quiet, _ = run_spmd(lambda comm: prog(comm, False), n_ranks=n)
        results, _ = run_spmd(lambda comm: prog(comm, True), n_ranks=n)
        assert results == quiet

    def test_wrong_value_count(self):
        def prog(comm):
            comm.reduce_scatter([1.0], SUM)

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=3)

    def test_single_rank(self):
        def prog(comm):
            return float(comm.reduce_scatter([np.float64(7)], SUM))

        results, _ = run_spmd(prog, n_ranks=1)
        assert results == [7.0]
