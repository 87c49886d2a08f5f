"""Tests for the greedy grouping kernel and matrix helpers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.grouping import aggregate_matrix, greedy_group, symmetrize


def clique_matrix(n_cliques, size, strong=100.0, weak=0.1):
    n = n_cliques * size
    m = np.full((n, n), weak)
    for c in range(n_cliques):
        s = c * size
        m[s : s + size, s : s + size] = strong
    np.fill_diagonal(m, 0.0)
    return m


class TestSymmetrize:
    def test_makes_symmetric_zero_diagonal(self):
        m = np.array([[5.0, 1.0], [3.0, 7.0]])
        w = symmetrize(m)
        assert np.array_equal(w, [[0.0, 4.0], [4.0, 0.0]])

    def test_sparse_input(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        w = symmetrize(m)
        assert sp.issparse(w)
        assert w[0, 1] == 2.0 and w[1, 0] == 2.0
        assert w.diagonal().sum() == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


class TestGreedyGroup:
    def test_recovers_cliques(self):
        w = symmetrize(clique_matrix(3, 4))
        groups = greedy_group(w, [4, 4, 4])
        assert sorted(map(tuple, groups)) == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)
        ]

    def test_prescribed_uneven_sizes(self):
        w = symmetrize(clique_matrix(2, 3))
        groups = greedy_group(w, [4, 2])
        assert len(groups[0]) == 4 and len(groups[1]) == 2
        assert sorted(sum(groups, [])) == list(range(6))

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        w = symmetrize(rng.random((10, 10)))
        groups = greedy_group(w, [3, 3, 2, 2])
        flat = sorted(sum(groups, []))
        assert flat == list(range(10))

    def test_sparse_matches_dense(self):
        w = symmetrize(clique_matrix(2, 4))
        dense = greedy_group(w, [4, 4])
        sparse = greedy_group(symmetrize(sp.csr_matrix(clique_matrix(2, 4))),
                              [4, 4])
        assert sorted(map(tuple, dense)) == sorted(map(tuple, sparse))

    def test_sizes_must_sum(self):
        w = symmetrize(clique_matrix(2, 2))
        with pytest.raises(ValueError):
            greedy_group(w, [3, 3])

    def test_sizes_must_be_positive(self):
        w = symmetrize(clique_matrix(2, 2))
        with pytest.raises(ValueError):
            greedy_group(w, [4, 0])

    def test_singleton_groups(self):
        w = symmetrize(clique_matrix(1, 3))
        groups = greedy_group(w, [1, 1, 1])
        assert sorted(sum(groups, [])) == [0, 1, 2]


class TestAggregate:
    def test_group_affinity_sums(self):
        w = np.array([
            [0, 5, 1, 0],
            [5, 0, 0, 2],
            [1, 0, 0, 9],
            [0, 2, 9, 0],
        ], dtype=float)
        agg = aggregate_matrix(w, [[0, 1], [2, 3]])
        # Cross-group affinity: w[0,2]+w[0,3]+w[1,2]+w[1,3] = 1+0+0+2.
        assert agg[0, 1] == 3.0
        assert agg[1, 0] == 3.0
        assert agg[0, 0] == 0.0  # diagonal cleared

    def test_sparse_aggregate(self):
        w = sp.csr_matrix(np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0]],
                                   dtype=float))
        agg = aggregate_matrix(w, [[0], [1, 2]])
        assert sp.issparse(agg)
        assert agg[0, 1] == 3.0


def _scipy_aggregate(w, groups):
    """``S @ W @ S.T`` through scipy, as ``aggregate_matrix`` computed it
    for dense input before it stopped importing scipy there."""
    n, g = w.shape[0], len(groups)
    rows = [gi for gi, members in enumerate(groups) for _ in members]
    cols = [m for members in groups for m in members]
    s = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g, n))
    out = np.asarray(s @ w @ s.T)
    np.fill_diagonal(out, 0.0)
    return out


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), max_groups=st.integers(1, 200),
       integral=st.booleans(), exponent=st.floats(-3.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_dense_aggregate_is_scipys_bit_for_bit(n, max_groups, integral,
                                               exponent, seed):
    """The numpy sum adds in scipy's order, so TreeMatch on a dense
    matrix places exactly as it did when it went through scipy."""
    rng = np.random.default_rng(seed)
    values = (rng.integers(0, 1000, (n, n)) if integral
              else rng.random((n, n)))
    w = values * 10.0 ** exponent
    labels = rng.integers(0, min(max_groups, n), n)
    groups = [rng.permutation(np.flatnonzero(labels == k)).tolist()
              for k in range(labels.max() + 1)]
    groups = [members for members in groups if members]
    got = aggregate_matrix(w, groups)
    want = _scipy_aggregate(w, groups)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
