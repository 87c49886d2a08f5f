"""Greedy affinity grouping — TreeMatch's ``GroupProcesses`` kernel.

Given a symmetric affinity matrix and a list of prescribed group sizes,
build groups that keep as much affinity as possible *inside* groups.
Greedy strategy (the one TreeMatch falls back to when exhaustive search
is too expensive): seed each group with the ungrouped item having the
largest remaining affinity, then repeatedly add the ungrouped item with
the strongest connection to the group.

Works on dense NumPy matrices and on ``scipy.sparse`` matrices (used
for the very large communication matrices of the paper's Table 1,
where a dense 65536² array would need ~34 GB).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

__all__ = ["greedy_group", "refine_groups", "symmetrize", "aggregate_matrix"]

Matrix = Union[np.ndarray, "scipy.sparse.spmatrix"]


def issparse(matrix) -> bool:
    """``scipy.sparse.issparse`` without importing scipy (DESIGN.md
    "Import rule"): a sparse matrix cannot exist before its module does."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(matrix)


def symmetrize(matrix: Matrix) -> Matrix:
    """Affinity view of a (possibly asymmetric) traffic matrix: M + Mᵀ."""
    if issparse(matrix):
        out = (matrix + matrix.T).tocsr()
        out.setdiag(0)
        out.eliminate_zeros()
        return out
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"affinity matrix must be square, got {m.shape}")
    out = m + m.T
    np.fill_diagonal(out, 0.0)
    return out


def _add_row(vec: np.ndarray, W: Matrix, j: int, sign: float) -> None:
    """vec += sign * W[j], exploiting sparsity (CSR row slicing)."""
    if issparse(W):
        start, end = W.indptr[j], W.indptr[j + 1]
        idx = W.indices[start:end]
        if sign > 0:
            np.add.at(vec, idx, W.data[start:end])
        else:
            np.subtract.at(vec, idx, W.data[start:end])
    else:
        if sign > 0:
            vec += W[j]
        else:
            vec -= W[j]


def greedy_group(W: Matrix, sizes: Sequence[int]) -> List[List[int]]:
    """Partition ``range(n)`` into groups of the prescribed ``sizes``.

    ``W`` must be symmetric with a zero diagonal (see
    :func:`symmetrize`).  Groups are built in the order given —
    callers pass sizes largest-first so the biggest (hardest) group
    gets first pick.  Returns the groups in that same order, each
    sorted ascending.
    """
    n = W.shape[0]
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError(f"group sizes must be >= 1: {sizes}")
    if sum(sizes) != n:
        raise ValueError(f"group sizes sum to {sum(sizes)}, need {n}")

    ungrouped = np.ones(n, dtype=bool)
    # rem[i] = affinity of i to the currently ungrouped items; used to
    # seed groups around communication hot-spots.
    if issparse(W):
        rem = np.asarray(W.sum(axis=1)).ravel().astype(np.float64)
    else:
        rem = W.sum(axis=1).astype(np.float64)

    neg_inf = -np.inf
    groups: List[List[int]] = []
    for size in sizes:
        # Seed: the hottest remaining item.
        masked = np.where(ungrouped, rem, neg_inf)
        seed = int(np.argmax(masked))
        group = [seed]
        ungrouped[seed] = False
        _add_row(rem, W, seed, -1.0)
        conn = np.zeros(n, dtype=np.float64)
        _add_row(conn, W, seed, +1.0)
        # Grow: strongest connection to the group so far.
        while len(group) < size:
            masked = np.where(ungrouped, conn, neg_inf)
            nxt = int(np.argmax(masked))
            group.append(nxt)
            ungrouped[nxt] = False
            _add_row(rem, W, nxt, -1.0)
            _add_row(conn, W, nxt, +1.0)
        groups.append(sorted(group))
    return groups


def aggregate_matrix(W: Matrix, groups: Sequence[Sequence[int]]) -> Matrix:
    """Affinity between groups: Wg = S W Sᵀ with S the group indicator.

    A dense ``W`` is summed with numpy, rows then columns, over each
    group's members in ascending order: scipy's CSR order, so the result
    is ``S @ W @ S.T`` bit for bit.  Only a sparse ``W`` builds ``S``."""
    n = W.shape[0]
    g = len(groups)
    members = [sorted(int(m) for m in grp) for grp in groups]
    if issparse(W):
        from scipy.sparse import csr_matrix

        rows = [gi for gi, ms in enumerate(members) for _ in ms]
        cols = [m for ms in members for m in ms]
        S = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g, n))
        out = (S @ W @ S.T).tocsr()
        out.setdiag(0)
        out.eliminate_zeros()
        return out
    W = np.asarray(W, dtype=np.float64)
    SW = np.zeros((g, n))
    for gi, ms in enumerate(members):
        for m in ms:
            SW[gi] += W[m]
    out = np.zeros((g, g))
    for gj, ms in enumerate(members):
        for m in ms:
            out[:, gj] += SW[:, m]
    np.fill_diagonal(out, 0.0)
    return out


def refine_groups(W, groups, max_passes: int = 4):
    """Pairwise-swap hill climbing on a grouping (Kernighan-Lin style).

    Greedy grouping is order-sensitive; one refinement pass repairs
    most of its local mistakes.  Group sizes are preserved.  Sparse
    inputs are densified when small (refinement targets per-level
    groupings) and returned unchanged otherwise.

    Vectorized: ``C[i, k]`` tracks item i's affinity to group k; the
    cut change of swapping a∈gi with b∈gj is
    ``C[a,gi] + C[b,gj] − C[a,gj] − C[b,gi] + 2·W[a,b]``, evaluated for
    all (a, b) pairs at once.
    """
    if issparse(W):
        if W.shape[0] > 4096:
            return [list(g) for g in groups]
        W = np.asarray(W.todense())
    W = np.asarray(W, dtype=np.float64)
    groups = [list(g) for g in groups]
    n = W.shape[0]
    g = len(groups)
    if g < 2:
        return [sorted(grp) for grp in groups]

    indicator = np.zeros((n, g), dtype=np.float64)
    for gi, members in enumerate(groups):
        indicator[members, gi] = 1.0
    C = W @ indicator  # C[i, k]: affinity of item i to group k

    def apply_swap(gi, ia, gj, ib):
        a, b = groups[gi][ia], groups[gj][ib]
        groups[gi][ia], groups[gj][ib] = b, a
        C[:, gi] += W[:, b] - W[:, a]
        C[:, gj] += W[:, a] - W[:, b]

    for _ in range(max_passes):
        improved = False
        for gi in range(g):
            for gj in range(gi + 1, g):
                # Every productive swap lowers the cut, so one per
                # (a, b) combination is a generous bound — and it stops
                # round-off (deltas of ~-1e-10 on 1e6-scale weights) from
                # swapping the same two items back and forth for ever.
                for _ in range(len(groups[gi]) * len(groups[gj])):
                    ga = np.asarray(groups[gi], dtype=np.intp)
                    gb = np.asarray(groups[gj], dtype=np.intp)
                    delta = (
                        C[ga, gi][:, None] + C[gb, gj][None, :]
                        - C[ga, gj][:, None] - C[gb, gi][None, :]
                        + 2.0 * W[np.ix_(ga, gb)]
                    )
                    ia, ib = np.unravel_index(np.argmin(delta), delta.shape)
                    if delta[ia, ib] >= -1e-12:
                        break
                    apply_swap(gi, int(ia), gj, int(ib))
                    improved = True
        if not improved:
            break
    return [sorted(grp) for grp in groups]
