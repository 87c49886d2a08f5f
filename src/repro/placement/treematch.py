"""TreeMatch process placement over a hierarchical topology.

Given a communication matrix and an hwloc-style tree, compute a
process→PU placement that keeps heavy-communicating processes under
the same subtree (socket, node).  Two variants are provided:

* ``bottom_up`` — the classic TreeMatch algorithm (Jeannot, Mercier,
  Tessier, TPDS 2014; the paper's [11]): group processes by the arity
  of the deepest level, aggregate the matrix, and repeat up to the
  root.  Requires that every allowed component is either fully occupied
  or untouched (the common one-rank-per-core case); processes are
  padded with zero-affinity fakes when fewer than the leaf count.

* ``top_down`` — a constrained recursive variant for *partially*
  occupied trees (e.g. the paper's CG runs: 64 ranks on 3 nodes of 24
  cores leave 8 cores idle): at each component, partition the processes
  into its children's exact occupancies with the same greedy grouping
  kernel, largest subtree first.

``algorithm="auto"`` (default) picks ``bottom_up`` when applicable.
Both accept dense NumPy or ``scipy.sparse`` matrices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.placement.grouping import (
    Matrix,
    aggregate_matrix,
    greedy_group,
    issparse,
    refine_groups,
    symmetrize,
)
from repro.simmpi.topology import Topology

__all__ = ["treematch", "TreeMatchError"]


#: Above this many items per level the swap-refinement pass is
#: skipped (quadratic cost; greedy alone is used, as TreeMatch
#: falls back to greedy for large instances).
_REFINE_LIMIT = 256


class TreeMatchError(ValueError):
    """Invalid placement request (bad matrix, too few PUs...)."""


def treematch(
    matrix: Matrix,
    topology: Topology,
    allowed_pus: Optional[Sequence[int]] = None,
    algorithm: str = "auto",
    refine: bool = True,
) -> List[int]:
    """Compute a placement: returns ``placement[p] = PU`` for each
    process ``p``, using only PUs from ``allowed_pus`` (default: all).

    The matrix entry ``(i, j)`` is the affinity (bytes or message
    count) between processes i and j; it is symmetrized internally.
    ``refine`` enables a Kernighan-Lin swap pass after each greedy
    grouping (skipped automatically on very large levels).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise TreeMatchError(f"matrix must be square, got {matrix.shape}")
    pus = sorted(set(int(p) for p in (allowed_pus if allowed_pus is not None
                                      else range(topology.n_pus))))
    if not pus:
        raise TreeMatchError("no allowed PUs")
    for p in pus:
        if not 0 <= p < topology.n_pus:
            raise TreeMatchError(f"PU {p} outside the topology")
    if n > len(pus):
        raise TreeMatchError(f"{n} processes but only {len(pus)} allowed PUs")
    if n == 1:
        return [pus[0]]

    if algorithm == "auto":
        algorithm = "bottom_up" if _is_fully_occupied(topology, pus) else "top_down"
    if algorithm == "bottom_up":
        if not _is_fully_occupied(topology, pus):
            raise TreeMatchError(
                "bottom_up requires fully occupied components; use top_down"
            )
        return _bottom_up(matrix, topology, pus, refine)
    if algorithm == "top_down":
        return _top_down(matrix, topology, pus, refine)
    raise TreeMatchError(f"unknown algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# occupancy analysis


def _components_by_level(topology: Topology, pus: Sequence[int]):
    """For each depth d (1..depth), the occupied components in canonical
    order with their occupied-PU lists."""
    depth = topology.depth
    levels: List[Dict[int, List[int]]] = []
    strides = [1]
    for a in reversed(topology.arities):
        strides.append(strides[-1] * a)
    strides = list(reversed(strides))  # strides[d] = leaves under a depth-d comp
    for d in range(1, depth + 1):
        stride = strides[d]
        comps: Dict[int, List[int]] = {}
        for p in pus:
            comps.setdefault(p // stride, []).append(p)
        levels.append(dict(sorted(comps.items())))
    return levels, strides


def _is_fully_occupied(topology: Topology, pus: Sequence[int]) -> bool:
    """True iff every component touched by ``pus`` is completely filled."""
    levels, strides = _components_by_level(topology, pus)
    bottom = levels[-1]
    stride = strides[topology.depth]
    assert stride == 1
    # A touched bottom-level component must contain all its PUs, and
    # recursively: checking the bottom level suffices only for leaves;
    # check all levels.
    for d in range(1, topology.depth + 1):
        per_comp = strides[d]
        for comp, members in levels[d - 1].items():
            if len(members) != per_comp:
                return False
    return True


# ---------------------------------------------------------------------------
# classic bottom-up TreeMatch


def _bottom_up(matrix: Matrix, topology: Topology, pus: Sequence[int],
               refine: bool = True) -> List[int]:
    n = matrix.shape[0]
    m = len(pus)
    W = symmetrize(matrix)
    if m > n:
        W = _pad(W, m)  # fake, zero-affinity processes fill spare cores

    # items[i] is the ordered list of processes currently fused into
    # one object; the nested order becomes the leaf order at the end.
    items: List[List[int]] = [[p] for p in range(m)]

    arities = topology.arities
    depth = topology.depth
    for d in range(depth - 1, -1, -1):
        if len(items) == 1:
            break
        arity = arities[d]
        n_groups = len(items) // arity
        if n_groups == 0:
            n_groups, arity = 1, len(items)
        sizes = [arity] * n_groups
        groups = greedy_group(W, sizes)
        if refine and len(items) <= _REFINE_LIMIT:
            groups = refine_groups(W, groups)
        items = [sum((items[i] for i in g), []) for g in groups]
        W = aggregate_matrix(W, groups)

    flat = [p for item in items for p in item]
    assert len(flat) == m
    placement = [-1] * n
    for slot, proc in enumerate(flat):
        if proc < n:  # drop the fakes
            placement[proc] = pus[slot]
    return placement


def _pad(W: Matrix, m: int) -> Matrix:
    n = W.shape[0]
    if issparse(W):
        from scipy.sparse import lil_matrix

        out = lil_matrix((m, m), dtype=np.float64)
        out[:n, :n] = W
        return out.tocsr()
    out = np.zeros((m, m), dtype=np.float64)
    out[:n, :n] = W
    return out


# ---------------------------------------------------------------------------
# constrained top-down variant


def _top_down(matrix: Matrix, topology: Topology, pus: Sequence[int],
              refine: bool = True) -> List[int]:
    n = matrix.shape[0]
    m = len(pus)
    W = symmetrize(matrix)
    if m > n:
        W = _pad(W, m)

    placement = [-1] * n
    all_procs = np.arange(m)
    _split(W, all_procs, topology, pus, 1, placement, n, refine)
    return placement


def _split(
    W: Matrix,
    procs: np.ndarray,
    topology: Topology,
    pus: Sequence[int],
    depth: int,
    placement: List[int],
    n_real: int,
    refine: bool = True,
) -> None:
    """Recursively partition ``procs`` over the occupied children of
    the current subtree (identified by its occupied ``pus``)."""
    if len(procs) == 1:
        proc = int(procs[0])
        if proc < n_real:
            placement[proc] = pus[0]
        return
    if depth > topology.depth:
        # Several procs on one PU cannot happen: occupancy bounds sizes.
        raise TreeMatchError("internal: recursion below the leaves")

    stride = 1
    for a in topology.arities[depth:]:
        stride *= a
    children: Dict[int, List[int]] = {}
    for p in pus:
        children.setdefault(p // stride, []).append(p)
    kids = sorted(children.items(), key=lambda kv: (-len(kv[1]), kv[0]))

    if len(kids) == 1:
        _split(W, procs, topology, kids[0][1], depth + 1, placement, n_real,
               refine)
        return

    sizes = [len(members) for _, members in kids]
    sub = W[np.ix_(procs, procs)] if not issparse(W) else W[procs][:, procs].tocsr()
    groups = greedy_group(sub, sizes)
    if refine and len(procs) <= _REFINE_LIMIT:
        groups = refine_groups(sub, groups)
    for (comp, members), group in zip(kids, groups):
        sub_procs = procs[np.asarray(group, dtype=np.intp)]
        _split(W, sub_procs, topology, members, depth + 1, placement, n_real,
               refine)
