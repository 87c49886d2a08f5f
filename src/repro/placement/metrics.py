"""Placement quality metrics: hop-bytes, per-level traffic, modeled cost.

These are the objective functions process placement optimizes
(Hoefler/Jeannot/Mercier, the paper's [9]): given a communication
matrix and where each rank sits, how many bytes cross each topology
level?  Rank reordering succeeds exactly when it moves bytes from the
``cluster`` row (inter-node) to the ``node``/``socket`` rows.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.simmpi.network import NetworkParams
from repro.simmpi.topology import Topology

__all__ = ["hop_bytes", "level_bytes", "inter_node_bytes", "modeled_cost"]


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    return m


def _traffic(matrix, topology: Topology, rank_pus: Sequence[int]):
    """The matrix's non-zero entries in row-major order, and for each
    the depth of the deepest component its two PUs share.

    The metrics below add their terms up in that order, one after the
    other (``np.cumsum(...)[-1]``, not the pairwise ``np.sum``), so each
    value is the one a double loop over the matrix gives, to the bit.
    """
    m = _as_matrix(matrix)
    src, dst = np.nonzero(m)
    pus = np.asarray(rank_pus, dtype=np.int64)
    return m[src, dst], topology.common_depths(pus[src], pus[dst])


def hop_bytes(matrix, topology: Topology, rank_pus: Sequence[int]) -> float:
    """Σ bytes(i,j) · tree-distance(pu_i, pu_j)."""
    vals, depth = _traffic(matrix, topology, rank_pus)
    if not len(vals):
        return 0.0
    return np.cumsum(vals * (2 * (topology.depth - depth)))[-1]


def level_bytes(matrix, topology: Topology, rank_pus: Sequence[int]) -> Dict[str, float]:
    """Bytes broken down by the sharing class of each pair.

    Keys: ``"cluster"`` (inter-node), each intermediate level name,
    and ``"self"``.
    """
    vals, depth = _traffic(matrix, topology, rank_pus)
    out: Dict[str, float] = {"cluster": 0.0, "self": 0.0}
    for name in topology.level_names[:-1]:
        out[name] = 0.0
    for d, name in enumerate(topology.sharing_classes):
        mine = vals[depth == d]
        if len(mine):
            out[name] = np.cumsum(mine)[-1]
    return out


def inter_node_bytes(matrix, topology: Topology, rank_pus: Sequence[int]) -> float:
    """Bytes crossing node boundaries — what the NIC (and the paper's
    reordering) cares about."""
    return level_bytes(matrix, topology, rank_pus)["cluster"]


def modeled_cost(
    matrix,
    topology: Topology,
    rank_pus: Sequence[int],
    params: NetworkParams,
) -> float:
    """Total serial transfer time of the matrix under the link model.

    A coarse surrogate (ignores overlap), useful to rank placements:
    Σ bytes(i,j) / bandwidth(class(i,j)).
    """
    vals, depth = _traffic(matrix, topology, rank_pus)
    if not len(vals):
        return 0.0
    names = topology.sharing_classes
    bandwidth = np.zeros(len(names))
    for d in np.unique(depth).tolist():   # only the classes in use
        bandwidth[d] = params.link_for(names[d], topology).bandwidth
    return np.cumsum(vals / bandwidth[depth])[-1]
