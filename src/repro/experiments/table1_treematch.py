"""Paper Table 1 (§7): TreeMatch computation time for large matrices.

Wall-clock time of the mapping computation for communication matrices
of order 8192 – 65536 (paper: 2.6 s, 6.3 s, 20.9 s, 88.7 s).  The
matrices are *structured sparse* (ring + random long-range partners):
a dense 65536² float64 array would need ~34 GB, and placement-relevant
communication matrices are sparse in practice — TreeMatch itself
exploits that (documented substitution, DESIGN.md §6).

The orders run at each scale are the ``table1`` grid in
:mod:`repro.sweep.registry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from repro.experiments.common import render_table
from repro.placement.treematch import treematch
from repro.simmpi.topology import Topology

__all__ = ["TreeMatchTiming", "synthetic_comm_matrix", "run_order", "report"]


@dataclass
class TreeMatchTiming:
    order: int
    seconds: float


def synthetic_comm_matrix(n: int, long_range: int = 12, seed: int = 0) -> sp.csr_matrix:
    """A sparse affinity matrix with locality structure: heavy ring
    neighbours plus ``long_range`` random lighter partners per row."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    rows = []
    cols = []
    vals = []
    idx = np.arange(n)
    # heavy nearest-neighbour traffic
    for shift, w in ((1, 1000.0), (2, 250.0)):
        rows.append(idx)
        cols.append((idx + shift) % n)
        vals.append(np.full(n, w))
    # light random long-range traffic
    for _ in range(long_range):
        rows.append(idx)
        cols.append(rng.integers(0, n, size=n))
        vals.append(rng.uniform(1.0, 50.0, size=n))
    m = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    m.setdiag(0)
    m.eliminate_zeros()
    return m


def topology_for(n: int) -> Topology:
    """A PlaFRIM-like tree large enough for n processes."""
    nodes = -(-n // 24)
    return Topology([("node", nodes), ("socket", 2), ("core", 12)])


def run_order(n: int, seed: int = 0) -> TreeMatchTiming:
    """Time the mapping computation for one matrix order (real
    wall-clock, not virtual) — usable as a sweep cell."""
    matrix = synthetic_comm_matrix(n, seed=seed)
    topo = topology_for(n)
    pus = list(range(n))  # the first n cores, possibly partial last node
    t0 = time.perf_counter()
    placement = treematch(matrix, topo, allowed_pus=pus)
    dt = time.perf_counter() - t0
    assert sorted(placement) == pus
    return TreeMatchTiming(order=n, seconds=dt)


def report(timings: List[TreeMatchTiming]) -> str:
    paper = {8192: 2.6, 16384: 6.3, 32768: 20.9, 65536: 88.7}
    rows = [
        (t.order, round(t.seconds, 2), paper.get(t.order, "-"))
        for t in timings
    ]
    return render_table(
        ["matrix order", "measured (s)", "paper (s)"],
        rows,
        title="Table 1 — TreeMatch reordering computation time",
    )
