"""Paper Fig. 6 (§6.4): reordering gain heatmap for grouped allgathers.

Groups of ranks perform an MPI_Allgather per iteration; with the
round-robin binding every group's communicator spans all the nodes.
Per cell (buffer size × iteration count): time ``t1`` = n un-reordered
iterations, ``t2`` = the reordering itself (monitor one iteration,
gather, TreeMatch — whose computation time is charged from the Table-1
model — broadcast, split), ``t3`` = n reordered iterations.

Gain, as the paper defines it: ``100 · (t1 − (t2 + t3)) / t1``.
Negative (red) where iterations are few or buffers small — the
reordering cost is not amortized; strongly positive (green) for large
buffers and many iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.microbench import co_grouped_allgather_benchmark
from repro.core import api as mapi
from repro.core.errors import raise_for_code
from repro.experiments.common import render_table
from repro.simmpi import Cluster, Engine

__all__ = ["HeatmapCell", "run_cell", "report"]


@dataclass
class HeatmapCell:
    np_ranks: int
    n_ints: int
    iterations: int
    t1: float
    t2: float
    t3: float
    gain_percent: float


def run_cell(
    n_nodes: int,
    n_ints: int,
    iterations: int,
    group_size: int = 8,
    seed: int = 0,
) -> HeatmapCell:
    """One heatmap cell on a fresh (cold) engine — a pure function of
    its parameters, usable as a sweep cell."""
    cluster = Cluster.plafrim(n_nodes, binding="rr")
    engine = Engine(cluster, seed=seed)

    def program(comm):
        raise_for_code(mapi.mpi_m_init())
        res = yield from co_grouped_allgather_benchmark(
            comm, group_size=group_size, n_ints=n_ints,
            iterations=iterations, manage_env=False,
        )
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_finalize())
        return res.t1, res.t2, res.t3

    results = engine.run(program)
    t1 = max(r[0] for r in results)
    t2 = max(r[1] for r in results)
    t3 = max(r[2] for r in results)
    gain = 100.0 * (t1 - (t2 + t3)) / t1 if t1 > 0 else 0.0
    return HeatmapCell(
        np_ranks=cluster.n_ranks, n_ints=n_ints, iterations=iterations,
        t1=t1, t2=t2, t3=t3, gain_percent=gain,
    )


def report(cells: List[HeatmapCell]) -> str:
    """Heatmap rendered one table per NP (rows = iterations,
    cols = buffer size), like the paper's three panels."""
    out = []
    for np_ranks in sorted({c.np_ranks for c in cells}):
        sub = [c for c in cells if c.np_ranks == np_ranks]
        sizes = sorted({c.n_ints for c in sub})
        iters = sorted({c.iterations for c in sub})
        headers = ["iters \\ ints"] + [str(s) for s in sizes]
        rows = []
        for it in iters:
            row = [str(it)]
            for s in sizes:
                cell = next(c for c in sub if c.n_ints == s and c.iterations == it)
                row.append(f"{cell.gain_percent:+.0f}%")
            rows.append(row)
        out.append(render_table(
            headers, rows,
            title=f"Fig. 6 — reordering gain heatmap, NP = {np_ranks} "
                  "(green > 0 %: reordering pays off)",
        ))
    return "\n\n".join(out)
