"""Paper Fig. 5 (§6.3): optimizing tree collectives by rank reordering.

The monitoring library decomposes a collective into its point-to-point
messages; TreeMatch then reorders the ranks so the heavy tree edges
stay inside nodes.  Protocol per (operation, NP):

1. ranks are bound round-robin across nodes ("as it would be done
   without any specification given by the user" — the *No monitoring*
   curve);
2. one collective runs under a monitoring session (COLL traffic);
3. the byte matrix is gathered at rank 0, TreeMatch computes ``k``,
   ``MPI_Comm_split`` builds the optimized communicator;
4. both communicators run the collective across the buffer-size sweep.

Fig. 5a: MPI_Reduce (MPI_MAX), binary-tree algorithm, time at the root.
Fig. 5b: MPI_Bcast, binomial-tree algorithm, total (max over ranks)
time.  Paper anchors: at NP = 96 and 2·10⁸ ints the reduce drops
15.16 s → 7.57 s and the bcast 16.34 s → 10.24 s — roughly 2×.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.core.errors import raise_for_code
from repro.experiments.common import full_scale, render_table
from repro.apps.microbench import co_collective_kernel
from repro.placement.reorder import co_reorder_from_matrix
from repro.simmpi import MAX, Cluster, Engine

__all__ = ["CollectivePoint", "run_cell", "report", "DEFAULT_SIZES",
           "FULL_SIZES"]

DEFAULT_SIZES = (1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000)
FULL_SIZES = DEFAULT_SIZES + (50_000_000, 100_000_000, 200_000_000)


@dataclass
class CollectivePoint:
    op: str
    np_ranks: int
    n_ints: int
    t_baseline: float  # round-robin mapping, seconds
    t_reordered: float  # after monitoring + TreeMatch reordering

    @property
    def speedup(self) -> float:
        return self.t_baseline / self.t_reordered if self.t_reordered else float("inf")


def _co_measure(comm, op: str, n_ints: int, reps: int = 3):
    """Median collective time: at the root for reduce ("MPI_Reduce time
    at root"), max over ranks for bcast ("Total MPI_Bcast time")."""
    times = []
    for _ in range(reps):
        yield from comm.co_barrier()
        t = yield from co_collective_kernel(comm, op, n_ints)
        times.append(t)
    # Bit-equal to np.median on these few floats, at a fiftieth the cost.
    local = statistics.median(times)
    if op == "reduce":
        # Broadcast the root's own timing so every rank returns it.
        val = yield from comm.co_bcast(
            np.float64(local) if comm.rank == 0 else None, root=0)
        return float(val)
    res = yield from comm.co_allreduce(np.float64(local), MAX)
    return float(res)


def run_cell(
    op: str,
    n_nodes: int,
    sizes: Optional[Sequence[int]] = None,
    reps: int = 3,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> List[CollectivePoint]:
    """One Fig. 5 cell: a single (op, node count) engine run covering
    the whole buffer-size sweep.  The monitoring + reordering step is
    shared by every size, so this is the smallest independently
    computable unit of the figure — a pure function of its parameters,
    usable as a sweep cell.

    ``engine`` lets a caller supply a pre-built (e.g. instrumented)
    Engine for ``n_nodes`` PlaFRIM nodes; by default the cell builds
    its own."""
    if sizes is None:
        sizes = FULL_SIZES if full_scale() else DEFAULT_SIZES
    if engine is None:
        engine = Engine(Cluster.plafrim(n_nodes, binding="rr"), seed=seed)
    cluster = engine.cluster

    def co_program(comm):
        # The co_sync calls before the plain monitoring-API calls settle
        # the caller's deferred send, so those calls' internal settles
        # find nothing to park on (DESIGN.md §4.5).
        out = []
        # --- baseline sweep on the round-robin mapping
        for n_ints in sizes:
            t = yield from _co_measure(comm, op, n_ints, reps)
            out.append(("base", n_ints, t))
        # --- monitor one collective's decomposition and reorder
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_init())
        err, msid = mapi.mpi_m_start(comm)
        raise_for_code(err)
        yield from co_collective_kernel(comm, op, sizes[0])
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_suspend(msid))
        err, _, size_mat = yield from mapi.co_mpi_m_rootgather_data(
            msid, 0, MPI_M_DATA_IGNORE, None, Flags.COLL_ONLY
        )
        raise_for_code(err)
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_free(msid))
        raise_for_code(mapi.mpi_m_finalize())
        opt, _k = yield from co_reorder_from_matrix(comm, size_mat)
        # --- reordered sweep
        for n_ints in sizes:
            t = yield from _co_measure(opt, op, n_ints, reps)
            out.append(("reord", n_ints, t))
        return out

    results = engine.run(co_program)
    rows = results[0]
    base = {n: t for kind, n, t in rows if kind == "base"}
    reord = {n: t for kind, n, t in rows if kind == "reord"}
    return [
        CollectivePoint(
            op=op,
            np_ranks=cluster.n_ranks,
            n_ints=n_ints,
            t_baseline=base[n_ints],
            t_reordered=reord[n_ints],
        )
        for n_ints in sizes
    ]


def report(points: List[CollectivePoint]) -> str:
    rows = [
        (p.op, p.np_ranks, p.n_ints, round(p.t_baseline, 4),
         round(p.t_reordered, 4), round(p.speedup, 2))
        for p in points
    ]
    op = points[0].op if points else "?"
    return render_table(
        ["op", "NP", "ints", "no monitoring (s)", "reordered (s)", "speedup"],
        rows,
        title=f"Fig. 5 — MPI_{op.capitalize()} runtime: round-robin vs "
              "introspection-monitoring + rank reordering",
    )
