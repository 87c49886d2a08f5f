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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.microbench import co_grouped_allgather_benchmark
from repro.core import api as mapi
from repro.core.errors import raise_for_code
from repro.experiments.common import (experiment_parser, full_scale,
                                      handle_trace_in, render_table,
                                      trace_capture)
from repro.simmpi import Cluster, Engine

__all__ = ["HeatmapCell", "run_cell", "run", "report", "main",
           "DEFAULT_SIZES", "DEFAULT_ITERS"]

DEFAULT_SIZES = (1, 100, 10_000, 100_000)  # MPI_INT counts
FULL_SIZES = (1, 10, 100, 1_000, 10_000, 100_000)
DEFAULT_ITERS = (1, 10, 100, 1_000)
FULL_ITERS = (1, 10, 100, 1_000, 10_000)


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
    """One heatmap cell on a fresh engine — a pure function of its
    parameters, usable as a sweep cell.

    Unlike :func:`run` (which sweeps the whole grid inside one engine
    run, sharing the virtual clock across cells), each cell here starts
    from a cold simulator, so per-cell values can differ from the
    monolithic sweep in low-order timing detail while measuring the
    same protocol.
    """
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


def run(
    node_counts: Sequence[int] = (2,),
    sizes: Sequence[int] = None,
    iteration_counts: Sequence[int] = None,
    group_size: int = 8,
    seed: int = 0,
) -> List[HeatmapCell]:
    """The heatmap grid.  Defaults cover a 4×4 sub-grid on 48 ranks;
    REPRO_FULL extends to the paper's 6×5 grid on 48/96/192 ranks."""
    if sizes is None:
        sizes = FULL_SIZES if full_scale() else DEFAULT_SIZES
    if iteration_counts is None:
        iteration_counts = FULL_ITERS if full_scale() else DEFAULT_ITERS
    if full_scale() and node_counts == (2,):
        node_counts = (2, 4, 8)

    cells: List[HeatmapCell] = []
    for n_nodes in node_counts:
        cluster = Cluster.plafrim(n_nodes, binding="rr")
        engine = Engine(cluster, seed=seed)
        grid = [(s, it) for s in sizes for it in iteration_counts]

        def program(comm):
            raise_for_code(mapi.mpi_m_init())
            out = []
            for n_ints, iters in grid:
                res = yield from co_grouped_allgather_benchmark(
                    comm, group_size=group_size, n_ints=n_ints,
                    iterations=iters, manage_env=False,
                )
                out.append((n_ints, iters, res.t1, res.t2, res.t3,
                            res.gain_percent))
            yield from comm.co_sync()
            raise_for_code(mapi.mpi_m_finalize())
            return out

        results = engine.run(program)
        # Gain as experienced by the slowest rank (the paper measures
        # the communication time of the benchmark loop).
        for idx, (n_ints, iters, *_rest) in enumerate(results[0]):
            t1 = max(r[idx][2] for r in results)
            t2 = max(r[idx][3] for r in results)
            t3 = max(r[idx][4] for r in results)
            gain = 100.0 * (t1 - (t2 + t3)) / t1 if t1 > 0 else 0.0
            cells.append(HeatmapCell(
                np_ranks=cluster.n_ranks, n_ints=n_ints, iterations=iters,
                t1=t1, t2=t2, t3=t3, gain_percent=gain,
            ))
    return cells


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


def main(argv=None) -> int:
    parser = experiment_parser(
        "python -m repro.experiments.fig6_allgather", __doc__,
        sizes_help="buffer sizes in MPI_INT counts "
                   f"(default {','.join(map(str, DEFAULT_SIZES))})",
    )
    parser.add_argument("--iters", type=int, nargs="+", default=None,
                        help="iteration counts (default: "
                             f"{' '.join(map(str, DEFAULT_ITERS))})")
    parser.add_argument("--nodes", type=int, nargs="+", default=(2,),
                        help="node counts (24 ranks per node)")
    parser.add_argument("--group-size", type=int, default=8)
    args = parser.parse_args(argv)
    if handle_trace_in(args):
        return 0
    with trace_capture(args):
        print(report(run(node_counts=tuple(args.nodes), sizes=args.sizes,
                         iteration_counts=args.iters and tuple(args.iters),
                         group_size=args.group_size, seed=args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
