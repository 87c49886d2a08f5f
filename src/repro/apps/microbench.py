"""Micro-benchmarks used by the paper's evaluation.

* :func:`collective_kernel` — the §6.3 experiment body: one collective
  (reduce or bcast) over MPI_COMM_WORLD at a given buffer size.
* :func:`grouped_allgather_benchmark` — the §6.4 benchmark: groups of
  ranks perform an ``MPI_Allgather`` on their group communicator every
  iteration.  With a round-robin binding each group's communicator
  spans all nodes — the worst case the per-group reordering then fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.core.errors import raise_for_code
from repro.placement.reorder import co_reorder_from_matrix
from repro.simmpi.engine import _drive
from repro.simmpi.op import MAX

__all__ = [
    "collective_kernel", "co_collective_kernel",
    "grouped_allgather_benchmark", "co_grouped_allgather_benchmark",
    "GroupBenchResult",
]


def collective_kernel(comm, op: str, n_ints: int, root: int = 0,
                      algorithm: Optional[str] = None) -> float:
    """Blocking :func:`co_collective_kernel`."""
    return _drive(co_collective_kernel(comm, op, n_ints, root, algorithm))


def co_collective_kernel(comm, op: str, n_ints: int, root: int = 0,
                         algorithm: Optional[str] = None):
    """One timed collective; returns the caller's elapsed virtual time.

    ``op`` is ``"reduce"`` (binary tree by default, as in Fig. 5a:
    MPI_Reduce with MPI_MAX) or ``"bcast"`` (binomial tree, Fig. 5b).
    The buffer is ``n_ints`` 4-byte integers, abstract (never
    allocated: the paper goes up to 2·10⁸ ints = 800 MB).
    """
    nbytes = 4 * n_ints
    t0 = yield from comm.co_time()
    if op == "reduce":
        yield from comm.co_reduce(None, MAX, root=root, nbytes=nbytes,
                                  algorithm=algorithm or "binary")
    elif op == "bcast":
        yield from comm.co_bcast(None, root=root,
                                 nbytes=nbytes if comm.rank == root else None,
                                 algorithm=algorithm or "binomial")
    else:
        raise ValueError(f"unknown collective {op!r}")
    t1 = yield from comm.co_time()
    return t1 - t0


@dataclass
class GroupBenchResult:
    """Per-rank outcome of the §6.4 benchmark."""

    t1: float  # n iterations before reordering
    t2: float  # the reordering itself (gather + TreeMatch + split)
    t3: float  # n iterations after reordering
    group_rank: int
    group_size: int

    @property
    def gain_percent(self) -> float:
        """The paper's metric: 100·(t1 − (t2 + t3)) / t1."""
        if self.t1 <= 0:
            return 0.0
        return 100.0 * (self.t1 - (self.t2 + self.t3)) / self.t1


def _co_allgather_loop(comm, n_ints: int, iterations: int):
    nbytes = 4 * n_ints
    t0 = yield from comm.co_time()
    for _ in range(iterations):
        yield from comm.co_allgather(None, nbytes=nbytes, algorithm="ring")
    t1 = yield from comm.co_time()
    return t1 - t0


def grouped_allgather_benchmark(
    comm,
    group_size: int,
    n_ints: int,
    iterations: int,
    manage_env: bool = True,
    measure_iterations: Optional[int] = None,
) -> GroupBenchResult:
    """Blocking :func:`co_grouped_allgather_benchmark`."""
    return _drive(co_grouped_allgather_benchmark(
        comm, group_size, n_ints, iterations,
        manage_env=manage_env, measure_iterations=measure_iterations,
    ))


def co_grouped_allgather_benchmark(
    comm,
    group_size: int,
    n_ints: int,
    iterations: int,
    manage_env: bool = True,
    measure_iterations: Optional[int] = None,
):
    """The §6.4 protocol on one rank (call from every rank).

    Groups are blocks of ``group_size`` consecutive ranks, so with a
    round-robin binding each group's communicator spans all the nodes
    (the paper's setup).  Phase 1
    times ``iterations`` allgathers, phase 2 monitors one allgather and
    reorders the group, phase 3 times ``iterations`` again.

    ``measure_iterations`` (default: min(iterations, 30)) bounds how
    many iterations are *simulated*; the exact per-iteration virtual
    time is scaled to ``iterations``, which is exact for this perfectly
    periodic workload (see DESIGN.md §6).

    The monitoring API calls are the plain local ones: the ``co_sync``
    before each one settles any deferred send, so their internal
    pvar-read settles find nothing to park on (DESIGN.md §4.5).
    """
    if comm.size % group_size:
        raise ValueError(f"{comm.size} ranks not divisible into groups of {group_size}")
    me = comm.rank
    group = yield from comm.co_split(color=me // group_size, key=me % group_size)

    sim_iters = measure_iterations if measure_iterations is not None else min(
        iterations, 30
    )
    sim_iters = max(1, min(sim_iters, iterations))
    scale = iterations / sim_iters

    if manage_env:
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_init())

    # Phase 1: the un-reordered loop.
    t1 = (yield from _co_allgather_loop(group, n_ints, sim_iters)) * scale

    # Phase 2: monitor one iteration, gather the matrix, reorder.
    t2_start = yield from comm.co_time()
    yield from comm.co_sync()
    err, msid = mapi.mpi_m_start(group)
    raise_for_code(err)
    yield from _co_allgather_loop(group, n_ints, 1)
    yield from comm.co_sync()
    raise_for_code(mapi.mpi_m_suspend(msid))
    err, _, size_mat = yield from mapi.co_mpi_m_rootgather_data(
        msid, 0, MPI_M_DATA_IGNORE, None, Flags.ALL_COMM
    )
    raise_for_code(err)
    yield from comm.co_sync()
    raise_for_code(mapi.mpi_m_free(msid))
    opt_group, _k = yield from co_reorder_from_matrix(group, size_mat)
    t2 = (yield from comm.co_time()) - t2_start

    # Phase 3: the reordered loop.
    t3 = (yield from _co_allgather_loop(opt_group, n_ints, sim_iters)) * scale

    if manage_env:
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_finalize())
    return GroupBenchResult(
        t1=t1, t2=t2, t3=t3, group_rank=group.rank, group_size=group.size
    )


def main(argv=None) -> int:
    """Demo entry point: time the Fig. 5 collective kernel on a small
    simulated cluster (``python -m repro.apps.microbench``)."""
    from repro.experiments.common import experiment_parser, render_table
    from repro.simmpi import Cluster, Engine

    parser = experiment_parser(
        "python -m repro.apps.microbench",
        "Time one collective across buffer sizes on a simulated cluster.",
        sizes_help="buffer sizes in MPI_INT counts (default 1e6,1e7)",
    )
    parser.add_argument("--op", choices=["reduce", "bcast"], default="reduce")
    parser.add_argument("--nodes", type=int, default=2)
    args = parser.parse_args(argv)
    sizes = args.sizes or (1_000_000, 10_000_000)

    cluster = Cluster.plafrim(args.nodes, binding="rr")
    engine = Engine(cluster, seed=args.seed)

    def program(comm):
        rows = []
        for n in sizes:
            rows.append((n, (yield from co_collective_kernel(comm, args.op, n))))
        return rows

    rows = engine.run(program)[0]
    print(render_table(
        ["ints", "time (s)"],
        [(n, round(t, 5)) for n, t in rows],
        title=f"MPI_{args.op.capitalize()} on {cluster.n_ranks} "
              "round-robin ranks",
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
