"""Paper Fig. 7 (§6.5): rank reordering on the NAS CG benchmark.

Per (class, NP, initial mapping): run CG twice on the same cluster —

* **baseline**: the initial mapping as-is;
* **reordered**: the CG *initialization* iteration runs under a
  monitoring session (the paper exploits NPB's untimed init phase so no
  data redistribution is needed), the point-to-point byte matrix is
  gathered at rank 0, TreeMatch computes ``k``, and the timed
  iterations run on the split communicator.  The reordering time
  (including the modeled TreeMatch computation) is charged to the
  total, "in order to be fair".

Reported, as in the paper: the execution-time ratio (Fig. 7a) and the
rank-0 communication-time ratio (Fig. 7b), baseline / reordered —
ratios > 1 mean the reordering wins.  NP ∈ {64, 128, 256} on 3/6/11
nodes (24 cores each, some cores spared → partially-occupied nodes),
initial mappings random / round-robin / standard (packed).

Iteration scaling: ``sim_iters`` outer iterations are simulated and the
per-iteration time is scaled to the class's ``niter`` (exact for this
perfectly periodic kernel; see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.cg import (CG_CLASSES, CGConfig, cg_setup,
                          co_cg_outer_iteration)
from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.core.errors import raise_for_code
from repro.experiments.common import render_table
from repro.placement.reorder import co_reorder_from_matrix
from repro.simmpi import Cluster, Engine

__all__ = ["CGPoint", "run_one", "report", "nodes_for"]


def nodes_for(np_ranks: int) -> int:
    """The paper's node counts: 3, 6 and 11 nodes for 64/128/256;
    otherwise the minimum number of 24-core nodes."""
    return {64: 3, 128: 6, 256: 11}.get(np_ranks, -(-np_ranks // 24))


@dataclass
class CGPoint:
    cg_class: str
    np_ranks: int
    mapping: str
    t_base: float
    t_reordered: float  # includes the reordering cost
    comm_base: float  # rank 0 MPI time
    comm_reordered: float

    @property
    def exec_ratio(self) -> float:
        return self.t_base / self.t_reordered

    @property
    def comm_ratio(self) -> float:
        return self.comm_base / self.comm_reordered


def _cg_program(comm, config: CGConfig, sim_iters: int, niter: int,
                reorder: bool):
    """Returns (total_time, rank0_comm_time) scaled to ``niter``."""
    state = cg_setup(comm, config)
    t_start = yield from comm.co_time()

    if reorder:
        # The plain monitoring calls run with no deferred send pending
        # (co_time / co_sync just settled it): DESIGN.md §4.5.
        raise_for_code(mapi.mpi_m_init())
        err, msid = mapi.mpi_m_start(comm)
        raise_for_code(err)
        # The monitored init phase.
        yield from co_cg_outer_iteration(comm, state, 0)
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_suspend(msid))
        err, _, size_mat = yield from mapi.co_mpi_m_rootgather_data(
            msid, 0, MPI_M_DATA_IGNORE, None, Flags.P2P_ONLY
        )
        raise_for_code(err)
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_free(msid))
        raise_for_code(mapi.mpi_m_finalize())
        run_comm, _k = yield from co_reorder_from_matrix(comm, size_mat)
        # Logical roles follow the new ranks; NPB's init structure means
        # no data needs to move (the paper's trick).
        state = cg_setup(run_comm, config)
        state_comm = run_comm
    else:
        # Untimed init, as in NPB.
        yield from co_cg_outer_iteration(comm, state, 0)
        state_comm = comm

    reorder_cost = (yield from comm.co_time()) - t_start

    t0 = yield from state_comm.co_time()
    c0 = state.comm_time
    for it in range(1, sim_iters + 1):
        yield from co_cg_outer_iteration(state_comm, state, it)
    per_iter = ((yield from state_comm.co_time()) - t0) / sim_iters
    per_iter_comm = (state.comm_time - c0) / sim_iters

    total = reorder_cost + per_iter * niter if reorder else per_iter * niter
    comm_time = per_iter_comm * niter
    if reorder:
        comm_time += reorder_cost  # reordering is pure communication+mapping
    return total, comm_time


def run_one(
    cg_class: str,
    np_ranks: int,
    mapping: str,
    sim_iters: int = 2,
    seed: int = 0,
    compute_rate: float = 1.2e8,
) -> CGPoint:
    """One Fig. 7 bar: baseline vs reordered CG."""
    cls = CG_CLASSES[cg_class]
    config = CGConfig(cls, mode="modeled", compute_rate=compute_rate)
    binding = {"random": "random", "rr": "round_robin",
               "standard": "packed"}[mapping]
    n_nodes = nodes_for(np_ranks)

    results: Dict[bool, Tuple[float, float]] = {}
    for reorder in (False, True):
        cluster = Cluster.plafrim(n_nodes, n_ranks=np_ranks, binding=binding,
                                  seed=seed)
        engine = Engine(cluster, seed=seed)
        out = engine.run(
            _cg_program, args=(config, sim_iters, cls.niter, reorder)
        )
        total = max(t for t, _ in out)
        comm0 = out[0][1]  # rank 0's MPI time, as the paper measures
        results[reorder] = (total, comm0)

    return CGPoint(
        cg_class=cg_class,
        np_ranks=np_ranks,
        mapping=mapping,
        t_base=results[False][0],
        t_reordered=results[True][0],
        comm_base=results[False][1],
        comm_reordered=results[True][1],
    )


def report(points: List[CGPoint]) -> str:
    rows = [
        (p.cg_class, p.np_ranks, p.mapping,
         round(p.exec_ratio, 3), round(p.comm_ratio, 3),
         round(p.t_base, 2), round(p.t_reordered, 2))
        for p in points
    ]
    return render_table(
        ["class", "NP", "mapping", "exec ratio", "comm ratio",
         "t_base (s)", "t_reord (s)"],
        rows,
        title="Fig. 7 — NAS CG reordering gain (ratio > 1: reordering wins)",
    )
