"""Paper Fig. 4 (§6.2): monitoring overhead on MPI_Reduce.

A reduce of a given buffer size runs repeatedly, once in a monitored
program (library initialized, a session covering the timed region) and
once unmonitored (component disabled).  Per the paper: 48/96/192 MPI
processes (2/4/8 nodes, 24 per node), small message sizes (1 B – 10 kB,
where overhead could be visible), 180 repetitions, unpaired Welch
t-test with 95 % confidence intervals on the *difference of means*.

Claim to reproduce: the difference is mostly statistically
indistinguishable from zero and bounded by a few microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import api as mapi
from repro.core.errors import raise_for_code
from repro.experiments.common import full_scale, render_table
from repro.simmpi import MAX, Cluster, Engine

__all__ = ["OverheadPoint", "measure_reduce_times", "run_point", "report"]


@dataclass
class OverheadPoint:
    """One (NP, size) cell of Fig. 4."""

    np_ranks: int
    size_bytes: int
    mean_diff_us: float  # monitored − unmonitored, microseconds
    ci95_us: float  # half-width of the 95% Welch CI
    n_reps: int

    @property
    def significant(self) -> bool:
        return abs(self.mean_diff_us) > self.ci95_us


def measure_reduce_times(
    n_nodes: int,
    size_bytes: int,
    reps: int,
    monitored: bool,
    jitter: float = 0.08,
    seed: int = 0,
) -> np.ndarray:
    """Per-repetition root-side reduce times (virtual seconds).

    One engine run performs ``reps`` timed reduces; network jitter
    makes repetitions vary, as wall-clock noise does on the real
    machine.
    """
    cluster = Cluster.plafrim(n_nodes, binding="rr", jitter=jitter)
    engine = Engine(cluster, seed=seed)

    def program(comm):
        if monitored:
            raise_for_code(mapi.mpi_m_init())
            err, msid = mapi.mpi_m_start(comm)
            raise_for_code(err)
        times = []
        for _ in range(reps):
            yield from comm.co_barrier()
            t0 = yield from comm.co_time()
            yield from comm.co_reduce(None, MAX, root=0, nbytes=size_bytes,
                                      algorithm="binary")
            times.append((yield from comm.co_time()) - t0)
        if monitored:
            # co_time just settled the last send, so the plain calls
            # below never need to park (DESIGN.md §4.5).
            raise_for_code(mapi.mpi_m_suspend(msid))
            raise_for_code(mapi.mpi_m_free(msid))
            raise_for_code(mapi.mpi_m_finalize())
        return times

    results = engine.run(program)
    return np.asarray(results[0])  # the root's timings


def run_point(
    n_nodes: int,
    size_bytes: int,
    reps: int = 0,
    jitter: float = 0.08,
    seed: int = 0,
) -> OverheadPoint:
    """One (NP, size) cell of Fig. 4 — a pure function of its
    parameters, usable as a sweep cell."""
    if reps <= 0:
        reps = 180 if full_scale() else 40
    t_mon = measure_reduce_times(n_nodes, size_bytes, reps, True,
                                 jitter=jitter, seed=seed + 1)
    t_off = measure_reduce_times(n_nodes, size_bytes, reps, False,
                                 jitter=jitter, seed=seed + 2)
    diff_us = (t_mon.mean() - t_off.mean()) * 1e6
    # Unpaired Welch CI on the difference of means (the paper's
    # "unpaired T test with unequal variance").
    se = np.sqrt(t_mon.var(ddof=1) / len(t_mon)
                 + t_off.var(ddof=1) / len(t_off)) * 1e6
    dof = _welch_dof(t_mon, t_off)
    # 0.65 s, 47 MB: imported by its one caller (DESIGN.md "Import rule").
    from scipy import stats

    ci = float(stats.t.ppf(0.975, dof) * se)
    return OverheadPoint(
        np_ranks=24 * n_nodes,
        size_bytes=size_bytes,
        mean_diff_us=float(diff_us),
        ci95_us=ci,
        n_reps=reps,
    )


def _welch_dof(a: np.ndarray, b: np.ndarray) -> float:
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    if va + vb == 0:
        return len(a) + len(b) - 2.0
    return (va + vb) ** 2 / (
        va**2 / (len(a) - 1) + vb**2 / (len(b) - 1)
    )


def report(points: List[OverheadPoint]) -> str:
    rows = [
        (p.np_ranks, p.size_bytes, round(p.mean_diff_us, 3),
         round(p.ci95_us, 3), "yes" if p.significant else "no")
        for p in points
    ]
    worst = max((abs(p.mean_diff_us) for p in points), default=0.0)
    table = render_table(
        ["NP", "size (B)", "diff (us)", "95% CI (us)", "significant?"],
        rows,
        title="Fig. 4 — monitoring overhead on MPI_Reduce "
              "(positive = monitored slower)",
    )
    return table + f"\nworst-case |overhead|: {worst:.3f} us (paper: < 5 us)"
