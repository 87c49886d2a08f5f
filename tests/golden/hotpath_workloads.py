"""Workloads pinned by the hot-path golden-equivalence test.

Each entry builds an engine, runs a program, and returns
``(engine, results)`` where ``results`` is a JSON-comparable structure
with every float rendered via ``float.hex`` (bit-exact).  The golden
file ``hotpath_golden.json`` was captured from the seed implementation
by ``scripts/capture_hotpath_golden.py``; the optimized hot path must
reproduce the clocks, monitoring matrices, and NIC counters exactly.

Keep these workloads small (seconds, not minutes) but load-bearing:
they cover segmented tree collectives, ring allgathers on split
communicators, monitoring sessions with snapshot/diff, jitter, and the
monitoring-overhead charge — every code path the optimization touches.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.simmpi import Cluster, Engine, MAX, SUM


def _hx(x: float) -> str:
    return float.hex(float(x))


def _hx_all(xs) -> List[str]:
    return [_hx(x) for x in xs]


def fig5_shaped():
    """Fig. 5 protocol in miniature: sweep, monitor, reorder, sweep."""
    from repro.core import api as mapi
    from repro.core.constants import Flags, MPI_M_DATA_IGNORE
    from repro.core.errors import raise_for_code
    from repro.placement.reorder import reorder_from_matrix
    from repro.apps.microbench import collective_kernel

    sizes = (1_000_000, 5_000_000)
    cluster = Cluster.plafrim(2, binding="rr")
    engine = Engine(cluster, seed=0)

    def program(comm):
        out = []
        for op in ("reduce", "bcast"):
            for n_ints in sizes:
                comm.barrier()
                out.append(_hx(collective_kernel(comm, op, n_ints)))
        raise_for_code(mapi.mpi_m_init())
        err, msid = mapi.mpi_m_start(comm)
        raise_for_code(err)
        collective_kernel(comm, "reduce", sizes[0])
        raise_for_code(mapi.mpi_m_suspend(msid))
        err, _, size_mat = mapi.mpi_m_rootgather_data(
            msid, 0, MPI_M_DATA_IGNORE, None, Flags.COLL_ONLY
        )
        raise_for_code(err)
        raise_for_code(mapi.mpi_m_free(msid))
        raise_for_code(mapi.mpi_m_finalize())
        opt, _k = reorder_from_matrix(comm, size_mat)
        for op in ("reduce", "bcast"):
            for n_ints in sizes:
                opt.barrier()
                out.append(_hx(collective_kernel(opt, op, n_ints)))
        return out

    results = engine.run(program)
    return engine, results


def fig6_shaped():
    """Fig. 6 protocol in miniature: grouped ring allgathers."""
    from repro.apps.microbench import grouped_allgather_benchmark

    cluster = Cluster.plafrim(2, binding="rr")
    engine = Engine(cluster, seed=0)

    def program(comm):
        out = []
        for n_ints, iters in ((100, 4), (10_000, 8)):
            res = grouped_allgather_benchmark(
                comm, group_size=8, n_ints=n_ints, iterations=iters
            )
            out.append([_hx(res.t1), _hx(res.t2), _hx(res.t3)])
        return out

    results = engine.run(program)
    return engine, results


def mixed_monitored():
    """Barrier/bcast/allreduce/sendrecv/reduce mix under a session."""
    from repro.core import Flags, MonitoringSession, monitoring

    cluster = Cluster.plafrim(2, binding="rr")
    engine = Engine(cluster, seed=3)

    def program(comm):
        me, n = comm.rank, comm.size
        with monitoring():
            with MonitoringSession(comm) as mon:
                comm.barrier()
                comm.bcast(None, root=0, nbytes=40_000 if me == 0 else None)
                comm.allreduce(np.float64(me), SUM)
                comm.sendrecv(None, dest=(me + 7) % n, source=(me - 7) % n,
                              sendtag=5, recvtag=5, nbytes=me * 10)
                comm.reduce(None, MAX, root=n - 1, nbytes=120_000,
                            algorithm="binary")
                comm.allgather(None, nbytes=2_000, algorithm="ring")
            counts, sizes = mon.get_data(Flags.ALL_COMM)
            mon.free()
        return [[int(c) for c in counts], [int(s) for s in sizes],
                _hx(comm.time)]

    results = engine.run(program)
    return engine, results


def jittered_p2p():
    """Seeded jitter stream: block-drawn jitter must match scalar draws."""
    cluster = Cluster.plafrim(2, binding="rr", jitter=0.15)
    engine = Engine(cluster, seed=11)

    def program(comm):
        me, n = comm.rank, comm.size
        for it in range(6):
            comm.sendrecv(np.float64(me), dest=(me + 1) % n,
                          source=(me - 1) % n, sendtag=it, recvtag=it,
                          nbytes=50_000)
        comm.bcast(None, root=0, nbytes=3_000_000 if me == 0 else None)
        return _hx(comm.time)

    results = engine.run(program)
    return engine, results


def osc_and_overhead():
    """One-sided traffic plus the per-record monitoring-overhead charge."""
    cluster = Cluster.plafrim(1, binding="packed")
    engine = Engine(cluster, seed=0, monitoring_overhead=1e-6)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        win = comm.win_create(np.zeros(16), nbytes=128)
        win.fence()
        if me % 2 == 0:
            win.put(np.ones(4), target=(me + 1) % n, nbytes=32)
        win.fence()
        comm.barrier()
        return _hx(comm.time)

    results = engine.run(program)
    return engine, results


def rooted_trees():
    """Every rooted tree: gather, scatter and the barrier in each of
    their algorithms, bcast flat/chain, reduce flat, and the composed
    reduce_scatter / gather_bcast allgather — 13 ranks (no power of
    two), non-zero roots, jitter, monitoring mode 2.  Captured from
    the mask-loop implementations, before gather, scatter and the tree
    barrier walked ``bcast.tree`` / ``reduce.tree``."""
    cluster = Cluster.plafrim(2, n_ranks=13, binding="rr", jitter=0.1)
    engine = Engine(cluster, seed=5)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        out = []
        for root in (n - 1, 3):
            for alg in ("binomial", "linear"):
                got = comm.gather(me * 3, root=root, nbytes=1_000 + 100 * me,
                                  algorithm=alg)
                out.append(got)
                values = [10 * r for r in range(n)] if me == root else None
                out.append(comm.scatter(values, root=root, nbytes=20_000,
                                        algorithm=alg))
            for alg in ("flat", "chain"):
                comm.bcast(None, root=root,
                           nbytes=300_000 if me == root else None,
                           algorithm=alg)
            comm.reduce(None, SUM, root=root, nbytes=60_000, algorithm="flat")
        for alg in ("dissemination", "tree"):
            comm.barrier(algorithm=alg)
        sub = comm.split(int(me < 8), me)
        out.append(int(sub.reduce_scatter(list(range(sub.size)), SUM,
                                          nbytes=4_000)))
        out.append(sub.allgather(me, nbytes=500, algorithm="gather_bcast"))
        out.append(_hx(comm.time))
        return out

    results = engine.run(program)
    return engine, results


WORKLOADS: Dict[str, Any] = {
    "fig5_shaped": fig5_shaped,
    "fig6_shaped": fig6_shaped,
    "mixed_monitored": mixed_monitored,
    "jittered_p2p": jittered_p2p,
    "osc_and_overhead": osc_and_overhead,
    "rooted_trees": rooted_trees,
}
