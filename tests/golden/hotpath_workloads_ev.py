"""Generator spellings of the golden hot-path workloads.

Each entry mirrors a workload in :mod:`tests.golden.hotpath_workloads`
line for line, rewritten against the ``co_*`` API, so the scheduler
resumes it natively — one continuation per rank, zero OS threads —
where the blocking table goes through the engine's thread adapter.
The equivalence test asserts that every snapshot field (clocks,
matrices, NIC counters, switch counts) matches the same
``hotpath_golden.json``: the two spellings must be bit-identical, not
merely statistically close.

The ``co_sync`` calls before plain (blocking) monitoring-API calls are
the settle-idempotence discipline of DESIGN.md §4.5: with the deferred
send already settled, the blocking call's internal settle no-ops and
the call runs park-free inside the continuation.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.simmpi import Cluster, Engine, MAX, SUM


def _hx(x: float) -> str:
    return float.hex(float(x))


def fig5_shaped():
    """Fig. 5 protocol in miniature: sweep, monitor, reorder, sweep."""
    from repro.core import api as mapi
    from repro.core.constants import Flags, MPI_M_DATA_IGNORE
    from repro.core.errors import raise_for_code
    from repro.placement.reorder import co_reorder_from_matrix
    from repro.apps.microbench import co_collective_kernel

    sizes = (1_000_000, 5_000_000)
    cluster = Cluster.plafrim(2, binding="rr")
    engine = Engine(cluster, seed=0)

    def program(comm):
        out = []
        for op in ("reduce", "bcast"):
            for n_ints in sizes:
                yield from comm.co_barrier()
                t = yield from co_collective_kernel(comm, op, n_ints)
                out.append(_hx(t))
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_init())
        err, msid = mapi.mpi_m_start(comm)
        raise_for_code(err)
        yield from co_collective_kernel(comm, "reduce", sizes[0])
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
        for op in ("reduce", "bcast"):
            for n_ints in sizes:
                yield from opt.co_barrier()
                t = yield from co_collective_kernel(opt, op, n_ints)
                out.append(_hx(t))
        return out

    results = engine.run(program)
    return engine, results


def fig6_shaped():
    """Fig. 6 protocol in miniature: grouped ring allgathers."""
    from repro.apps.microbench import co_grouped_allgather_benchmark

    cluster = Cluster.plafrim(2, binding="rr")
    engine = Engine(cluster, seed=0)

    def program(comm):
        out = []
        for n_ints, iters in ((100, 4), (10_000, 8)):
            res = yield from co_grouped_allgather_benchmark(
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
        yield from comm.co_sync()
        with monitoring():
            with MonitoringSession(comm) as mon:
                yield from comm.co_barrier()
                yield from comm.co_bcast(
                    None, root=0, nbytes=40_000 if me == 0 else None
                )
                yield from comm.co_allreduce(np.float64(me), SUM)
                yield from comm.co_sendrecv(
                    None, dest=(me + 7) % n, source=(me - 7) % n,
                    sendtag=5, recvtag=5, nbytes=me * 10
                )
                yield from comm.co_reduce(None, MAX, root=n - 1,
                                          nbytes=120_000, algorithm="binary")
                yield from comm.co_allgather(None, nbytes=2_000,
                                             algorithm="ring")
                # Settle before the ``with`` blocks unwind: the context
                # exits (suspend, finalize) then run park-free.
                yield from comm.co_sync()
            counts, sizes = mon.get_data(Flags.ALL_COMM)
            mon.free()
        t = yield from comm.co_time()
        return [[int(c) for c in counts], [int(s) for s in sizes], _hx(t)]

    results = engine.run(program)
    return engine, results


def jittered_p2p():
    """Seeded jitter stream: block-drawn jitter must match scalar draws."""
    cluster = Cluster.plafrim(2, binding="rr", jitter=0.15)
    engine = Engine(cluster, seed=11)

    def program(comm):
        me, n = comm.rank, comm.size
        for it in range(6):
            yield from comm.co_sendrecv(np.float64(me), dest=(me + 1) % n,
                                        source=(me - 1) % n, sendtag=it,
                                        recvtag=it, nbytes=50_000)
        yield from comm.co_bcast(None, root=0,
                                 nbytes=3_000_000 if me == 0 else None)
        t = yield from comm.co_time()
        return _hx(t)

    results = engine.run(program)
    return engine, results


def osc_and_overhead():
    """One-sided traffic plus the per-record monitoring-overhead charge."""
    cluster = Cluster.plafrim(1, binding="packed")
    engine = Engine(cluster, seed=0, monitoring_overhead=1e-6)

    def program(comm):
        yield from comm.co_sync()
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        win = yield from comm.co_win_create(np.zeros(16), nbytes=128)
        yield from win.co_fence()
        if me % 2 == 0:
            yield from win.co_put(np.ones(4), target=(me + 1) % n, nbytes=32)
        yield from win.co_fence()
        yield from comm.co_barrier()
        t = yield from comm.co_time()
        return _hx(t)

    results = engine.run(program)
    return engine, results


def rooted_trees():
    """Every rooted tree: gather, scatter and the barrier in each of
    their algorithms, bcast flat/chain, reduce flat, and the composed
    reduce_scatter / gather_bcast allgather — 13 ranks (no power of
    two), non-zero roots, jitter, monitoring mode 2."""
    cluster = Cluster.plafrim(2, n_ranks=13, binding="rr", jitter=0.1)
    engine = Engine(cluster, seed=5)

    def program(comm):
        yield from comm.co_sync()
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        out = []
        for root in (n - 1, 3):
            for alg in ("binomial", "linear"):
                got = yield from comm.co_gather(
                    me * 3, root=root, nbytes=1_000 + 100 * me, algorithm=alg)
                out.append(got)
                values = [10 * r for r in range(n)] if me == root else None
                got = yield from comm.co_scatter(
                    values, root=root, nbytes=20_000, algorithm=alg)
                out.append(got)
            for alg in ("flat", "chain"):
                yield from comm.co_bcast(
                    None, root=root, nbytes=300_000 if me == root else None,
                    algorithm=alg)
            yield from comm.co_reduce(None, SUM, root=root, nbytes=60_000,
                                      algorithm="flat")
        for alg in ("dissemination", "tree"):
            yield from comm.co_barrier(algorithm=alg)
        sub = yield from comm.co_split(int(me < 8), me)
        got = yield from sub.co_reduce_scatter(list(range(sub.size)), SUM,
                                               nbytes=4_000)
        out.append(int(got))
        got = yield from sub.co_allgather(me, nbytes=500,
                                          algorithm="gather_bcast")
        out.append(got)
        t = yield from comm.co_time()
        out.append(_hx(t))
        return out

    results = engine.run(program)
    return engine, results


WORKLOADS_EV: Dict[str, Any] = {
    "fig5_shaped": fig5_shaped,
    "fig6_shaped": fig6_shaped,
    "mixed_monitored": mixed_monitored,
    "jittered_p2p": jittered_p2p,
    "osc_and_overhead": osc_and_overhead,
    "rooted_trees": rooted_trees,
}
