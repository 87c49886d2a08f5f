"""What a dropped engine leaves, and what a kept one still answers.

A finished engine holds no reference cycle: ``Engine.run`` drops the
run-time back-references into the engine (ranks, communicators,
blocking-program tasks), and the links that exist from construction
(``pml.sync``, the network's lazy route views, an MPI_M session's
runtime, the observer and the recorder) are one-way.  So the last
reference to an engine frees it through reference counting, and the
cyclic collector finds nothing of it.

Each lifetime case runs with the collector paused, then collects under
``gc.DEBUG_SAVEALL``: any object of a ``repro`` type the collector had
to find is a cycle that outlived the run.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import api as mapi
from repro.core import MonitoringSession, monitoring
from repro.replay import autorecord
from repro.simmpi import SUM, Cluster, Engine, SimError
from repro.simmpi.io import File


def _cyclic_leftovers(case) -> list:
    """The ``repro`` types of every object only the cyclic collector
    could free once ``case()`` has returned."""
    gc.collect()
    gc.disable()
    try:
        case()
    finally:
        gc.enable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                       for o in gc.garbage
                       if (type(o).__module__ or "").startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _cluster(**kw):
    return Cluster.plafrim(2, n_ranks=8, binding="rr", **kw)


def _gen_program(comm):
    yield from comm.co_barrier()
    me, n = comm.rank, comm.size
    yield from comm.co_sendrecv(np.float64(me), dest=(me + 1) % n,
                                source=(me - 1) % n, nbytes=4_000)
    total = yield from comm.co_allreduce(np.float64(me), SUM)
    return float(total)


def _blocking_program(comm):
    comm.barrier()
    me, n = comm.rank, comm.size
    comm.sendrecv(np.float64(me), dest=(me + 1) % n, source=(me - 1) % n,
                  nbytes=4_000)
    return float(comm.allreduce(np.float64(me), SUM))


def _run_and_drop(program, **cluster_kw):
    def case():
        engine = Engine(_cluster(**cluster_kw), seed=3)
        results = engine.run(program)
        assert results[0] == 28.0
        del engine, results
    return case


def _fig5_cell():
    from repro.experiments import fig5_collectives

    fig5_collectives.run_cell("reduce", 1, sizes=(1000,), reps=1)


def _cg_cell():
    from repro.experiments import fig7_cg

    fig7_cg.run_one("S", 16, "rr")  # builds two engines


def _never_finalized():
    def program(comm):
        assert mapi.mpi_m_init() == 0
        err, _msid = mapi.mpi_m_start(comm)
        assert err == 0
        comm.barrier()
        return 1

    engine = Engine(_cluster())
    engine.run(program)
    del engine


def _windows_files_and_splits():
    def program(comm):
        sub = comm.split(comm.rank % 2, comm.rank)
        win = comm.win_create(np.zeros(4))
        if comm.rank == 0:
            win.put(np.full(4, 7.0), target=1)
        win.fence()
        f = File.open(comm, "lifetime.bin")
        f.write_at_all(0, None, nbytes=1_000)
        f.close()
        with monitoring():
            with MonitoringSession(sub) as mon:
                sub.barrier()
            mon.free()
        return 1

    engine = Engine(_cluster())
    engine.run(program)
    del engine


def _with_obs():
    obs.enable()
    try:
        _run_and_drop(_gen_program)()
    finally:
        obs.disable()


def _recorded():
    with autorecord.capture() as traces:
        _run_and_drop(_gen_program)()
    assert len(traces) == 1
    del traces


def _never_run():
    engine = Engine(_cluster(jitter=0.1))
    assert engine.network.sharing_class(0, 1) == "cluster"
    del engine


def _pickled_and_thawed():
    engine = Engine(_cluster(jitter=0.1), seed=3)
    engine.run(_gen_program)
    thawed = pickle.loads(pickle.dumps(engine))
    assert thawed.clocks() == engine.clocks()
    del engine, thawed


CASES = {
    "generator program": _run_and_drop(_gen_program),
    "blocking program": _run_and_drop(_blocking_program),
    "fig5 cell with an MPI_M session": _fig5_cell,
    "CG S/16 cell": _cg_cell,
    "MPI_M_init never finalized": _never_finalized,
    "windows, files and split communicators": _windows_files_and_splits,
    "repro.obs enabled": _with_obs,
    "autorecord.capture": _recorded,
    "built and never run": _never_run,
    "pickled and thawed": _pickled_and_thawed,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_dropped_engine_leaves_no_cycle(case):
    assert _cyclic_leftovers(CASES[case]) == []


# -- what a kept engine still answers ----------------------------------------


def _kept_gen_program(comm):
    comm.engine.pml.set_mode(2)
    sub = yield from comm.co_split(comm.rank % 2, comm.rank)
    me, n = comm.rank, comm.size
    yield from comm.co_barrier()
    yield from comm.co_sendrecv(np.float64(me), dest=(me + 1) % n,
                                source=(me - 1) % n, nbytes=4_000)
    yield from sub.co_barrier()
    return me


def _kept_blocking_program(comm):
    comm.engine.pml.set_mode(2)
    sub = comm.split(comm.rank % 2, comm.rank)
    me, n = comm.rank, comm.size
    comm.barrier()
    comm.sendrecv(np.float64(me), dest=(me + 1) % n, source=(me - 1) % n,
                  nbytes=4_000)
    sub.barrier()
    return me


@pytest.fixture(scope="module",
                params=[_kept_gen_program, _kept_blocking_program],
                ids=["generator", "blocking"])
def kept(request):
    engine = Engine(_cluster(), seed=5)
    results = engine.run(request.param)
    return engine, results


def test_kept_engine_answers_its_results(kept):
    engine, results = kept
    assert results == list(range(8))
    clocks = engine.clocks()
    assert len(clocks) == 8 and min(clocks) > 0.0
    assert engine.max_clock == max(clocks)
    assert engine.messages > 0 and engine.switches > 0
    assert engine.resumes == engine.switches


def test_kept_engine_answers_monitoring_and_pvars(kept):
    engine, _ = kept
    counts = engine.pml.counts["p2p"]
    assert counts.sum() == 8  # one ring message per rank
    assert engine.pml.counts["coll"].sum() > 0
    session = engine.mpit.pvar_session_create()
    handle = session.handle_alloc("pml_monitoring_messages_count", 0)
    handle.start()
    np.testing.assert_array_equal(handle.read(), counts[0])
    session.free()
    assert engine.pml.sync is not None


def test_kept_engine_answers_nic_history_and_registries(kept):
    engine, _ = kept
    nic = engine.network.nic
    assert nic.xmit_events(0) and nic.total_xmit_bytes(0) > 0
    assert engine.world.size == 8 and engine.world.group == list(range(8))
    assert engine.comm_registry and engine.match_queues
    assert all(p.task is not None for p in engine.procs)


def test_kept_engine_drops_its_back_references(kept):
    engine, _ = kept
    assert all(p.engine is None for p in engine.procs)
    assert engine.world.engine is None
    for comm in engine.comm_registry.values():
        assert getattr(comm, "engine", None) is None


def test_kept_engine_is_still_single_shot(kept):
    engine, _ = kept
    with pytest.raises(SimError, match="single-shot"):
        engine.run(_gen_program)
