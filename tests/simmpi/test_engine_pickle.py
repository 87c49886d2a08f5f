"""Pickle round-trips for the engine and its components.

A finished engine is an analysis artifact: sweep workers ship results
across process boundaries and cache layers persist them to disk, so
``pickle.dumps(engine)`` must work — no live threads, continuations, or
MPI_T reader closures in the state.  The thawed engine must preserve
every observable (clocks, matrices, totals, NIC counters, switches)
and have a working, freshly rebuilt MPI_T registry.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.simmpi import SUM, Cluster, Engine
from scripts.capture_hotpath_golden import snapshot_engine


def _finished_engine():
    """A small monitored run touching p2p, coll, and osc state.

    Deliberately mapi-free: the monitoring *runtime* (pvar handles in
    ``proc.userdata``) is per-run live state, not part of the
    engine-as-artifact contract.
    """
    cluster = Cluster.plafrim(1, binding="rr", jitter=0.1)
    engine = Engine(cluster, seed=13)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        comm.barrier()
        comm.sendrecv(np.float64(me), dest=(me + 1) % n, source=(me - 1) % n,
                      nbytes=4_000)
        total = comm.allreduce(np.float64(me), SUM)
        win = comm.win_create(np.zeros(4), nbytes=32)
        win.fence()
        if me == 0:
            win.put(np.ones(4), target=1, nbytes=32)
        win.fence()
        return float(total)

    results = engine.run(program)
    return engine, results


def test_round_trip_preserves_observables():
    engine, results = _finished_engine()
    frozen = snapshot_engine(engine)
    blob = pickle.dumps(engine)
    thawed = pickle.loads(blob)
    assert snapshot_engine(thawed) == frozen
    assert thawed.clocks() == engine.clocks()
    assert thawed.switches == engine.switches
    assert thawed.resumes == engine.resumes
    assert thawed.n_ranks == engine.n_ranks
    assert thawed.seed == engine.seed


def test_no_live_threads_or_semaphores_in_state():
    engine, _ = _finished_engine()
    state = engine.__getstate__()
    for key in ("mpit", "_obs", "_obs_spans", "_rr"):
        assert key not in state
    for proc in state["procs"]:
        assert proc.task is not None  # the (finished) thread task
        assert "task" not in proc.__getstate__()


def test_thawed_engine_rewires_runtime_taps():
    engine, _ = _finished_engine()
    thawed = pickle.loads(pickle.dumps(engine))
    # Fresh MPI_T registry wired to the same pml; sync reinstalled as
    # the settle bridge.
    assert thawed.mpit is not engine.mpit
    assert thawed.pml.sync is not None
    assert thawed._obs is None and thawed._rr is None
    # The registry readers serve the thawed matrices.
    sess = thawed.mpit.pvar_session_create()
    h = sess.handle_alloc("pml_monitoring_messages_count", 0)
    h.start()
    np.testing.assert_array_equal(h.read(), thawed.pml.counts["p2p"][0])


def test_thawed_procs_are_inert():
    engine, _ = _finished_engine()
    thawed = pickle.loads(pickle.dumps(engine))
    for proc in thawed.procs:
        assert proc.task is None


def test_round_trip_from_event_core():
    """A generator program leaves rank continuations on the procs; they
    are ephemeral too."""
    cluster = Cluster.plafrim(1, binding="rr")
    engine = Engine(cluster, seed=2)

    def program(comm):
        yield from comm.co_barrier()
        t = yield from comm.co_time()
        return t

    results = engine.run(program)
    thawed = pickle.loads(pickle.dumps(engine))
    assert snapshot_engine(thawed) == snapshot_engine(engine)
    assert thawed.clocks() == [r for r in results]


def test_fresh_engine_round_trips_and_runs():
    """An engine pickled *before* running still runs a program after
    thawing (the sweep-orchestration shipping pattern)."""
    cluster = Cluster.plafrim(1, binding="packed")
    engine = pickle.loads(pickle.dumps(Engine(cluster, seed=4)))

    def program(comm):
        comm.barrier()
        return comm.rank

    assert engine.run(program) == list(range(cluster.n_ranks))


def test_filesystem_pvars_survive_thaw():
    """MPI-IO byte counters re-register against the rebuilt registry."""
    cluster = Cluster.plafrim(1, binding="packed")
    engine = Engine(cluster, seed=0)

    def program(comm):
        from repro.simmpi.io import File

        f = File.open(comm, "out.dat")
        f.write_at(comm.rank * 100, nbytes=100)
        f.close()

    engine.run(program)
    thawed = pickle.loads(pickle.dumps(engine))
    sess = thawed.mpit.pvar_session_create()
    h = sess.handle_alloc("io_monitoring_bytes_written", 0)
    h.start()
    assert int(h.read()[0]) == 100


def test_unreadable_live_run_state_is_dropped_not_fatal():
    """Pickling must not require quiescing: a mid-build engine (never
    run) with an observer-less config round-trips cleanly."""
    cluster = Cluster.plafrim(1)
    engine = Engine(cluster, seed=9)
    thawed = pickle.loads(pickle.dumps(engine))
    assert thawed.procs == []
    assert thawed.world is None
