"""Generator rank programs: golden equivalence and scheduler unit tests.

A generator program (one continuation per rank, zero OS threads) must
be *bit-exact* against the same golden snapshots the blocking spelling
is pinned to — clocks, monitoring matrices, NIC counters, and switch
counts.  The A/B test here also runs one program in both spellings and
compares full snapshots, so the equivalence of the thread adapter and
the native driver is established against a live run, not only against
the checked-in file.
"""

from __future__ import annotations

import inspect
import json
import os
import threading

import numpy as np
import pytest

from repro.simmpi import (
    SUM,
    Cluster,
    DeadlockError,
    Engine,
    RankFailure,
    SimError,
    Topology,
    current_process,
)

from scripts.capture_hotpath_golden import snapshot_engine
from tests.golden.hotpath_workloads_ev import WORKLOADS_EV

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "hotpath_golden.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS_EV))
def test_eventloop_matches_seed_golden(name, golden):
    """Generator programs reproduce the seed snapshots bit-for-bit —
    including ``switches``, i.e. the scheduler resumes ranks in exactly
    the order the seed's baton-passing threads ran."""
    engine, results = WORKLOADS_EV[name]()
    snap = snapshot_engine(engine)
    snap["results"] = results
    expected = golden[name]
    assert sorted(snap) == sorted(expected)
    for key in expected:
        assert snap[key] == expected[key], f"{name}: {key} diverged from seed"


@pytest.mark.parametrize("name", sorted(WORKLOADS_EV))
def test_eventloop_counts_resumes(name):
    """Every switch is followed by one ``task.send()`` resume, so the
    two counters tick together (the golden run pins their value)."""
    engine, _ = WORKLOADS_EV[name]()
    assert engine.resumes == engine.switches
    assert engine.resumes > 0


# -- A/B: one program, both spellings ----------------------------------------


def _mixed_generator_program(comm):
    me, n = comm.rank, comm.size
    out = []
    yield from comm.co_barrier()
    for it in range(3):
        msg = yield from comm.co_sendrecv(
            np.float64(me), dest=(me + 1) % n, source=(me - 1) % n,
            sendtag=it, recvtag=it, nbytes=10_000,
        )
        out.append(float(msg.payload))
    total = yield from comm.co_allreduce(np.float64(me), SUM)
    yield from comm.co_compute(1e-4 * me)
    t = yield from comm.co_time()
    return out, float(total), t


def _mixed_blocking_program(comm):
    """:func:`_mixed_generator_program`, written blocking."""
    me, n = comm.rank, comm.size
    out = []
    comm.barrier()
    for it in range(3):
        msg = comm.sendrecv(
            np.float64(me), dest=(me + 1) % n, source=(me - 1) % n,
            sendtag=it, recvtag=it, nbytes=10_000,
        )
        out.append(float(msg.payload))
    total = comm.allreduce(np.float64(me), SUM)
    comm.compute(1e-4 * me)
    return out, float(total), comm.time


def _run(program):
    cluster = Cluster.plafrim(1, binding="rr", jitter=0.05)
    engine = Engine(cluster, seed=21)
    results = engine.run(program)
    return engine, results


def test_blocking_spelling_matches_generator_spelling():
    """The thread adapter drives the same ``co_*`` services the native
    driver resumes: every snapshot field must match, switches included."""
    eng_blocking, res_blocking = _run(_mixed_blocking_program)
    eng_native, res_native = _run(_mixed_generator_program)
    assert res_blocking == res_native
    assert snapshot_engine(eng_blocking) == snapshot_engine(eng_native)
    assert eng_blocking.resumes == eng_native.resumes


def test_adapter_handshake_under_thread_stress():
    """24 rank threads on a host with fewer cores, preempted as often as
    the interpreter allows: the loop/thread handshake must still let
    exactly one of them run at a time (a lost or doubled wake-up would
    change the switch count or a clock)."""
    import sys

    reference = snapshot_engine(_run(_mixed_generator_program)[0])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            engine, _ = _run(_mixed_blocking_program)
            assert snapshot_engine(engine) == reference
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in threading.enumerate()
                if t.name.startswith("simmpi-rank-")]


def test_auto_core_picks_eventloop_for_generators():
    """The driver is read off the program: a generator function gets a
    native continuation per rank, a plain callable a thread task."""
    engine, _ = _run(_mixed_generator_program)
    assert all(inspect.isgenerator(p.task) for p in engine.procs)
    engine, _ = _run(_mixed_blocking_program)
    assert not any(inspect.isgenerator(p.task) for p in engine.procs)


def test_eventloop_runs_on_zero_extra_threads():
    """The headline property: no OS thread is created per rank."""
    seen = []

    def program(comm):
        seen.append(threading.active_count())
        return (yield from _mixed_generator_program(comm))

    before = threading.active_count()
    engine, _ = _run(program)
    assert threading.active_count() == before
    assert set(seen) == {before}
    assert all(p.task is not None for p in engine.procs)


def test_eventloop_deterministic():
    eng_a, res_a = _run(_mixed_generator_program)
    eng_b, res_b = _run(_mixed_generator_program)
    assert res_a == res_b
    assert snapshot_engine(eng_a) == snapshot_engine(eng_b)


# -- validation and failure modes -------------------------------------------


def test_eventloop_rank_failure():
    cluster = Cluster(Topology([("node", 1), ("core", 4)]), 4)
    engine = Engine(cluster)

    def program(comm):
        yield from comm.co_barrier()
        if comm.rank == 2:
            raise RuntimeError("rank 2 exploded")
        yield from comm.co_barrier()

    with pytest.raises(RankFailure, match="rank 2"):
        engine.run(program)


def test_eventloop_deadlock_detection():
    cluster = Cluster(Topology([("node", 1), ("core", 2)]), 2)
    engine = Engine(cluster)

    def program(comm):
        # Both ranks receive, nobody sends.
        req = comm.irecv(source=(comm.rank + 1) % comm.size, tag=0)
        msg = yield from req.co_wait()
        return msg

    with pytest.raises(DeadlockError):
        engine.run(program)


def test_eventloop_restores_current_process():
    """After a run (successful or failed) the scheduler leaves no
    dangling thread-local process binding behind."""
    engine, _ = _run(_mixed_generator_program)
    with pytest.raises(SimError):
        current_process()

    cluster = Cluster(Topology([("node", 1), ("core", 2)]), 2)
    failing = Engine(cluster)

    def program(comm):
        yield from comm.co_sync()
        raise RuntimeError("boom")

    with pytest.raises(RankFailure):
        failing.run(program)
    with pytest.raises(SimError):
        current_process()


def test_eventloop_negative_compute_rejected():
    cluster = Cluster(Topology([("node", 1), ("core", 1)]), 1)
    engine = Engine(cluster)

    def program(comm):
        yield from comm.co_compute(-1.0)

    with pytest.raises(RankFailure):
        engine.run(program)


def test_drive_rejects_yielding_generator():
    """_drive is the blocking bridge: a generator that has to park with
    no rank thread to park on is a programming error, not a hang."""
    from repro.simmpi.engine import _drive

    def co_bogus():
        yield None

    with pytest.raises(SimError):
        _drive(co_bogus())
