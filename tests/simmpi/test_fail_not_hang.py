"""A broken rank program must fail, never hang — in both spellings.

Every scenario runs once as a generator program (resumed natively) and
once as the same program written blocking (one thread per rank behind
the engine's adapter), under a hard watchdog.  Afterwards no
``simmpi-rank-*`` thread may be alive, and a generator-program run must
never have changed ``threading.active_count()``.
"""

from __future__ import annotations

import inspect
import threading

import numpy as np
import pytest

from repro.simmpi import (Cluster, DeadlockError, Engine, Op, RankFailure,
                          SimError, Topology)

WATCHDOG_SECONDS = 60.0


def _run_guarded(program, n_ranks=6):
    """``engine.run(program)`` on a watchdog-supervised thread; returns
    ``(engine, outcome)`` where ``outcome`` is the result list or the
    exception the run raised."""
    cluster = Cluster(Topology([("node", 2), ("core", 4)]), n_ranks)
    engine = Engine(cluster, seed=0)
    native = inspect.isgeneratorfunction(program)
    box = {}

    def target():
        before = threading.active_count()
        try:
            box["outcome"] = engine.run(program)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["outcome"] = exc
        box["thread_delta"] = threading.active_count() - before

    runner = threading.Thread(target=target, daemon=True, name="watchdog-run")
    runner.start()
    runner.join(WATCHDOG_SECONDS)
    assert not runner.is_alive(), "the simulation hung"
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("simmpi-rank-")]
    assert alive == [], f"rank threads outlived the run: {alive}"
    if native:
        assert box["thread_delta"] == 0
        assert all(inspect.isgenerator(p.task) for p in engine.procs)
    return engine, box["outcome"]


def _both(gen_program, blocking_program):
    return pytest.mark.parametrize(
        "program", [gen_program, blocking_program],
        ids=["generator", "blocking"])


# -- global deadlock ---------------------------------------------------------


def _deadlock_gen(comm):
    yield from comm.co_barrier()
    # Everybody receives from the right neighbour, nobody sends.
    yield from comm.co_recv(source=(comm.rank + 1) % comm.size, tag=3)


def _deadlock_blocking(comm):
    comm.barrier()
    comm.recv(source=(comm.rank + 1) % comm.size, tag=3)


@_both(_deadlock_gen, _deadlock_blocking)
def test_global_deadlock_raises_with_per_rank_dump(program):
    engine, outcome = _run_guarded(program)
    assert isinstance(outcome, DeadlockError)
    assert sorted(rank for rank, _ in outcome.states) == list(range(6))
    for rank, state in outcome.states:
        assert f"source={(rank + 1) % 6}, tag=3" in state
    assert "rank 4: blocked on recv(" in str(outcome)


# -- a rank raising inside a collective --------------------------------------


def _poisoned(a, b):
    if a == 3 or b == 3:
        raise ZeroDivisionError("poisoned contribution")
    return np.maximum(a, b)


POISON = Op("POISON", _poisoned)


def _raise_in_collective_gen(comm):
    yield from comm.co_barrier()
    yield from comm.co_reduce(np.int64(comm.rank), POISON, root=0,
                              algorithm="binomial")
    yield from comm.co_barrier()


def _raise_in_collective_blocking(comm):
    comm.barrier()
    comm.reduce(np.int64(comm.rank), POISON, root=0, algorithm="binomial")
    comm.barrier()


@_both(_raise_in_collective_gen, _raise_in_collective_blocking)
def test_rank_raising_inside_a_collective(program):
    engine, outcome = _run_guarded(program)
    assert isinstance(outcome, RankFailure)
    # Binomial reduce: rank 2 is the first to combine rank 3's value.
    assert outcome.rank == 2
    assert isinstance(outcome.original, ZeroDivisionError)
    # Everyone else was unwound, not left parked in the barrier.
    assert all(p.state.value == "done" for p in engine.procs)


def _two_failures_gen(comm):
    try:
        yield from comm.co_barrier()
        if comm.rank == 4:
            raise ValueError("rank 4 fails first")
        yield from comm.co_barrier()
    finally:
        if comm.rank == 1:
            raise KeyError("rank 1 fails while being unwound")


def _two_failures_blocking(comm):
    try:
        comm.barrier()
        if comm.rank == 4:
            raise ValueError("rank 4 fails first")
        comm.barrier()
    finally:
        if comm.rank == 1:
            raise KeyError("rank 1 fails while being unwound")


@_both(_two_failures_gen, _two_failures_blocking)
def test_lowest_failed_rank_is_reported(program):
    engine, outcome = _run_guarded(program)
    assert isinstance(outcome, RankFailure)
    assert outcome.rank == 1
    assert isinstance(outcome.original, KeyError)
    assert isinstance(engine.procs[4].exc, ValueError)


# -- a rank raising while others are parked settling a deferred send --------
#
# Rank 0 defers a send at t=3 and waits: settling it must let ranks 1
# and 2 run first, so it parks inside co_wait's inlined settle loop.
# Rank 1 defers a send at t=2 and sends again: settling parks it inside
# the settling branch of the send.  Rank 2 then raises; rank 1 raises
# again while being unwound, so it is the lowest failed rank.

PARKED = {}


def _settle_parks_gen(comm):
    me = comm.rank
    try:
        if me == 0:
            yield from comm.co_compute(3.0)
            yield from comm.co_isend(None, dest=2, nbytes=8)
            yield from comm.co_recv(source=1)
        elif me == 1:
            yield from comm.co_compute(2.0)
            yield from comm.co_isend(None, dest=2, nbytes=8)
            yield from comm.co_isend(None, dest=2, nbytes=8)
        elif me == 2:
            procs = comm.engine.procs
            for p in procs[:2]:
                task, names = p.task, []
                while task is not None:
                    names.append(task.gi_code.co_name)
                    task = task.gi_yieldfrom
                PARKED[p.rank] = (p.state.value, p.pending is not None, names)
            raise ValueError("rank 2 fails while 0 and 1 are parked")
    finally:
        if me == 1:
            raise KeyError("rank 1 fails while being unwound")


def _settle_parks_blocking(comm):
    me = comm.rank
    try:
        if me == 0:
            comm.compute(3.0)
            comm.isend(None, dest=2, nbytes=8)
            comm.recv(source=1)
        elif me == 1:
            comm.compute(2.0)
            comm.isend(None, dest=2, nbytes=8)
            comm.isend(None, dest=2, nbytes=8)
        elif me == 2:
            raise ValueError("rank 2 fails while 0 and 1 are parked")
    finally:
        if me == 1:
            raise KeyError("rank 1 fails while being unwound")


@_both(_settle_parks_gen, _settle_parks_blocking)
def test_rank_raising_while_others_park_in_settles(program):
    PARKED.clear()
    engine, outcome = _run_guarded(program, n_ranks=3)
    assert isinstance(outcome, RankFailure)
    assert outcome.rank == 1
    assert isinstance(outcome.original, KeyError)
    assert isinstance(engine.procs[2].exc, ValueError)
    assert all(p.state.value == "done" for p in engine.procs)
    if inspect.isgeneratorfunction(program):
        # The scenario parked where it says: in co_wait's inlined loop
        # (co_recv hands back co_wait itself) and in the settling send's
        # park generator.
        assert PARKED == {
            0: ("ready", True, ["_settle_parks_gen", "co_wait"]),
            1: ("ready", True, ["_settle_parks_gen", "co_isend",
                                "_co_settle_park"]),
        }


# -- a rank raising while the others are parked in a sendrecv ladder ---------
#
# Rank 3 lets every other rank run until it parks in a six-step ring
# ladder (rank 3 + k waits at step k - 1 for what rank 3 never sends),
# then raises; rank 1 raises again while being unwound, so it is the
# lowest failed rank.

LADDER = {}


def _ring_ladder(comm, steps):
    me, n = comm.rank, comm.size
    for step in range(steps):
        yield from comm.co_sendrecv(None, dest=(me + 1) % n,
                                    source=(me - 1) % n, sendtag=step,
                                    recvtag=step, nbytes=8)


def _raise_in_ladder_gen(comm):
    try:
        if comm.rank == 3:
            procs = comm.engine.procs
            yield from comm.co_compute(1.0)
            yield from comm.engine.co_give_way(procs[3])  # the others park
            for p in procs[:3] + procs[4:]:
                task, names = p.task, []
                while task is not None:
                    names.append(task.gi_code.co_name)
                    task = task.gi_yieldfrom
                LADDER[p.rank] = (p.state.value, names)
            raise ValueError("rank 3 fails while the others are parked")
        yield from _ring_ladder(comm, 6)
    finally:
        if comm.rank == 1:
            raise KeyError("rank 1 fails while being unwound")


def _raise_in_ladder_blocking(comm):
    me, n = comm.rank, comm.size
    try:
        if me == 3:
            comm.compute(1.0)
            comm.engine.maybe_yield(comm.engine.procs[3])
            raise ValueError("rank 3 fails while the others are parked")
        for step in range(6):
            comm.sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                          sendtag=step, recvtag=step, nbytes=8)
    finally:
        if me == 1:
            raise KeyError("rank 1 fails while being unwound")


@_both(_raise_in_ladder_gen, _raise_in_ladder_blocking)
def test_rank_raising_while_others_park_in_a_sendrecv_ladder(program):
    LADDER.clear()
    engine, outcome = _run_guarded(program)
    assert isinstance(outcome, RankFailure)
    assert outcome.rank == 1
    assert isinstance(outcome.original, KeyError)
    assert isinstance(engine.procs[3].exc, ValueError)
    assert all(p.state.value == "done" for p in engine.procs)
    if inspect.isgeneratorfunction(program):
        # Every other rank was parked in the ladder's co_wait itself.
        assert LADDER == {
            r: ("blocked", ["_raise_in_ladder_gen", "_ring_ladder", "co_wait"])
            for r in (0, 1, 2, 4, 5)}


# -- a program returning with its last send still deferred -------------------


def _last_send_deferred_gen(comm):
    if comm.rank == 0:
        msg = yield from comm.co_recv(source=1)
        return msg.nbytes
    if comm.rank == 1:
        yield from comm.co_compute(2.0)
        yield from comm.co_send(None, dest=0, nbytes=64)  # deferred
    return f"rank {comm.rank}"


def _last_send_deferred_blocking(comm):
    if comm.rank == 0:
        return comm.recv(source=1).nbytes
    if comm.rank == 1:
        comm.compute(2.0)
        comm.send(None, dest=0, nbytes=64)
    return f"rank {comm.rank}"


@pytest.mark.parametrize("observed", [False, True], ids=["obs-off", "obs-on"])
def test_returning_program_settles_its_last_send(observed):
    """The loop settles a send the program left deferred (the job a
    wrapper frame used to do), in the same tenure: the result survives,
    the receiver gets the message, and resumes still equal switches."""
    from repro import obs

    runs = {}
    for program in (_last_send_deferred_gen, _last_send_deferred_blocking):
        if observed:
            obs.enable()
        try:
            engine, outcome = _run_guarded(program, n_ranks=3)
        finally:
            obs.disable()
        assert outcome == [64, "rank 1", "rank 2"]
        assert engine.resumes == engine.switches
        runs[program] = engine
    gen, blocking = runs.values()
    # Rank 1's continuation ended as the settle the loop started for it.
    assert gen.procs[1].task.gi_code.co_name == "co_settle"
    assert gen.clocks() == blocking.clocks()
    assert gen.switches == blocking.switches


# -- misuse: blocking park inside a generator program ------------------------


def test_blocking_park_inside_generator_program_is_an_error():
    """``comm.recv`` cannot park a continuation; the call says so."""

    def program(comm):
        yield from comm.co_barrier()
        if comm.rank == 0:
            comm.recv(source=1)  # nothing sent yet: would have to park
        else:
            yield from comm.co_send(None, dest=0, nbytes=8)

    engine, outcome = _run_guarded(program, n_ranks=2)
    assert isinstance(outcome, RankFailure) and outcome.rank == 0
    assert isinstance(outcome.original, SimError)
    assert "co_*" in str(outcome.original)


def test_park_free_blocking_calls_work_inside_generator_programs():
    """The same blocking calls are fine when nothing has to park."""

    def program(comm):
        yield from comm.co_barrier()
        t = comm.time  # deferred send already settled by the barrier
        comm.compute(1e-6)
        return comm.time - t

    engine, outcome = _run_guarded(program, n_ranks=2)
    assert outcome == pytest.approx([1e-6, 1e-6])


# -- misuse: an un-run generator as the rank program's result ----------------


def _kernel(comm, scale):
    yield from comm.co_barrier()
    return comm.rank * scale


def test_unrun_generator_result_is_an_error():
    """``engine.run(lambda comm: gen_fn(comm, x))`` used to "succeed"
    with zero messages and generator objects as results."""
    engine, outcome = _run_guarded(lambda comm: _kernel(comm, 10))
    assert isinstance(outcome, SimError)
    assert "args=" in str(outcome.original)
    assert engine.messages == 0


def test_generator_function_with_args_runs():
    cluster = Cluster(Topology([("node", 1), ("core", 2)]), 2)
    engine = Engine(cluster)
    assert engine.run(_kernel, args=(10,)) == [0, 10]
    assert engine.messages > 0
