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
