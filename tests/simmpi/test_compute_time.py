"""A compute or sleep time must be a finite, non-negative number.

A NaN clock silently breaks the ready heap's order and an infinite one
poisons every later clock, so ``co_compute``, the blocking ``compute``
/ ``sleep`` and ``SimProcess.advance`` all refuse them with
``ValueError`` — a rank failure, never a hang.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.simmpi import Cluster, Engine, RankFailure, Topology

BAD_TIMES = pytest.mark.parametrize(
    "seconds", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


def _engine():
    return Engine(Cluster(Topology([("node", 2), ("core", 2)]), 4))


def _run_guarded(program):
    """``engine.run(program)``'s result or exception, under a watchdog."""
    engine = _engine()
    box = {}

    def target():
        try:
            box["outcome"] = engine.run(program)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["outcome"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), "the simulation hung"
    return box["outcome"]


def _rank0_value_error(outcome):
    assert isinstance(outcome, RankFailure), outcome
    assert outcome.rank == 0
    assert isinstance(outcome.__cause__, ValueError)


@BAD_TIMES
def test_co_compute_rejects_a_non_finite_time(seconds):
    def program(comm):
        if comm.rank == 0:
            yield from comm.co_compute(seconds)
        yield from comm.co_barrier()

    _rank0_value_error(_run_guarded(program))


@pytest.mark.parametrize("call", ["compute", "sleep"])
@BAD_TIMES
def test_blocking_compute_and_sleep_reject_a_non_finite_time(call, seconds):
    def program(comm):
        getattr(comm, call)(seconds)
        comm.barrier()
        return comm.time

    _rank0_value_error(_run_guarded(program))


@BAD_TIMES
def test_advance_rejects_a_non_finite_time(seconds):
    def program(comm):
        with pytest.raises(ValueError):
            comm.engine.procs[comm.rank].advance(seconds)
        comm.barrier()
        return comm.time

    assert all(math.isfinite(t) for t in _run_guarded(program))


def test_finite_times_still_advance():
    def program(comm):
        yield from comm.co_compute(0.0)
        yield from comm.co_compute(1.5)
        return (yield from comm.co_time())

    assert _engine().run(program) == [1.5] * 4
