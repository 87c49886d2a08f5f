"""A parked rank stays shallow.

A generator program is the rank's continuation itself, an unobserved
collective hands back its algorithm's generator, and the park loops are
inlined into the generators that park, so a rank blocked in a collective
holds three frames: program → decomposition → ``co_wait``.  Observation
(``repro.obs`` spans, replay recording) wraps the decomposition only
while a recorder is attached, and must still see every call.  User
point-to-point follows the same rule: ``co_sendrecv`` and ``co_recv``
hand back the receive's own ``co_wait``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.apps.cg import CG_CLASSES, CGConfig, co_run_cg
from repro.replay import autorecord
from repro.replay.schema import K_B, K_E
from repro.simmpi import SUM, Cluster, Engine, current_process
from repro.simmpi.collectives import allreduce, barrier, bcast
from repro.simmpi.comm import Communicator
from repro.simmpi.request import RecvRequest

N_RANKS = 64
LATE = 5  # enters every collective last


def _chain(task):
    """The code names along a continuation's ``gi_yieldfrom`` chain."""
    names = []
    while task is not None:
        names.append(task.gi_code.co_name)
        task = task.gi_yieldfrom
    return names


COLLECTIVES = {
    "barrier": (lambda comm: comm.co_barrier(), "_dissemination"),
    # Recursive doubling is written inline in the entry point.
    "allreduce": (lambda comm: comm.co_allreduce(np.float64(comm.rank), SUM),
                  "co_allreduce"),
    "bcast": (lambda comm: comm.co_bcast(np.float64(1.0), root=LATE),
              "_binomial"),
}


def _stopped_mid(collective):
    """A program whose rank ``LATE`` waits until every other rank is
    parked inside ``collective``, then records their continuations'
    chains before joining it."""
    chains = {}

    def program(comm):
        proc = current_process()
        if comm.rank == LATE:
            yield from comm.co_compute(1.0)
            yield from comm.engine.co_give_way(proc)  # everyone else parks
            for other in comm.engine.procs:
                if other is not proc:
                    chains[other.rank] = (other.state.value,
                                          _chain(other.task))
        yield from collective(comm)

    return program, chains


@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_a_rank_parked_in_a_collective_holds_three_frames(name):
    collective, algorithm = COLLECTIVES[name]
    program, chains = _stopped_mid(collective)
    engine = Engine(Cluster.plafrim(-(-N_RANKS // 24), n_ranks=N_RANKS,
                                    binding="rr"))
    engine.run(program)
    assert len(chains) == N_RANKS - 1
    for rank, (state, names) in chains.items():
        assert state == "blocked", (rank, state)
        assert len(names) <= 3, (rank, names)
        assert names == ["program", algorithm, "co_wait"], (rank, names)
    assert engine.resumes == engine.switches


def _barrier_program(comm):
    gen = comm.co_barrier()
    # Unobserved: the decomposition's own generator, no wrapper.
    assert gen.gi_code is barrier._dissemination.__code__
    yield from gen


def _small_engine():
    return Engine(Cluster.plafrim(1, n_ranks=8, binding="rr"))


def test_unobserved_collective_is_the_algorithm_generator():
    def program(comm):
        assert comm.co_barrier().gi_code is barrier._dissemination.__code__
        assert comm.co_barrier("tree").gi_code is barrier._tree.__code__
        assert comm.co_allreduce(1.0, SUM).gi_code is \
            allreduce.co_allreduce.__code__
        assert comm.co_bcast(1.0).gi_code is bcast._binomial.__code__
        return
        yield  # pragma: no cover - makes this a generator program

    engine = _small_engine()
    engine.run(program)
    assert engine.messages == 0  # returned, never run


def test_observed_collective_still_emits_its_span():
    _, spans = obs.enable()
    try:
        engine = _small_engine()
        engine.run(_observed_barrier)
    finally:
        obs.disable()
    lanes = [s[0] for s in spans.finished if s[1] == "barrier"]
    assert sorted(lanes) == list(range(8))
    assert engine.resumes == engine.switches


def _observed_barrier(comm):
    gen = comm.co_barrier()
    # Observed: the begin/end wrapper, around the same decomposition.
    assert gen.gi_code is not barrier._dissemination.__code__
    yield from gen


def test_recorded_collective_still_writes_begin_and_end_rows():
    with autorecord.capture() as traces:
        engine = _small_engine()
        engine.run(_observed_barrier)
    cols = traces[0].columns()
    assert int((cols.kind == K_B).sum()) == 8
    assert int((cols.kind == K_E).sum()) == 8
    assert [c[1] for c in cols.colls] == ["barrier"]
    assert engine.resumes == engine.switches


def test_unobserved_run_matches_observed_run():
    """The wrapper observes and never schedules: same clocks and
    switches with a span recorder attached or not."""
    plain = _small_engine()
    plain.run(_barrier_program)
    obs.enable()
    try:
        observed = _small_engine()
        observed.run(_observed_barrier)
    finally:
        obs.disable()
    assert plain.clocks() == observed.clocks()
    assert plain.switches == observed.switches == observed.resumes


# -- user point-to-point ------------------------------------------------------

WAIT_CODE = RecvRequest.co_wait.__code__


OBSERVED = pytest.mark.parametrize("observed", [False, True],
                                   ids=["obs-off", "obs-on"])


def _run_maybe_observed(observed, make_engine, program):
    if observed:
        obs.enable()
    try:
        engine = make_engine()
        results = engine.run(program)
    finally:
        obs.disable()
    return engine, results


@OBSERVED
def test_user_p2p_hands_back_co_wait(observed):
    def program(comm):
        me, n = comm.rank, comm.size
        gen = comm.co_sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                               nbytes=8)
        assert gen.gi_code is WAIT_CODE
        yield from gen
        if me == 0:
            # Nothing to settle: injected or deferred on the spot.
            assert comm.co_send(None, dest=1, tag=3, nbytes=8) == ()
        elif me == 1:
            gen = comm.co_recv(source=0, tag=3)
            assert gen.gi_code is WAIT_CODE
            return (yield from gen).nbytes

    engine, results = _run_maybe_observed(observed, _small_engine, program)
    assert results[1] == 8
    assert engine.messages == 9
    assert engine.resumes == engine.switches


def test_a_cg_rank_parked_mid_ladder_holds_no_sendrecv_frame():
    """NAS CG class S on 16 ranks, stopped while every rank but ``LATE``
    is parked in an exchange: the ladder parks in ``co_wait`` itself."""
    config = CGConfig(CG_CLASSES["S"], mode="modeled", niter=1)
    program, chains = _stopped_mid(lambda comm: co_run_cg(comm, config))
    engine = Engine(Cluster.plafrim(1, n_ranks=16, binding="rr"))
    engine.run(program)
    assert len(chains) == 15
    ladders = {"_row_ladder_sum", "_reduce_scatter_row", "_allgather_column"}
    for rank, (state, names) in chains.items():
        assert state == "blocked", (rank, state)
        assert names[-1] == "co_wait", (rank, names)
        # The transpose exchange parks in _matvec, every other in a ladder.
        assert names[-2] in ladders | {"_matvec"}, (rank, names)
        assert "co_sendrecv" not in names and "_timed_sendrecv" not in names
        assert len(names) <= 7, (rank, names)
    # LATE's row partners finished their first step and wait on the second.
    for rank in (4, 6):
        assert chains[rank][1][-2:] == ["_row_ladder_sum", "co_wait"]
    assert max(len(names) for _, names in chains.values()) == 7
    assert engine.resumes == engine.switches


def _park_then_wait_blocking(comm):
    me = comm.rank
    if me == 0:
        return float(comm.sendrecv(np.float64(0.5), dest=1, source=1).payload)
    if me == 1:
        comm.compute(2.0)
        comm.send(np.float64(1.5), dest=2)  # deferred: ranks 0 and 2 are behind
        return float(comm.sendrecv(np.float64(2.5), dest=0, source=0).payload)
    return float(comm.recv(source=1).payload)


@OBSERVED
def test_sendrecv_behind_a_send_that_must_park(observed):
    """Rank 1's second send has to park to settle its first: its
    ``co_sendrecv`` returns the park-then-wait generator, and the run
    lands where the blocking spelling does."""
    branches = []

    def program(comm):
        me = comm.rank
        if me == 0:
            msg = yield from comm.co_sendrecv(np.float64(0.5), dest=1,
                                              source=1)
        elif me == 1:
            yield from comm.co_compute(2.0)
            yield from comm.co_send(np.float64(1.5), dest=2)
            gen = comm.co_sendrecv(np.float64(2.5), dest=0, source=0)
            branches.append(gen.gi_code)
            msg = yield from gen
        else:
            msg = yield from comm.co_recv(source=1)
        return float(msg.payload)

    def make():
        return Engine(Cluster.plafrim(1, n_ranks=3, binding="rr"))

    gen, gen_results = _run_maybe_observed(observed, make, program)
    blocking, blocking_results = _run_maybe_observed(
        observed, make, _park_then_wait_blocking)
    assert branches == [Communicator._co_park_then_wait.__code__]
    assert gen_results == blocking_results == [2.5, 0.5, 1.5]
    assert gen.clocks() == blocking.clocks()
    assert gen.switches == blocking.switches
    assert gen.messages == blocking.messages == 3
    assert gen.resumes == gen.switches
    assert blocking.resumes == blocking.switches
