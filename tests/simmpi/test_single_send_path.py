"""Every p2p and collective message is sent in one place.

``Communicator._co_isend`` hands each send to ``Engine._materialize`` —
on the spot when nothing is due before the sender, from the pending
heap when it comes due — so the monitoring component's vantage point
is a single function.  Wrapping it with a counter must account for
every message the network carried, in both spellings, on a program
whose sends take both branches.  The steps it runs per message are
the owning modules' own: ``Network.transfer`` costs it and
``MatchQueue.deliver`` / ``MatchQueue.post`` match it, with no inlined
copy beside them.  Once the network has carried a message, one
observer slot sees it: every send, put and get is one call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import Cluster, Engine
from repro.simmpi.engine import _PS_QSEQ
from repro.simmpi.match import MatchQueue


def _gen_program(comm):
    me, n = comm.rank, comm.size
    yield from comm.co_barrier()
    for step in range(3):
        yield from comm.co_sendrecv(None, dest=(me + 1) % n,
                                    source=(me - 1) % n, sendtag=step,
                                    recvtag=step, nbytes=1 << (10 + step))
        yield from comm.co_compute(1e-6 * ((me * 7 + step) % 5))
    value = yield from comm.co_bcast(np.arange(64.0), root=3, segments=4)
    return float(value.sum())


def _blocking_program(comm):
    me, n = comm.rank, comm.size
    comm.barrier()
    for step in range(3):
        comm.sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                      sendtag=step, recvtag=step, nbytes=1 << (10 + step))
        comm.compute(1e-6 * ((me * 7 + step) % 5))
    value = comm.bcast(np.arange(64.0), root=3, segments=4)
    return float(value.sum())


def _counted_run(program):
    engine = Engine(Cluster.plafrim(2, n_ranks=12, binding="rr", jitter=0.1))
    calls = dict.fromkeys(("on_the_spot", "deferred", "transfer", "deliver",
                           "bound_at_deliver", "post", "bound_at_post"), 0)
    materialize = engine._materialize
    transfer = engine.network.transfer
    deliver, post = MatchQueue.deliver, MatchQueue.post

    def counted(ps):
        # A deferred send got a queue sequence number when it was pushed.
        calls["deferred" if ps[_PS_QSEQ] else "on_the_spot"] += 1
        return materialize(ps)

    def counted_transfer(*args):
        calls["transfer"] += 1
        return transfer(*args)

    def counted_deliver(queue, msg):
        calls["deliver"] += 1
        req = deliver(queue, msg)
        calls["bound_at_deliver"] += req is not None
        return req

    def counted_post(queue, req):
        calls["post"] += 1
        bound = post(queue, req)
        calls["bound_at_post"] += bound
        return bound

    engine._materialize = counted
    engine.network.transfer = counted_transfer
    MatchQueue.deliver, MatchQueue.post = counted_deliver, counted_post
    try:
        results = engine.run(program)
    finally:
        MatchQueue.deliver, MatchQueue.post = deliver, post
    return engine, results, calls


@pytest.mark.parametrize("program", [_gen_program, _blocking_program],
                         ids=["generator", "blocking"])
def test_every_message_goes_through_materialize(program):
    engine, results, calls = _counted_run(program)
    assert results == [float(np.arange(64).sum())] * 12
    assert calls["on_the_spot"] + calls["deferred"] == engine.messages
    # Both branches of the send ran: the frontmost one and the deferral.
    assert calls["on_the_spot"] > 0 and calls["deferred"] > 0


@pytest.mark.parametrize("program", [_gen_program, _blocking_program],
                         ids=["generator", "blocking"])
def test_every_message_runs_the_one_transfer_and_match(program):
    """A message is costed by ``Network.transfer`` and matched by
    ``MatchQueue.deliver``; a receive is matched by ``MatchQueue.post``.
    Every message of this program is received, so each is bound exactly
    once, on one side or the other."""
    engine, _results, calls = _counted_run(program)
    assert calls["transfer"] == calls["deliver"] == engine.messages
    assert calls["post"] == engine.messages
    assert calls["bound_at_deliver"] + calls["bound_at_post"] == \
        engine.messages
    # Both sides of the match ran: receive first and message first.
    assert calls["bound_at_deliver"] > 0 and calls["bound_at_post"] > 0


def _osc_program(comm):
    me, n = comm.rank, comm.size
    yield from comm.co_barrier()
    win = yield from comm.co_win_create(np.zeros(8), nbytes=64)
    yield from win.co_fence()
    if me % 3 == 0:
        yield from win.co_put(np.ones(2), target=(me + 1) % n, nbytes=16)
    yield from win.co_fence()
    if me % 2 == 0:
        yield from win.co_get(target=(me + 5) % n, nbytes=24)
    yield from win.co_fence()
    yield from comm.co_bcast(None, root=0, nbytes=3_000 if me == 0 else None,
                             segments=3)


@pytest.mark.parametrize("program", [_gen_program, _osc_program],
                         ids=["p2p+coll", "osc"])
def test_one_observer_call_per_message(program):
    """The engine's observer slot is called once per message the network
    carried — by ``_materialize`` for each send, by ``Window`` for each
    put and each get — and by nothing else."""
    engine = Engine(Cluster.plafrim(2, n_ranks=12, binding="rr", jitter=0.1))
    kinds = []
    engine._observe = lambda kind, *_: kinds.append(kind)
    materialize = engine._materialize
    sends = []

    def counted(ps):
        sends.append(ps)
        return materialize(ps)

    engine._materialize = counted
    engine.run(program)
    n_put = 4 if program is _osc_program else 0     # ranks 0, 3, 6, 9
    n_get = 6 if program is _osc_program else 0     # even ranks
    assert kinds.count("S") == len(sends) > 0
    assert (kinds.count("P"), kinds.count("G")) == (n_put, n_get)
    assert len(kinds) == len(sends) + n_put + n_get == engine.messages


def test_both_spellings_send_the_same_way():
    gen, _, gen_calls = _counted_run(_gen_program)
    blocking, _, blocking_calls = _counted_run(_blocking_program)
    assert gen_calls == blocking_calls
    assert gen.clocks() == blocking.clocks()
    assert gen.switches == blocking.switches
