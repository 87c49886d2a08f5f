"""A rejected point-to-point call leaves nothing behind — in both
spellings.

Every user p2p entry point validates its arguments and the caller's
membership before it touches a match queue: a ``sendrecv`` refused for
a bad ``dest`` or tag posts no receive that could swallow a later
message, and a caller outside the communicator gets ``CommError``, not
a bare ``KeyError`` from the rank lookup.
"""

from __future__ import annotations

import pytest

from repro.simmpi import CommError
from tests.conftest import run_spmd

#: Bad arguments for ``sendrecv`` between ranks 0 and 1 of a 2-rank world;
#: each would receive with tag 7 if it got that far.
BAD_SENDRECV = {
    "dest": dict(dest=2, source=1, sendtag=0, recvtag=7),
    "sendtag": dict(dest=1, source=1, sendtag=-1, recvtag=7),
    "source": dict(dest=1, source=2, sendtag=0, recvtag=7),
}


def _posted(comm):
    mq = comm.engine.match_queues.get((comm.id, comm.rank))
    return 0 if mq is None else mq.n_posted


def _refused_sendrecv_gen(comm, bad):
    if comm.rank == 1:
        yield from comm.co_send(None, dest=0, tag=7, nbytes=16)
        return None
    try:
        yield from comm.co_sendrecv(None, nbytes=8, **BAD_SENDRECV[bad])
    except CommError as exc:
        refused = str(exc)
    posted = _posted(comm)
    msg = yield from comm.co_recv(source=1, tag=7)
    return refused, posted, msg.nbytes


def _refused_sendrecv_blocking(comm, bad):
    if comm.rank == 1:
        comm.send(None, dest=0, tag=7, nbytes=16)
        return None
    try:
        comm.sendrecv(None, nbytes=8, **BAD_SENDRECV[bad])
    except CommError as exc:
        refused = str(exc)
    posted = _posted(comm)
    return refused, posted, comm.recv(source=1, tag=7).nbytes


@pytest.mark.parametrize("bad", sorted(BAD_SENDRECV))
@pytest.mark.parametrize("program",
                         [_refused_sendrecv_gen, _refused_sendrecv_blocking],
                         ids=["generator", "blocking"])
def test_refused_sendrecv_posts_no_receive(program, bad):
    results, engine = run_spmd(program, n_ranks=2, args=(bad,))
    refused, posted, nbytes = results[0]
    assert ("user tags" if bad == "sendtag" else "out of range") in refused
    assert posted == 0
    assert nbytes == 16  # the later receive got the tag-7 message
    assert engine.messages == 1


# -- a caller outside the communicator ---------------------------------------

#: Every user p2p entry point on the odd ranks' communicator, called by
#: world rank 0; the arguments are valid for a 2-rank communicator.
NON_MEMBER_GEN = {
    "irecv": lambda c: c.irecv(source=0).co_wait(),
    "isend": lambda c: c.co_isend(None, dest=0, nbytes=8),
    "send": lambda c: c.co_send(None, dest=0, nbytes=8),
    "recv": lambda c: c.co_recv(source=0),
    "sendrecv": lambda c: c.co_sendrecv(None, dest=0, source=0, nbytes=8),
    "probe": lambda c: c.co_probe(source=0),
}
NON_MEMBER_BLOCKING = {
    "irecv": lambda c: c.irecv(source=0),
    "isend": lambda c: c.isend(None, dest=0, nbytes=8),
    "send": lambda c: c.send(None, dest=0, nbytes=8),
    "recv": lambda c: c.recv(source=0),
    "sendrecv": lambda c: c.sendrecv(None, dest=0, source=0, nbytes=8),
    "probe": lambda c: c.probe(source=0),
}


def _odd_comm(comm):
    """The split's other colour, as world rank 0 sees it: a sibling it
    is not a member of."""
    return comm.engine.comm_registry[("split", comm.id, 0, 1)]


def _non_member_gen(comm):
    yield from comm.co_split(comm.rank % 2, comm.rank)
    if comm.rank != 0:
        return None
    errors = {}
    for name, call in NON_MEMBER_GEN.items():
        try:
            yield from call(_odd_comm(comm))
        except CommError as exc:
            errors[name] = str(exc)
    return errors


def _non_member_blocking(comm):
    comm.split(comm.rank % 2, comm.rank)
    if comm.rank != 0:
        return None
    errors = {}
    for name, call in NON_MEMBER_BLOCKING.items():
        try:
            call(_odd_comm(comm))
        except CommError as exc:
            errors[name] = str(exc)
    return errors


@pytest.mark.parametrize("program", [_non_member_gen, _non_member_blocking],
                         ids=["generator", "blocking"])
def test_non_member_p2p_raises_comm_error(program):
    results, engine = run_spmd(program, n_ranks=4)
    errors = results[0]
    assert sorted(errors) == sorted(NON_MEMBER_GEN)
    for name, text in errors.items():
        assert text == "world rank 0 is not a member of this communicator", \
            name
    odd = engine.comm_registry[("split", engine.world.id, 0, 1)]
    assert not any(cid == odd.id for cid, _ in engine.match_queues)
