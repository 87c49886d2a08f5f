"""Barrier algorithms: dissemination (default) and tree.

Barriers generate *zero-length* point-to-point messages — the message
counts still increment, which is exactly the caveat the paper gives in
§4.1 ("some collective MPI routines might generate point-to-point
zero-length messages"), and what the quickstart example shows for
``MPI_Barrier``.

Like every collective, the decomposition is written once, as a ``co_``
generator a rank program drives with ``yield from``; the blocking
spelling, ``Communicator.barrier``, runs the same generator through the
engine's adapter, so both execute the identical engine call sequence.
"""

from __future__ import annotations

from typing import Optional

from repro.simmpi.collectives.util import ceil_log2, default_algorithm
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_barrier", "ALGORITHMS"]

ALGORITHMS = ("dissemination", "tree")

_TOKEN = Buffer(None, nbytes=0)


def co_barrier(comm, algorithm: Optional[str] = None):
    """Block until every rank has entered the barrier (returns the
    algorithm's generator, or ``()`` on one rank)."""
    algorithm = algorithm or default_algorithm("barrier", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown barrier algorithm {algorithm!r}; have {ALGORITHMS}")
    ctx = comm._next_collective_context("barrier")
    if comm.size == 1:
        return ()
    if algorithm == "dissemination":
        return _dissemination(comm, ctx)
    return _tree(comm, ctx)


def _dissemination(comm, ctx):
    me, size = comm.rank, comm.size
    for k in range(ceil_log2(size)):
        dist = 1 << k
        dst = (me + dist) % size
        src = (me - dist) % size
        req = comm._irecv(src, k, ctx)
        yield from comm._co_isend(_TOKEN, dst, k, ctx, "coll")
        yield from req.co_wait()


def _tree(comm, ctx):
    """Binomial fan-in to rank 0 then binomial fan-out."""
    me, size = comm.rank, comm.size
    # Fan-in.
    mask = 1
    while mask < size:
        if me & mask == 0:
            src = me | mask
            if src < size:
                yield from comm._irecv(src, mask, ctx).co_wait()
        else:
            yield from comm._co_isend(_TOKEN, me & ~mask, mask, ctx, "coll")
            break
        mask <<= 1
    # Fan-out (release), reusing the binomial broadcast structure.
    mask = 1
    while mask < size:
        if me & mask:
            yield from comm._irecv(me - mask, size + mask, ctx).co_wait()
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if me + mask < size:
            yield from comm._co_isend(_TOKEN, me + mask, size + mask, ctx, "coll")
        mask >>= 1
