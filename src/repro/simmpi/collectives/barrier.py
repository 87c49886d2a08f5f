"""Barrier algorithms: dissemination (default) and tree.

The tree barrier walks the binomial trees rooted at rank 0 that
:func:`repro.simmpi.collectives.reduce.tree` (fan-in) and
:func:`repro.simmpi.collectives.bcast.tree` (fan-out) state.

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

from repro.simmpi.collectives import bcast, reduce
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


def _dissemination(comm, ctx, category: str = "coll"):
    """Round k: a token to ``rank + 2^k``, one from ``rank - 2^k``.
    ``Window.co_fence`` runs it too, as ``"osc"`` traffic."""
    me, size = comm.rank, comm.size
    for k in range(ceil_log2(size)):
        dist = 1 << k
        dst = (me + dist) % size
        src = (me - dist) % size
        req = comm._irecv(src, k, ctx)
        yield from comm._co_isend(_TOKEN, dst, k, ctx, category)
        yield from req.co_wait()


def _tree(comm, ctx):
    """Fan-in over the binomial reduce tree rooted at rank 0 (tag 0),
    then fan-out over the binomial broadcast tree (tag 1)."""
    me, size = comm.rank, comm.size
    parent, children = reduce.tree("binomial", me, size, 0)
    for child in children:
        yield from comm._irecv(child, 0, ctx).co_wait()
    if parent is not None:
        yield from comm._co_isend(_TOKEN, parent, 0, ctx, "coll")
    parent, children = bcast.tree("binomial", me, size, 0)
    if parent is not None:
        yield from comm._irecv(parent, 1, ctx).co_wait()
    for child in children:
        yield from comm._co_isend(_TOKEN, child, 1, ctx, "coll")
