"""Gather algorithms: binomial tree (default) and linear.

Both walk the reduce's tree, :func:`repro.simmpi.collectives.reduce.tree`
(``linear`` is its ``flat`` star): a rank receives each child's table in
the tree's order, then sends the union to its parent.  The
decompositions are ``co_`` generators (see barrier.py); the blocking
spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.simmpi.collectives import reduce
from repro.simmpi.collectives.util import (as_buffer, by_rank, copied,
                                          default_algorithm, done, pack,
                                          unwrap)
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_gather", "ALGORITHMS"]

ALGORITHMS = ("binomial", "linear")


def co_gather(
    comm,
    value: Any,
    root: int = 0,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
):
    """Gather every rank's ``value`` at ``root`` (returns ``None``
    elsewhere)."""
    comm._check_rank(root)
    algorithm = algorithm or default_algorithm("gather", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown gather algorithm {algorithm!r}; have {ALGORITHMS}")
    ctx = comm._next_collective_context("gather")
    buf = as_buffer(value, nbytes)
    if comm.size == 1:
        return done([unwrap(buf)])
    shape = "flat" if algorithm == "linear" else algorithm
    return _tree(comm, buf, root, ctx, shape)


def _tree(comm, buf: Buffer, root: int, ctx, shape: str):
    parent, children = reduce.tree(shape, comm.rank, comm.size, root)
    # Only the root keeps the table: every other rank's piece is copied
    # as it enters it, so the root never holds a sender's live array.
    table: Dict[int, Buffer] = {
        comm.rank: buf if parent is None else copied(buf)}
    for child in children:
        msg = yield from comm._irecv(child, 0, ctx).co_wait()
        table.update(msg.payload)
    if parent is not None:
        yield from comm._co_isend(pack(table), parent, 0, ctx, "coll")
        return None
    return by_rank(table)
