"""Gather algorithms: binomial tree (default) and linear.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.simmpi.collectives.util import (as_buffer, by_rank,
                                          default_algorithm, done, unvrank,
                                          unwrap, vrank)
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
    algo = _binomial if algorithm == "binomial" else _linear
    return algo(comm, buf, root, ctx)


def _pack(table: Dict[int, Buffer]) -> Buffer:
    total = sum(b.nbytes for b in table.values())
    return Buffer(dict(table), nbytes=total)


def _binomial(comm, buf: Buffer, root: int, ctx):
    me, size = comm.rank, comm.size
    vr = vrank(me, root, size)
    table: Dict[int, Buffer] = {me: buf}
    mask = 1
    while mask < size:
        if vr & mask == 0:
            src_v = vr | mask
            if src_v < size:
                msg = yield from comm._irecv(
                    unvrank(src_v, root, size), mask, ctx).co_wait()
                table.update(msg.payload)
        else:
            dst = unvrank(vr & ~mask, root, size)
            yield from comm._co_isend(_pack(table), dst, mask, ctx, "coll")
            return None
        mask <<= 1
    return by_rank(table)


def _linear(comm, buf: Buffer, root: int, ctx):
    me, size = comm.rank, comm.size
    if me != root:
        yield from comm._co_isend(buf, root, 0, ctx, "coll")
        return None
    table: Dict[int, Buffer] = {me: buf}
    for src in range(size):
        if src == root:
            continue
        msg = yield from comm._irecv(src, 0, ctx).co_wait()
        table[src] = msg.buf
    return by_rank(table)
