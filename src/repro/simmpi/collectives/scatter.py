"""Scatter algorithms: binomial tree (default) and linear.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.simmpi.collectives.util import (as_buffer, default_algorithm, done,
                                           unvrank, unwrap, vrank)
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_scatter", "ALGORITHMS"]

ALGORITHMS = ("binomial", "linear")


def co_scatter(
    comm,
    values: Optional[Sequence[Any]] = None,
    root: int = 0,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
):
    """Scatter ``values`` (one item per rank, significant at ``root``);
    every rank returns its item.

    ``nbytes``, if given, is the per-item size (for abstract items).
    """
    comm._check_rank(root)
    algorithm = algorithm or default_algorithm("scatter", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown scatter algorithm {algorithm!r}; have {ALGORITHMS}")
    ctx = comm._next_collective_context("scatter")
    me, size = comm.rank, comm.size

    table: Optional[Dict[int, Buffer]] = None
    if me == root:
        if values is None or len(values) != size:
            raise CommError(f"root must supply {size} values")
        table = {r: as_buffer(v, nbytes) for r, v in enumerate(values)}
    if size == 1:
        return done(unwrap(table[0]))
    algo = _binomial if algorithm == "binomial" else _linear
    return algo(comm, table, root, ctx)


def _pack(table: Dict[int, Buffer]) -> Buffer:
    total = sum(b.nbytes for b in table.values())
    return Buffer(dict(table), nbytes=total)


def _binomial(comm, table: Optional[Dict[int, Buffer]], root: int, ctx):
    me, size = comm.rank, comm.size
    vr = vrank(me, root, size)

    # Receive the block of items for my subtree.
    mask = 1
    while mask < size:
        if vr & mask:
            src = unvrank(vr - mask, root, size)
            msg = yield from comm._irecv(src, mask, ctx).co_wait()
            table = dict(msg.payload)
            break
        mask <<= 1

    # Forward sub-blocks to my children (largest subtree first).
    mask >>= 1
    while mask > 0:
        if vr + mask < size:
            dst_v = vr + mask
            sub = {
                r: b
                for r, b in table.items()
                if dst_v <= vrank(r, root, size) < dst_v + mask
            }
            yield from comm._co_isend(
                _pack(sub), unvrank(dst_v, root, size), mask, ctx, "coll")
            for r in sub:
                del table[r]
        mask >>= 1
    return unwrap(table[me])


def _linear(comm, table: Optional[Dict[int, Buffer]], root: int, ctx):
    me, size = comm.rank, comm.size
    if me == root:
        for dst in range(size):
            if dst != root:
                yield from comm._co_isend(table[dst], dst, 0, ctx, "coll")
        return unwrap(table[me])
    msg = yield from comm._irecv(root, 0, ctx).co_wait()
    return unwrap(msg.buf)
