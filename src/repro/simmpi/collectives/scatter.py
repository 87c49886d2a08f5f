"""Scatter algorithms: binomial tree (default) and linear.

Both walk the broadcast's tree, :func:`repro.simmpi.collectives.bcast.tree`
(``linear`` is its ``flat`` star): each child gets the items of its own
subtree, which runs in virtual ranks from the child up to the sender's
next-higher child, or to the end of the sender's range.  The
decompositions are ``co_`` generators (see barrier.py); the blocking
spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.simmpi.collectives import bcast
from repro.simmpi.collectives.util import (as_buffer, copied,
                                           default_algorithm, done, pack,
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
        # Each item reaches one rank; the ones that leave the root are
        # copied here, so no receiver holds the root's live array.
        table = {r: as_buffer(v, nbytes) for r, v in enumerate(values)}
        table = {r: b if r == root else copied(b) for r, b in table.items()}
    if size == 1:
        return done(unwrap(table[0]))
    shape = "flat" if algorithm == "linear" else algorithm
    return _tree(comm, table, root, ctx, shape)


def _tree(comm, table: Optional[Dict[int, Buffer]], root: int, ctx,
          shape: str):
    me, size = comm.rank, comm.size
    parent, children = bcast.tree(shape, me, size, root)
    if parent is not None:
        msg = yield from comm._irecv(parent, 0, ctx).co_wait()
        table = msg.payload
    # The table holds the sender's own range of virtual ranks; a child's
    # subtree ends where the next-higher child's begins.
    starts = sorted(vrank(c, root, size) for c in children)
    ends = dict(zip(starts, starts[1:] + [vrank(me, root, size) + len(table)]))
    for child in children:
        lo = vrank(child, root, size)
        owners = [unvrank(v, root, size) for v in range(lo, ends[lo])]
        yield from comm._co_isend(pack({r: table[r] for r in owners}),
                                  child, 0, ctx, "coll")
    return unwrap(table[me])
