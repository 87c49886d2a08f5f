"""Reduce algorithms: binomial tree, binary tree, flat — pipelined.

The paper's Fig. 5a optimizes the *binary-tree* reduce ("Binary Tree
algorithm" in the caption): every internal tree node receives the full
buffer from each child.  Like Open MPI's tuned component, large
buffers are segmented and pipelined through the tree; the monitoring
component records one point-to-point message per segment per edge.

Each algorithm's tree is stated once, by :func:`tree`; the live bodies
below, gather, the tree barrier's fan-in and replay substitution
(:mod:`repro.replay.patterns`) all walk it.  The decompositions are
``co_`` generators (see barrier.py); the blocking spelling is the
``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simmpi.collectives import bcast
from repro.simmpi.collectives.segment import join_payloads, n_segments, split_buffer
from repro.simmpi.collectives.util import (as_buffer, default_algorithm, done,
                                           unvrank, unwrap, vrank)
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError
from repro.simmpi.op import Op, combine

__all__ = ["co_reduce", "tree", "ALGORITHMS", "PIPELINED"]

ALGORITHMS = ("binomial", "binary", "flat")
#: The algorithms that cut a large buffer into pipelined segments.
PIPELINED = ("binomial", "binary")


def co_reduce(
    comm,
    value: Any,
    op: Op,
    root: int = 0,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
    segments: Optional[int] = None,
):
    """Reduce ``value`` across ranks with ``op``; the result lands at
    ``root`` (other ranks return ``None``).

    The segment count is derived from the (uniform) buffer size; pass
    ``segments=1`` to disable pipelining (required for concrete
    payloads that are not NumPy arrays).
    """
    comm._check_rank(root)
    algorithm = algorithm or default_algorithm("reduce", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown reduce algorithm {algorithm!r}; have {ALGORITHMS}")
    if segments is not None and segments < 1:
        raise CommError(f"reduce wants segments >= 1, got {segments}")
    ctx = comm._next_collective_context("reduce")
    buf = as_buffer(value, nbytes)
    if comm.size == 1:
        return done(unwrap(buf))

    if algorithm not in PIPELINED:
        return _flat(comm, buf, op, root, ctx)
    nseg = int(segments) if segments is not None else n_segments(buf.nbytes)
    if nseg > 1 and buf.payload is not None and not hasattr(buf.payload, "reshape"):
        raise CommError(
            "cannot segment a non-array payload; pass segments=1"
        )
    return _tree_reduce(comm, buf, op, root, ctx, nseg, algorithm)


def tree(algorithm: str, rank: int, size: int, root: int):
    """``(parent or None, children)`` of ``rank`` in ``algorithm``'s
    tree rooted at ``root``, in real ranks; the children in the order
    the rank receives from them."""
    if algorithm == "binary":   # heap order over the virtual ranks
        vr = vrank(rank, root, size)
        parent = unvrank((vr - 1) // 2, root, size) if vr else None
        return parent, [unvrank(c, root, size)
                        for c in (2 * vr + 1, 2 * vr + 2) if c < size]
    # The broadcast's binomial tree or flat star with its arrows
    # reversed.  A binomial node takes its children deepest (smallest
    # offset) first: those subtrees complete first.
    parent, children = bcast.tree(algorithm, rank, size, root)
    return parent, children[::-1] if algorithm == "binomial" else children


def _tree_reduce(comm, buf: Buffer, op: Op, root: int, ctx, nseg: int,
                 algorithm: str):
    parent, children = tree(algorithm, comm.rank, comm.size, root)
    pieces = split_buffer(buf, nseg)
    out: List[Buffer] = []
    # Regular per-edge decomposition: the nseg segment sends to the
    # parent tally into one batch.
    batch = None if parent is None else comm._open_peer_batch(parent, "coll")
    for s, piece in enumerate(pieces):
        acc = piece
        for child in children:
            msg = yield from comm._irecv(child, s, ctx).co_wait()
            acc = combine(op, acc, msg.buf)
        if parent is not None:
            yield from comm._co_isend(acc, parent, s, ctx, "coll", batch)
        else:
            out.append(acc)
    if parent is not None:
        yield from comm._co_close_peer_batch(batch)
        return None
    if nseg == 1:
        return unwrap(out[0])
    return unwrap(join_payloads(out, buf))


def _flat(comm, buf: Buffer, op: Op, root: int, ctx):
    parent, children = tree("flat", comm.rank, comm.size, root)
    if parent is not None:
        yield from comm._co_isend(buf, parent, 0, ctx, "coll")
        return None
    for src in children:
        msg = yield from comm._irecv(src, 0, ctx).co_wait()
        buf = combine(op, buf, msg.buf)
    return unwrap(buf)
