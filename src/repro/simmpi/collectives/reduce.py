"""Reduce algorithms: binomial tree, binary tree, flat — pipelined.

The paper's Fig. 5a optimizes the *binary-tree* reduce ("Binary Tree
algorithm" in the caption): every internal tree node receives the full
buffer from each child.  Like Open MPI's tuned component, large
buffers are segmented and pipelined through the tree; the monitoring
component records one point-to-point message per segment per edge.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simmpi.collectives.segment import join_payloads, n_segments, split_buffer
from repro.simmpi.collectives.util import as_buffer, done, unvrank, unwrap, vrank
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError
from repro.simmpi.op import Op, combine

__all__ = ["co_reduce", "ALGORITHMS"]

ALGORITHMS = ("binomial", "binary", "flat")


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
    algorithm = algorithm or "binomial"
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown reduce algorithm {algorithm!r}; have {ALGORITHMS}")
    ctx = comm._next_collective_context("reduce")
    buf = as_buffer(value, nbytes)
    if comm.size == 1:
        return done(unwrap(buf))

    nseg = max(1, int(segments)) if segments is not None else n_segments(buf.nbytes)
    if nseg > 1 and buf.payload is not None and not hasattr(buf.payload, "reshape"):
        raise CommError(
            "cannot segment a non-array payload; pass segments=1"
        )

    if algorithm == "flat":
        return _flat(comm, buf, op, root, ctx)
    links = _binomial_links if algorithm == "binomial" else _binary_links
    return _tree_reduce(comm, buf, op, root, ctx, nseg, links)


# ---------------------------------------------------------------------------
# tree shapes: (children, parent) in *virtual* rank space


def _binary_links(vr: int, size: int):
    children = [c for c in (2 * vr + 1, 2 * vr + 2) if c < size]
    parent = None if vr == 0 else (vr - 1) // 2
    return children, parent


def _binomial_links(vr: int, size: int):
    children = []
    parent = None
    mask = 1
    while mask < size:
        if vr & mask:
            parent = vr & ~mask
            break
        if vr | mask < size and vr | mask != vr:
            children.append(vr | mask)
        mask <<= 1
    # Children must be reduced before forwarding: deepest (smallest
    # offset) subtrees complete first, so receive in ascending order.
    return children, parent


def _tree_reduce(comm, buf: Buffer, op: Op, root: int, ctx, nseg: int,
                 links):
    me, size = comm.rank, comm.size
    vr = vrank(me, root, size)
    children_v, parent_v = links(vr, size)
    children = [unvrank(c, root, size) for c in children_v]
    parent = None if parent_v is None else unvrank(parent_v, root, size)

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
    me, size = comm.rank, comm.size
    if me != root:
        yield from comm._co_isend(buf, root, 0, ctx, "coll")
        return None
    for src in range(size):
        if src == root:
            continue
        msg = yield from comm._irecv(src, 0, ctx).co_wait()
        buf = combine(op, buf, msg.buf)
    return unwrap(buf)
