"""Broadcast algorithms: pipelined binomial tree (default), flat, chain.

The paper's Fig. 5b optimizes the *binomial-tree* broadcast: the rank
reordering moves the heavy tree edges (which all carry the full buffer)
inside nodes.  Large buffers are segmented and pipelined through the
tree (like Open MPI's tuned component), so the monitoring component
records one point-to-point message per segment per edge.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simmpi.collectives.segment import n_segments, join_payloads, split_buffer
from repro.simmpi.collectives.util import as_buffer, done, unvrank, unwrap, vrank
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_bcast", "ALGORITHMS"]

ALGORITHMS = ("binomial", "flat", "chain")


def co_bcast(
    comm,
    value: Any = None,
    root: int = 0,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
    segments: Optional[int] = None,
):
    """Broadcast ``value`` from ``root``; every rank returns the value.

    ``segments`` overrides the pipelining factor (1 disables it); by
    default large buffers are cut into up to 16 segments.  Segmented
    array payloads arrive flat at non-root ranks (shape travels with
    the data only in the unsegmented path).
    """
    comm._check_rank(root)
    algorithm = algorithm or "binomial"
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown bcast algorithm {algorithm!r}; have {ALGORITHMS}")
    ctx = comm._next_collective_context("bcast")
    me = comm.rank
    size = comm.size
    if size == 1:
        return done(unwrap(as_buffer(value, nbytes)) if me == root else None)

    buf = as_buffer(value, nbytes) if me == root else None
    if algorithm == "binomial":
        return _binomial(comm, buf, root, ctx, segments)
    if algorithm == "flat":
        return _flat(comm, buf, root, ctx)
    return _chain(comm, buf, root, ctx)


def _segment_count(comm, buf: Optional[Buffer], root: int,
                   segments: Optional[int], ctx) -> int:
    """All ranks must agree on the segment count, which depends on the
    root's buffer size — so the root ships it in a tiny control
    message along the tree (folded into segment 0's tag in real
    implementations; one extra byte here)."""
    if segments is not None:
        return max(1, int(segments))
    if comm.rank == root:
        n = n_segments(buf.nbytes)
        if buf.payload is not None and not hasattr(buf.payload, "reshape"):
            n = 1  # non-array payloads cannot be sliced
        return n
    return 0  # receivers learn it from the header segment


def _binomial(comm, buf: Optional[Buffer], root: int, ctx, segments):
    me, size = comm.rank, comm.size
    vr = vrank(me, root, size)

    # Where do I receive from / send to?
    recv_mask = 0
    mask = 1
    while mask < size:
        if vr & mask:
            recv_mask = mask
            break
        mask <<= 1
    children: List[int] = []
    mask = (recv_mask or mask) >> 1
    while mask > 0:
        if vr + mask < size:
            children.append(unvrank(vr + mask, root, size))
        mask >>= 1

    nseg = _segment_count(comm, buf, root, segments, ctx)
    parent = unvrank(vr - recv_mask, root, size) if recv_mask else None

    # Per-edge accounting is regular (nseg segments, whole buffer):
    # every segment send to a child tallies into one per-child batch.
    batches = {c: comm._open_peer_batch(c, "coll") for c in children}

    if parent is None:
        pieces = split_buffer(buf, nseg)
        hdr = Buffer(("BCAST_HDR", nseg, pieces[0].payload),
                     nbytes=pieces[0].nbytes)
        for s, piece in enumerate(pieces):
            wire = hdr if s == 0 else piece
            for child in children:
                yield from comm._co_isend(wire, child, s, ctx, "coll",
                                          batches[child])
        for child in children:
            yield from comm._co_close_peer_batch(batches[child])
        return unwrap(buf)

    # Receivers: segment 0 carries the segment count in its header.
    msg0 = yield from comm._irecv(parent, 0, ctx).co_wait()
    payload0 = msg0.payload
    if isinstance(payload0, tuple) and len(payload0) == 3 and \
            payload0[0] == "BCAST_HDR":
        nseg = payload0[1]
        pieces = [Buffer(payload0[2], nbytes=msg0.nbytes)]
    else:
        nseg = 1
        pieces = [msg0.buf]
    for child in children:
        yield from comm._co_isend(msg0.buf, child, 0, ctx, "coll",
                                  batches[child])
    for s in range(1, nseg):
        msg = yield from comm._irecv(parent, s, ctx).co_wait()
        pieces.append(msg.buf)
        for child in children:
            yield from comm._co_isend(msg.buf, child, s, ctx, "coll",
                                      batches[child])
    for child in children:
        yield from comm._co_close_peer_batch(batches[child])
    if nseg == 1:
        return unwrap(pieces[0])
    return unwrap(join_payloads(pieces, pieces[0]))


def _flat(comm, buf: Optional[Buffer], root: int, ctx):
    me, size = comm.rank, comm.size
    if me == root:
        for dst in range(size):
            if dst != root:
                yield from comm._co_isend(buf, dst, 0, ctx, "coll")
        return unwrap(buf)
    msg = yield from comm._irecv(root, 0, ctx).co_wait()
    return unwrap(msg.buf)


def _chain(comm, buf: Optional[Buffer], root: int, ctx):
    me, size = comm.rank, comm.size
    vr = vrank(me, root, size)
    if vr > 0:
        src = unvrank(vr - 1, root, size)
        msg = yield from comm._irecv(src, 0, ctx).co_wait()
        buf = msg.buf
    if vr + 1 < size:
        dst = unvrank(vr + 1, root, size)
        yield from comm._co_isend(buf, dst, 0, ctx, "coll")
    return unwrap(buf)
