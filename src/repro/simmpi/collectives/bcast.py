"""Broadcast algorithms: pipelined binomial tree (default), flat, chain.

The paper's Fig. 5b optimizes the *binomial-tree* broadcast: the rank
reordering moves the heavy tree edges (which all carry the full buffer)
inside nodes.  Large buffers are segmented and pipelined through the
tree (like Open MPI's tuned component), so the monitoring component
records one point-to-point message per segment per edge.

Each algorithm's tree is stated once, by :func:`tree`; the live bodies
below, scatter, the tree barrier's fan-out and replay substitution
(:mod:`repro.replay.patterns`) all walk it.  The decompositions are
``co_`` generators (see barrier.py); the blocking spelling is the
``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simmpi.collectives.segment import n_segments, join_payloads, split_buffer
from repro.simmpi.collectives.util import (as_buffer, default_algorithm, done,
                                           unvrank, unwrap, vrank)
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_bcast", "tree", "ALGORITHMS", "PIPELINED"]

ALGORITHMS = ("binomial", "flat", "chain")
#: The algorithms that cut a large buffer into pipelined segments.
PIPELINED = ("binomial",)


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
    algorithm = algorithm or default_algorithm("bcast", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown bcast algorithm {algorithm!r}; have {ALGORITHMS}")
    if segments is not None and segments < 1:
        raise CommError(f"bcast wants segments >= 1, got {segments}")
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


def tree(algorithm: str, rank: int, size: int, root: int):
    """``(parent or None, children)`` of ``rank`` in ``algorithm``'s
    tree rooted at ``root``, in real ranks; the children in the order
    the rank sends to them."""
    vr = vrank(rank, root, size)
    if algorithm == "flat":
        if vr:
            return root, []
        return None, [dst for dst in range(size) if dst != root]
    if algorithm == "chain":
        parent = unvrank(vr - 1, root, size) if vr else None
        return parent, [unvrank(vr + 1, root, size)] if vr + 1 < size else []
    # binomial: a rank receives over the lowest set bit of its virtual
    # rank (the root over none) and sends over every lower bit, highest
    # first.
    low = vr & -vr
    parent = unvrank(vr - low, root, size) if vr else None
    children: List[int] = []
    mask = (low or 1 << (size - 1).bit_length()) >> 1
    while mask:
        if vr + mask < size:
            children.append(unvrank(vr + mask, root, size))
        mask >>= 1
    return parent, children


def _segment_count(comm, buf: Optional[Buffer], root: int,
                   segments: Optional[int], ctx) -> int:
    """All ranks must agree on the segment count, which depends on the
    root's buffer size — so the root ships it in a tiny control
    message along the tree (folded into segment 0's tag in real
    implementations; one extra byte here)."""
    if segments is not None:
        return int(segments)
    if comm.rank == root:
        n = n_segments(buf.nbytes)
        if buf.payload is not None and not hasattr(buf.payload, "reshape"):
            n = 1  # non-array payloads cannot be sliced
        return n
    return 0  # receivers learn it from the header segment


def _binomial(comm, buf: Optional[Buffer], root: int, ctx, segments):
    parent, children = tree("binomial", comm.rank, comm.size, root)
    nseg = _segment_count(comm, buf, root, segments, ctx)

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
    parent, children = tree("flat", comm.rank, comm.size, root)
    if parent is None:
        for dst in children:
            yield from comm._co_isend(buf, dst, 0, ctx, "coll")
        return unwrap(buf)
    msg = yield from comm._irecv(parent, 0, ctx).co_wait()
    return unwrap(msg.buf)


def _chain(comm, buf: Optional[Buffer], root: int, ctx):
    parent, children = tree("chain", comm.rank, comm.size, root)
    if parent is not None:
        msg = yield from comm._irecv(parent, 0, ctx).co_wait()
        buf = msg.buf
    for dst in children:
        yield from comm._co_isend(buf, dst, 0, ctx, "coll")
    return unwrap(buf)
