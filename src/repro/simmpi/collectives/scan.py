"""Scan (prefix reduction) and reduce-scatter collectives.

Not used by the paper's experiments, but part of the MPI collective
surface an adopter expects — and more decompositions for the monitor
to see.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simmpi.collectives.util import as_buffer, copied, pack, unwrap
from repro.simmpi.datatypes import Buffer
from repro.simmpi.op import Op, combine

__all__ = ["co_scan", "co_exscan", "co_reduce_scatter"]


def co_scan(comm, value: Any, op: Op, nbytes: Optional[int] = None):
    """Inclusive prefix reduction: rank i returns op(v_0, ..., v_i).

    Hillis-Steele doubling: log₂ p rounds of one send/recv pair.
    """
    ctx = comm._next_collective_context("scan")
    me, size = comm.rank, comm.size
    acc = as_buffer(value, nbytes)
    dist = 1
    while dist < size:
        # Send the running prefix downstream, receive from upstream.
        req = None
        if me - dist >= 0:
            req = comm._irecv(me - dist, dist, ctx)
        if me + dist < size:
            yield from comm._co_isend(acc, me + dist, dist, ctx, "coll")
        if req is not None:
            msg = yield from req.co_wait()
            acc = combine(op, msg.buf, acc)
        dist <<= 1
    return unwrap(acc)


def co_exscan(comm, value: Any, op: Op, nbytes: Optional[int] = None):
    """Exclusive prefix reduction: rank i returns op(v_0, ..., v_{i-1});
    rank 0 returns ``None`` (like MPI_Exscan's undefined result)."""
    ctx = comm._next_collective_context("exscan")
    me, size = comm.rank, comm.size
    mine = as_buffer(value, nbytes)
    acc: Optional[Buffer] = None  # prefix of *earlier* ranks only
    dist = 1
    while dist < size:
        send_buf = mine if acc is None else combine(op, acc, mine)
        req = None
        if me - dist >= 0:
            req = comm._irecv(me - dist, dist, ctx)
        if me + dist < size:
            yield from comm._co_isend(send_buf, me + dist, dist, ctx, "coll")
        if req is not None:
            msg = yield from req.co_wait()
            acc = msg.buf if acc is None else combine(op, msg.buf, acc)
        dist <<= 1
    return None if acc is None else unwrap(acc)


def co_reduce_scatter(comm, values: List[Any], op: Op,
                      nbytes: Optional[int] = None):
    """Reduce ``values[j]`` across ranks, scatter result j to rank j.

    ``values`` has one item per rank.  Implemented as pairwise
    recursive halving for power-of-two sizes, reduce+scatter otherwise.
    """
    me, size = comm.rank, comm.size
    if len(values) != size:
        from repro.simmpi.errorsim import CommError

        raise CommError(f"reduce_scatter needs {size} values, got {len(values)}")
    ctx = comm._next_collective_context("reduce_scatter")
    bufs = {j: as_buffer(v, nbytes) for j, v in enumerate(values)}
    if size == 1:
        return unwrap(bufs[0])

    if size & (size - 1) == 0:
        # Recursive halving: each step exchanges the half of the result
        # indices owned by the partner's side, combining into our half.
        lo, hi = 0, size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            partner = me ^ ((hi - lo) // 2)
            if me < mid:
                send_idx = range(mid, hi)
                keep = (lo, mid)
            else:
                send_idx = range(lo, mid)
                keep = (mid, hi)
            req = comm._irecv(partner, hi - lo, ctx)
            # Each piece goes to one partner, which may keep it (an op
            # can return an operand) while this rank's caller reuses
            # its values: a NumPy piece is copied as it enters the table.
            yield from comm._co_isend(
                pack({j: copied(bufs[j]) for j in send_idx}),
                partner, hi - lo, ctx, "coll")
            msg = yield from req.co_wait()
            for j, b in msg.payload.items():
                bufs[j] = combine(op, bufs[j], b)
            lo, hi = keep
        return unwrap(bufs[me])

    # General size: binomial reduce of the whole table, then scatter.
    from repro.simmpi.collectives.reduce import co_reduce
    from repro.simmpi.collectives.scatter import co_scatter

    table = [bufs[j] for j in range(size)]
    reduced: List[Optional[Buffer]] = []
    for j in range(size):
        r = yield from co_reduce(comm, table[j], op, root=0, segments=1)
        reduced.append(r)
    if me == 0:
        items = [r if isinstance(r, Buffer) else Buffer.wrap(r) for r in reduced]
    else:
        items = None
    return (yield from co_scatter(comm, items, root=0))
