"""All-to-all personalized exchange: pairwise (default) and linear.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.simmpi.collectives.util import (as_buffer, default_algorithm,
                                           is_pow2, unwrap)
from repro.simmpi.errorsim import CommError

__all__ = ["co_alltoall", "ALGORITHMS"]

ALGORITHMS = ("pairwise", "linear")


def co_alltoall(
    comm,
    values: Sequence[Any],
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
):
    """Send ``values[j]`` to rank j; returns the items received, by
    source rank.  ``nbytes`` is the per-item size for abstract items."""
    algorithm = algorithm or default_algorithm("alltoall", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown alltoall algorithm {algorithm!r}; have {ALGORITHMS}")
    me, size = comm.rank, comm.size
    if len(values) != size:
        raise CommError(f"alltoall needs {size} values, got {len(values)}")
    ctx = comm._next_collective_context("alltoall")
    bufs = [as_buffer(v, nbytes) for v in values]
    out: List[Any] = [None] * size
    out[me] = unwrap(bufs[me])
    if size == 1:
        return out

    if algorithm == "pairwise":
        xor_mode = is_pow2(size)
        for step in range(1, size):
            if xor_mode:
                peer = me ^ step
            else:
                peer = (me + step) % size
                # shift pattern: receive from the mirrored peer
            recv_from = peer if xor_mode else (me - step) % size
            req = comm._irecv(recv_from, step, ctx)
            yield from comm._co_isend(bufs[peer], peer, step, ctx, "coll")
            msg = yield from req.co_wait()
            out[recv_from] = unwrap(msg.buf)
    else:
        reqs = [
            comm._irecv(src, 0, ctx)
            for src in range(size)
            if src != me
        ]
        for dst in range(size):
            if dst != me:
                yield from comm._co_isend(bufs[dst], dst, 0, ctx, "coll")
        for req in reqs:
            msg = yield from req.co_wait()
            out[msg.src] = unwrap(msg.buf)
    return out
