"""Allreduce algorithms: recursive doubling and reduce+bcast.

The default is recursive doubling for power-of-two communicators
(log₂ p full-buffer exchanges) and reduce+bcast otherwise.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.simmpi.collectives.util import (as_buffer, default_algorithm,
                                           is_pow2, unwrap)
from repro.simmpi.errorsim import CommError
from repro.simmpi.op import Op, combine

__all__ = ["co_allreduce", "ALGORITHMS"]

ALGORITHMS = ("recursive_doubling", "reduce_bcast", "rabenseifner")


def co_allreduce(
    comm,
    value: Any,
    op: Op,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
):
    """Reduce ``value`` across ranks; every rank returns the result."""
    algorithm = algorithm or default_algorithm("allreduce", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown allreduce algorithm {algorithm!r}; have {ALGORITHMS}")
    if algorithm == "recursive_doubling" and not is_pow2(comm.size):
        raise CommError("recursive_doubling requires a power-of-two size")

    if algorithm == "rabenseifner" and not is_pow2(comm.size):
        raise CommError("rabenseifner requires a power-of-two size")

    if algorithm == "reduce_bcast":
        from repro.simmpi.collectives.bcast import co_bcast
        from repro.simmpi.collectives.reduce import co_reduce

        partial = yield from co_reduce(comm, value, op, root=0, nbytes=nbytes)
        return (yield from co_bcast(
            comm, partial, root=0,
            nbytes=nbytes if comm.rank == 0 else None))

    if algorithm == "rabenseifner":
        from repro.simmpi.collectives.allgather import co_allgather
        from repro.simmpi.collectives.scan import co_reduce_scatter

        # Reduce-scatter + allgather: bandwidth-optimal (2·(p-1)/p · n
        # bytes per rank instead of log₂p · n).  Items are the vector
        # halves... modeled here at whole-buffer granularity: split the
        # buffer into p equal abstract/array chunks.
        me, size = comm.rank, comm.size
        buf = as_buffer(value, nbytes)
        chunk = -(-buf.nbytes // size)
        if buf.payload is None:
            parts = [None] * size
            mine = yield from co_reduce_scatter(comm, parts, op, nbytes=chunk)
            got = yield from co_allgather(
                comm, mine if hasattr(mine, "nbytes") else None, nbytes=chunk)
            total = sum(g.nbytes if hasattr(g, "nbytes") else chunk
                        for g in got)
            from repro.simmpi.datatypes import Buffer

            return Buffer.abstract(min(total, buf.nbytes) or buf.nbytes)
        import numpy as np

        flat = np.asarray(buf.payload).reshape(-1)
        per = -(-flat.size // size)
        parts = [flat[i * per : (i + 1) * per].copy() for i in range(size)]
        mine = yield from co_reduce_scatter(comm, parts, op)
        got = yield from co_allgather(comm, mine)
        out = np.concatenate([np.asarray(g).reshape(-1) for g in got])
        out = out[: flat.size]
        ref = np.asarray(buf.payload)
        return out.reshape(ref.shape) if out.size == ref.size else out

    ctx = comm._next_collective_context("allreduce")
    me, size = comm.rank, comm.size
    buf = as_buffer(value, nbytes)
    if size == 1:
        return unwrap(buf)
    mask = 1
    while mask < size:
        peer = me ^ mask
        req = comm._irecv(peer, mask, ctx)
        yield from comm._co_isend(buf, peer, mask, ctx, "coll")
        msg = yield from req.co_wait()
        buf = combine(op, buf, msg.buf)
        mask <<= 1
    return unwrap(buf)
