"""Allgather algorithms: ring (default), recursive doubling, gather+bcast.

Used by the paper's §6.4 micro-benchmark, where groups of ranks
allgather every iteration and reordering restores data locality.

The decompositions are ``co_`` generators (see barrier.py); the
blocking spelling is the ``Communicator`` method of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.simmpi.collectives.util import (as_buffer, by_rank, copied,
                                          default_algorithm, done, is_pow2,
                                          pack, unwrap)
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["co_allgather", "ALGORITHMS"]

ALGORITHMS = ("ring", "recursive_doubling", "bruck", "gather_bcast")


def co_allgather(
    comm,
    value: Any,
    nbytes: Optional[int] = None,
    algorithm: Optional[str] = None,
):
    """Gather every rank's ``value``; all ranks return the full list,
    indexed by rank."""
    algorithm = algorithm or default_algorithm("allgather", comm.size)
    if algorithm not in ALGORITHMS:
        raise CommError(f"unknown allgather algorithm {algorithm!r}; have {ALGORITHMS}")
    if algorithm == "recursive_doubling" and not is_pow2(comm.size):
        raise CommError("recursive_doubling requires a power-of-two size")
    ctx = comm._next_collective_context("allgather")
    buf = as_buffer(value, nbytes)
    if comm.size == 1:
        return done([unwrap(buf)])
    algo = {"ring": _ring, "recursive_doubling": _recursive_doubling,
            "bruck": _bruck, "gather_bcast": _gather_bcast}[algorithm]
    return algo(comm, buf, ctx)


def _ring(comm, buf: Buffer, ctx):
    me, size = comm.rank, comm.size
    right = (me + 1) % size
    left = (me - 1) % size
    pieces: Dict[int, Buffer] = {me: buf}
    # The ring's per-peer decomposition is regular — size-1 pieces, all
    # to the right neighbour: the whole rotation tallies into one batch.
    batch = comm._open_peer_batch(right, "coll")
    # Step k: forward the piece received at step k-1 (own piece first).
    forward = me
    for step in range(size - 1):
        req = comm._irecv(left, step, ctx)
        yield from comm._co_isend(pieces[forward], right, step, ctx, "coll", batch)
        msg = yield from req.co_wait()
        incoming = (left - step) % size  # origin of the piece at this step
        pieces[incoming] = msg.buf
        forward = incoming
    yield from comm._co_close_peer_batch(batch)
    return by_rank(pieces)


def _recursive_doubling(comm, buf: Buffer, ctx):
    me, size = comm.rank, comm.size
    pieces: Dict[int, Buffer] = {me: copied(buf)}
    mask = 1
    while mask < size:
        peer = me ^ mask
        req = comm._irecv(peer, mask, ctx)
        yield from comm._co_isend(pack(pieces), peer, mask, ctx, "coll")
        msg = yield from req.co_wait()
        pieces.update(msg.payload)
        mask <<= 1
    return _unpacked(pieces, me, buf)


def _bruck(comm, buf: Buffer, ctx):
    """Bruck's algorithm: ⌈log₂ p⌉ rounds for *any* communicator size.

    Round k: send the pieces accumulated so far to ``rank - 2^k`` and
    receive from ``rank + 2^k`` (mod p); after the last round every
    rank holds all p pieces.  Works for non-powers of two with a
    partial final round, unlike recursive doubling.
    """
    me, size = comm.rank, comm.size
    pieces: Dict[int, Buffer] = {me: copied(buf)}
    k = 0
    while (1 << k) < size:
        dist = 1 << k
        dst = (me - dist) % size
        src = (me + dist) % size
        # Send the block of pieces accumulated so far: the window of up
        # to `dist` pieces starting at my own rank.
        window = [(me + j) % size for j in range(min(dist, size))]
        tosend = {r: pieces[r] for r in window if r in pieces}
        req = comm._irecv(src, k, ctx)
        yield from comm._co_isend(pack(tosend), dst, k, ctx, "coll")
        msg = yield from req.co_wait()
        pieces.update(msg.payload)
        k += 1
    assert len(pieces) == size
    return _unpacked(pieces, me, buf)


def _gather_bcast(comm, buf: Buffer, ctx):
    from repro.simmpi.collectives.bcast import co_bcast
    from repro.simmpi.collectives.gather import co_gather

    me = comm.rank
    gathered = yield from co_gather(comm, buf, root=0)
    if me == 0:
        table = {r: as_buffer(v) for r, v in enumerate(gathered)}
        table[me] = copied(table[me])       # gather copied every other
        packed = pack(table)
    else:
        packed = None
    result = yield from co_bcast(comm, packed, root=0)
    payload = result.payload if isinstance(result, Buffer) else result
    return _unpacked(payload, me, buf)


def _unpacked(pieces: Dict[int, Buffer], me: int, buf: Buffer):
    """A rank's result out of packed tables, which hand every rank the
    same piece objects.  The tables hold a copy of each rank's own
    ``buf``, so no rank sees another reuse its value after the call;
    the result holds ``buf`` itself, and every other NumPy piece is
    copied as it leaves (:func:`copied`), once per receiver, so no two
    ranks share one."""
    return by_rank({r: buf if r == me else copied(b)
                    for r, b in pieces.items()})
