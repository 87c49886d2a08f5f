"""Shared helpers for the collective algorithms."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.simmpi.datatypes import Buffer

__all__ = ["as_buffer", "unwrap", "vrank", "unvrank", "is_pow2", "ceil_log2",
           "done", "by_rank", "pack", "copied", "default_algorithm"]


def done(value: Any = None):
    """A decomposition with nothing to send: returns ``value`` at once."""
    return value
    yield  # pragma: no cover - makes this a generator


def by_rank(pieces: Dict[int, Buffer]) -> List[Any]:
    """Every rank's piece, unwrapped, indexed by rank (gather results)."""
    return [unwrap(pieces[r]) for r in range(len(pieces))]


def pack(pieces: Dict[int, Buffer]) -> Buffer:
    """Pack per-rank pieces into one wire message.

    The payload is a copy of the dict, not of its pieces (see
    :func:`copied`); the wire size is the sum of the piece sizes, so the
    timing model and the monitoring component both see the true volume.
    """
    return Buffer(dict(pieces), nbytes=sum(b.nbytes for b in pieces.values()))


def copied(buf: Buffer) -> Buffer:
    """``buf`` with a NumPy payload value-copied; any other buffer as is.

    The send path copies only a top-level array, so a piece that travels
    inside a :func:`pack`-ed table is copied once, where it enters the
    table, to keep copy semantics for the rank that ends up holding it.
    """
    if isinstance(buf.payload, np.ndarray):
        return Buffer(buf.payload.copy(), nbytes=buf.nbytes)
    return buf


def as_buffer(value: Any, nbytes: Optional[int] = None) -> Buffer:
    return Buffer.wrap(value, nbytes)


def unwrap(buf: Buffer) -> Any:
    """Return a buffer's payload, or the abstract buffer itself.

    Concrete payloads come back as plain values (mpi4py-style); abstract
    buffers are returned as :class:`Buffer` so their size survives.
    """
    if buf.is_abstract:
        return buf
    return buf.payload


def vrank(rank: int, root: int, size: int) -> int:
    """Virtual rank with the root shifted to 0 (for rooted trees)."""
    return (rank - root) % size


def unvrank(vr: int, root: int, size: int) -> int:
    return (vr + root) % size


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length()


def default_algorithm(op: str, size: int) -> Optional[str]:
    """What ``co_<op>`` runs on ``size`` ranks when the caller passes no
    algorithm (recorded as ``""`` in replay traces); ``None`` for an op
    with a single algorithm."""
    if op in ("bcast", "reduce", "gather", "scatter"):
        return "binomial"
    if op == "barrier":
        return "dissemination"
    if op == "alltoall":
        return "pairwise"
    if op == "allgather":
        return "recursive_doubling" if is_pow2(size) else "ring"
    if op == "allreduce":
        return "recursive_doubling" if is_pow2(size) else "reduce_bcast"
    return None
