"""Segmentation helpers for pipelined tree collectives.

Open MPI's tuned collectives *segment* large buffers and pipeline the
segments through the tree, which turns the collective from
latency-bound (depth × full-buffer transfers) into throughput-bound —
the regime in which the paper's Fig. 5 reordering gains arise.  The
monitoring component consequently sees one point-to-point message per
segment per tree edge, exactly as on the real stack: each segment send
is one record, gated by the monitoring mode in force when it is sent.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.simmpi.datatypes import Buffer

__all__ = ["n_segments", "split_buffer", "join_payloads",
           "DEFAULT_SEGMENT_BYTES", "MAX_SEGMENTS"]

#: Segment size used by the pipelined algorithms (Open MPI's tuned
#: defaults are smaller, but each simulated message has a fixed cost;
#: 16 segments already yield throughput-bound behaviour).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
MAX_SEGMENTS = 16


def n_segments(nbytes: int, segment_bytes: int = DEFAULT_SEGMENT_BYTES,
               max_segments: int = MAX_SEGMENTS) -> int:
    if nbytes <= segment_bytes:
        return 1
    return min(max_segments, -(-nbytes // segment_bytes))


def split_buffer(buf: Buffer, segments: int) -> List[Buffer]:
    """Cut a buffer into ``segments`` pieces (sizes differ by <= 1 byte
    for abstract buffers; array payloads are sliced flat).

    Non-array concrete payloads cannot be sliced; the caller should
    have chosen ``segments == 1`` for them.
    """
    if segments <= 1:
        return [buf]
    n = buf.nbytes
    base, extra = divmod(n, segments)
    if buf.payload is None:
        # Only two distinct sizes occur; abstract buffers are immutable
        # descriptors, so the same object can stand in for every
        # equally-sized segment.
        small = Buffer(None, nbytes=base)
        if not extra:
            return [small] * segments
        big = Buffer(None, nbytes=base + 1)
        return [big] * extra + [small] * (segments - extra)
    if isinstance(buf.payload, np.ndarray):
        flat = buf.payload.reshape(-1)
        per = -(-flat.size // segments)
        out = []
        for i in range(segments):
            piece = flat[i * per : (i + 1) * per]
            out.append(Buffer(piece, nbytes=int(piece.nbytes)))
        # Pad the list if the array was shorter than the segment count.
        while len(out) < segments:
            out.append(Buffer(flat[:0], nbytes=0))
        return out
    raise TypeError(
        f"cannot segment a {type(buf.payload).__name__} payload; "
        "use segments=1"
    )


def join_payloads(pieces: List[Buffer], like: Buffer) -> Buffer:
    """Reassemble segmented pieces into one buffer.

    Array pieces concatenate flat and reshape to the reference shape
    when sizes agree; abstract pieces merge into one abstract buffer.
    """
    total = sum(p.nbytes for p in pieces)
    if all(p.payload is None for p in pieces):
        return Buffer.abstract(total)
    arrays = [np.asarray(p.payload).reshape(-1) for p in pieces]
    flat = np.concatenate(arrays) if arrays else np.empty(0)
    ref = like.payload
    if isinstance(ref, np.ndarray) and flat.size == ref.size:
        return Buffer(flat.reshape(ref.shape), nbytes=total)
    return Buffer(flat, nbytes=total)
