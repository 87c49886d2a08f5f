"""Flush-file formats of MPI_M_flush / MPI_M_rootflush, plus a parser.

``MPI_M_flush`` makes each process write ``<base>.<rank>.prof`` (rank in
the session's communicator) with its per-peer counts and sizes.
``MPI_M_rootflush`` makes the root process write two files —
``<base>_counts.<rank>.prof`` and ``<base>_sizes.<rank>.prof``, where
``<rank>`` is the root's rank in MPI_COMM_WORLD (as the paper's API
table specifies) — each holding the full communicator-wide matrix.

Files are plain text: ``#``-prefixed header lines with ``key=value``
metadata, then whitespace-separated numeric rows, so they load with
``numpy.loadtxt`` as well as with :func:`read_profile`.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Any, Dict

import numpy as np

from repro.core.constants import format_flags
from repro.core.errors import TraceSchemaError

#: Flush-file format version; ``read_profile`` refuses files declaring
#: a different one (headerless legacy files still load).
PROFILE_SCHEMA = 1

__all__ = [
    "PROFILE_SCHEMA",
    "atomic_write",
    "local_profile_path",
    "root_profile_paths",
    "write_local_profile",
    "write_root_profiles",
    "read_profile",
]


@contextlib.contextmanager
def atomic_write(path: str, encoding: str = "utf-8"):
    """Write ``path`` via a same-directory temp file + ``os.replace``.

    Yields an open text handle.  On success the temp file atomically
    replaces ``path``; on any error it is unlinked and the original
    file (if one existed) is left untouched — a crashed exporter can
    never leave a truncated JSON behind.  Same-directory placement
    keeps the final rename on one filesystem, which is what makes it
    atomic.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=d)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def local_profile_path(base: str, rank: int) -> str:
    return f"{base}.{rank}.prof"


def root_profile_paths(base: str, world_rank: int):
    return (
        f"{base}_counts.{world_rank}.prof",
        f"{base}_sizes.{world_rank}.prof",
    )


def _check_dir(path: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d):
        raise FileNotFoundError(f"directory does not exist: {d} (path has to exist)")


def _header(kind: str, meta: Dict[str, Any]) -> str:
    pairs = " ".join(f"{k}={v}" for k, v in meta.items())
    return (f"# MPI_Monitoring profile schema={PROFILE_SCHEMA}\n"
            f"# kind={kind} {pairs}\n")


def write_local_profile(
    base: str,
    rank: int,
    counts: np.ndarray,
    sizes: np.ndarray,
    flags: int,
) -> str:
    """One process's rows: ``src dst count bytes`` per peer."""
    path = local_profile_path(base, rank)
    _check_dir(path)
    n = len(counts)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            _header(
                "local",
                {"rank": rank, "comm_size": n, "flags": format_flags(flags)},
            )
        )
        fh.write("# columns: src dst count bytes\n")
        for dst in range(n):
            fh.write(f"{rank} {dst} {int(counts[dst])} {int(sizes[dst])}\n")
    return path


def write_root_profiles(
    base: str,
    world_rank: int,
    counts_matrix: np.ndarray,
    sizes_matrix: np.ndarray,
    flags: int,
):
    """The root's two matrix files (counts and sizes)."""
    cpath, spath = root_profile_paths(base, world_rank)
    _check_dir(cpath)
    n = counts_matrix.shape[0]
    meta = {"comm_size": n, "flags": format_flags(flags)}
    for path, kind, mat in (
        (cpath, "root-counts", counts_matrix),
        (spath, "root-sizes", sizes_matrix),
    ):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_header(kind, meta))
            for row in np.asarray(mat).reshape(n, n):
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
    return cpath, spath


def read_profile(path: str) -> Dict[str, Any]:
    """Load a flush file.

    Returns ``{"kind": ..., "meta": {...}, "data": ndarray}`` where
    ``data`` is an ``(n, 4)`` src/dst/count/bytes table for local
    profiles and an ``(n, n)`` matrix for root profiles.  A file that is
    not one raises ``ValueError`` naming ``path`` — not ASCII, a row
    that is not unsigned 64-bit integers, rows of unequal width, a
    ``rank`` / ``comm_size`` that is not an integer, no ``kind`` — and
    one declaring another (or an unreadable) ``schema``
    :class:`TraceSchemaError`.
    """
    def bad(what: str) -> ValueError:
        return ValueError(f"{path}: malformed MPI_Monitoring profile, {what}")

    meta: Dict[str, Any] = {}
    kind = None
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        try:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for token in line[1:].split():
                        if "=" in token:
                            k, v = token.split("=", 1)
                            meta[k] = v
                    kind = meta.get("kind", kind)
                    continue
                try:
                    row = [int(tok) for tok in line.split()]
                except ValueError as exc:
                    raise bad(f"a row that is not integers ({exc})") \
                        from None
                if not all(0 <= v < 1 << 64 for v in row):
                    raise bad("a value outside the unsigned 64-bit range")
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise bad(f"not ASCII ({exc.reason} at byte {exc.start})") \
                from None
    if kind is None:
        raise ValueError(f"{path} is not an MPI_Monitoring profile")
    if "schema" in meta and _schema_of(meta["schema"]) != PROFILE_SCHEMA:
        raise TraceSchemaError(
            f"{path}: profile schema={meta['schema']}, this reader "
            f"understands schema={PROFILE_SCHEMA}")
    if len({len(row) for row in rows}) > 1:
        raise bad("rows of unequal width")
    data = np.array(rows, dtype=np.uint64)
    for key in ("rank", "comm_size"):
        if key in meta:
            try:
                meta[key] = int(meta[key])
            except ValueError:
                raise bad(f"{key}={meta[key]} is not an integer") from None
    return {"kind": kind, "meta": meta, "data": data}


def _schema_of(token: str):
    """A header's ``schema=`` value as an int (None: not one)."""
    try:
        return int(token)
    except ValueError:
        return None
