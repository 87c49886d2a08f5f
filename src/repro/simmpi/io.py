"""MPI-IO substrate: simulated parallel file access with monitoring.

The low-level monitoring component the paper builds on covers "all
types of communications supported by the MPI-3 standard (including
one-sided communications and I/O)" (§2).  This module provides the I/O
part for the simulator: a shared parallel file system with a global
bandwidth resource, ``File`` handles with independent and collective
read/write operations, and per-rank I/O byte counters exposed through
MPI_T pvars (``io_monitoring_bytes_written`` / ``_read``).

Collective variants (`write_at_all` / `read_at_all`) synchronize the
communicator (their tokens go through the monitored PML, category
``coll``) and then stream through the shared file-system resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.simmpi.datatypes import Buffer
from repro.simmpi.engine import _drive
from repro.simmpi.errorsim import CommError

__all__ = ["FileSystem", "File"]


@dataclass
class FileSystemParams:
    bandwidth: float = 5.0e9  # aggregate B/s of the parallel FS
    latency: float = 50.0e-6  # per-operation seconds


class FileSystem:
    """Cluster-wide shared storage: a single bandwidth resource.

    Attached lazily to an engine (``FileSystem.of(engine)``); registers
    its per-rank byte counters as MPI_T pvars on first attach.  It keeps
    no reference to the engine (which holds it): a transfer reaches the
    scheduler through the calling rank.
    """

    def __init__(self, engine, params: Optional[FileSystemParams] = None):
        self.params = params or FileSystemParams()
        self._busy_until = 0.0
        n = engine.n_ranks
        self.bytes_written = np.zeros(n, dtype=np.uint64)
        self.bytes_read = np.zeros(n, dtype=np.uint64)
        self.files: Dict[str, "File"] = {}
        self._register_pvars(engine.mpit)

    def _register_pvars(self, mpit) -> None:
        """Expose the byte counters; re-run against the fresh MPI_T
        registry when a pickled engine is thawed."""
        mpit.register_pvar(
            "io_monitoring_bytes_written",
            reader=lambda rank: self.bytes_written[rank : rank + 1],
            doc="bytes this process wrote through MPI-IO",
        )
        mpit.register_pvar(
            "io_monitoring_bytes_read",
            reader=lambda rank: self.bytes_read[rank : rank + 1],
            doc="bytes this process read through MPI-IO",
        )

    @classmethod
    def of(cls, engine) -> "FileSystem":
        fs = getattr(engine, "_filesystem", None)
        if fs is None:
            fs = cls(engine)
            engine._filesystem = fs
        return fs

    # -- timing ------------------------------------------------------------

    def co_transfer(self, proc, nbytes: int):
        """Stream ``nbytes`` through the shared FS, advancing the
        calling rank's clock (ops serialize on the storage resource)."""
        yield from proc.engine.co_give_way(proc)
        start = max(proc.clock + self.params.latency, self._busy_until)
        dur = nbytes / self.params.bandwidth
        self._busy_until = start + dur
        proc.clock = start + dur


class File:
    """An open simulated file shared by a communicator.

    The file keeps no reference to its file system (which lists its
    files): an operation reaches it through the calling rank's engine.
    """

    def __init__(self, comm, name: str):
        self.comm = comm
        self.name = name
        self._data: Dict[int, bytes] = {}  # offset -> chunk (exact writes)
        self._size = 0
        self._closed = False

    # -- lifecycle (collective, like MPI_File_open/close) ----------------------

    @classmethod
    def open(cls, comm, name: str) -> "File":
        return _drive(cls.co_open(comm, name))

    @classmethod
    def co_open(cls, comm, name: str):
        f = cls._lookup(comm, name)
        yield from comm.co_barrier()
        return f

    @classmethod
    def _lookup(cls, comm, name: str) -> "File":
        fs = FileSystem.of(comm.engine)
        seq = comm._split_seq()
        key = ("file", comm.id, seq, name)
        f = comm.engine.comm_registry.get(key)
        if f is None:
            f = fs.files.get(name) or cls(comm, name)
            fs.files[name] = f
            comm.engine.comm_registry[key] = f
        return f

    def close(self) -> None:
        _drive(self.co_close())

    def co_close(self):
        yield from self.comm.co_barrier()
        self._closed = True

    # -- independent operations ---------------------------------------------

    def write_at(self, offset: int, data=None, nbytes: Optional[int] = None) -> int:
        return _drive(self.co_write_at(offset, data, nbytes))

    def co_write_at(self, offset: int, data=None, nbytes: Optional[int] = None):
        """Write at an explicit offset; returns the bytes written."""
        self._check()
        buf = Buffer.wrap(data, nbytes)
        proc = self.comm._current()
        fs = FileSystem.of(proc.engine)
        yield from fs.co_transfer(proc, buf.nbytes)
        fs.bytes_written[proc.rank] += np.uint64(buf.nbytes)
        if buf.payload is not None:
            raw = self._encode(buf.payload)
            self._data[offset] = raw
        self._size = max(self._size, offset + buf.nbytes)
        return buf.nbytes

    def read_at(self, offset: int, nbytes: int):
        return _drive(self.co_read_at(offset, nbytes))

    def co_read_at(self, offset: int, nbytes: int):
        """Read ``nbytes`` at an offset; returns stored bytes or None
        for abstract regions."""
        self._check()
        proc = self.comm._current()
        fs = FileSystem.of(proc.engine)
        yield from fs.co_transfer(proc, nbytes)
        fs.bytes_read[proc.rank] += np.uint64(nbytes)
        return self._data.get(offset)

    # -- collective operations ------------------------------------------------

    def write_at_all(self, offset: int, data=None,
                     nbytes: Optional[int] = None) -> int:
        return _drive(self.co_write_at_all(offset, data, nbytes))

    def co_write_at_all(self, offset: int, data=None,
                        nbytes: Optional[int] = None):
        """Collective write: every rank writes its block at
        ``offset + rank * block``; synchronizes like MPI_File_write_at_all."""
        self._check()
        yield from self.comm.co_barrier()
        buf = Buffer.wrap(data, nbytes)
        my_offset = offset + self.comm.rank * buf.nbytes
        return (yield from self.co_write_at(my_offset, data=buf))

    def read_at_all(self, offset: int, nbytes: int):
        return _drive(self.co_read_at_all(offset, nbytes))

    def co_read_at_all(self, offset: int, nbytes: int):
        self._check()
        yield from self.comm.co_barrier()
        my_offset = offset + self.comm.rank * nbytes
        return (yield from self.co_read_at(my_offset, nbytes))

    # -- metadata ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def _check(self) -> None:
        if self._closed:
            raise CommError(f"file {self.name!r} is closed")

    @staticmethod
    def _encode(payload) -> bytes:
        if isinstance(payload, np.ndarray):
            return payload.tobytes()
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload)
        return repr(payload).encode()
