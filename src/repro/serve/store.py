"""The compiled-book store: a byte-bounded LRU keyed by fingerprint.

A *book* is one ingested trace held hot: the parsed
:class:`~repro.replay.schema.ReplayTrace` plus its compiled form
(:class:`~repro.replay.engine.CompiledTrace`).  Books live only where
they are replayed: each scoring worker owns one private
:class:`BookStore`; the daemon holds none — per fingerprint it keeps
the trace's path, its :func:`file_identity` and the few
:meth:`BookEntry.facts` its replies quote, which the worker that loads
a book reports back.

Keys are **content fingerprints**
(:func:`repro.core.fingerprint.file_digest` of the trace file), so the
same trace ingested twice — or by two different paths — occupies one
slot, and a re-recorded file at the same path is a *different* book:
ingest notes the hashed file's :func:`file_identity`, and
:meth:`BookEntry.load` refuses a file that no longer has it
(:class:`TraceChangedError`) instead of filing the new bytes under the
old fingerprint.  A book that is already resident is not checked
again: it *is* the content that hashed to its fingerprint, whatever
has happened to the file since.

Eviction is by real resident size, not entry count: each entry's
``nbytes`` sums the compiled book's numpy buffers + op stream
(:meth:`CompiledTrace.nbytes`) and the trace's event columns
(:meth:`TraceColumns.footprint` — a served trace never materialises
its tuple view), and the store drops least-recently-used entries until
the total fits ``max_bytes``.  The most recent entry is never evicted —
a budget smaller than one book still serves that book (it just can't
keep a second one warm).  An evicted book is reloaded from its path on
the next task that names it.

The store is synchronous and unlocked: one worker process, one store.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["BookEntry", "BookStore", "TraceChangedError", "file_identity",
           "require_unchanged"]


class TraceChangedError(ValueError):
    """The trace file behind a fingerprint is no longer the file that
    was fingerprinted."""

    code = "trace-changed"  # the protocol error it is answered with


def file_identity(path: str) -> Tuple[int, int, int]:
    """``(size, mtime_ns, inode)`` — what a rewrite or a replacement of
    the file changes, at the price of one ``stat`` (re-hashing megabytes
    on every book load would be paid by every first answer)."""
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns, st.st_ino)


def require_unchanged(fingerprint: str, path: str, identity) -> None:
    """Raise :class:`TraceChangedError` unless ``path`` still has the
    identity it had when it hashed to ``fingerprint`` (a file that is
    gone has none)."""
    try:
        unchanged = file_identity(path) == identity
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        raise TraceChangedError(
            f"trace file {path} changed on disk since it was ingested as "
            f"{fingerprint[:12]}…; ingest it again")


@dataclass
class BookEntry:
    fingerprint: str
    path: str
    trace: object          # ReplayTrace
    compiled: object       # CompiledTrace
    nbytes: int

    @classmethod
    def load(cls, fingerprint: str, path: str,
             identity: Tuple[int, int, int]) -> "BookEntry":
        """Load and compile ``path``, which must still be the file that
        hashed to ``fingerprint`` (``identity`` was taken then).  Checked
        after the read, however that went: a rewrite racing it is caught
        too, and whatever a changed file holds now — another trace,
        half of one, nothing — it is refused as changed.  An unchanged
        file that is not a trace raises the loader's
        :class:`~repro.core.errors.TraceSchemaError`."""
        from repro.replay.schema import ReplayTrace

        try:
            trace = ReplayTrace.load(path)
        finally:
            require_unchanged(fingerprint, path, identity)
        return cls.build(fingerprint, path, trace)

    @classmethod
    def build(cls, fingerprint: str, path: str, trace) -> "BookEntry":
        from repro.replay.engine import compile_trace

        compiled = compile_trace(trace)
        return cls(
            fingerprint=fingerprint,
            path=path,
            trace=trace,
            compiled=compiled,
            nbytes=compiled.nbytes() + trace.columns().footprint(),
        )

    def facts(self) -> Dict[str, object]:
        """What the daemon's replies quote of a book it does not hold:
        the recording's :func:`~repro.replay.search.recorded_facts`
        (which the daemon ranks its candidates against) and the
        book's size."""
        from repro.replay.search import recorded_facts

        return {**recorded_facts(self.trace), "nbytes": self.nbytes}


class BookStore:
    """Size-bounded LRU of :class:`BookEntry` objects."""

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, BookEntry]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self) -> List[str]:
        """Coldest-first order (the eviction order)."""
        return list(self._entries)

    def get(self, fingerprint: str) -> Optional[BookEntry]:
        """Hit: the entry becomes most-recently-used.  Miss: None."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def put(self, entry: BookEntry) -> List[str]:
        """Insert (or refresh) an entry; returns evicted fingerprints."""
        old = self._entries.pop(entry.fingerprint, None)
        if old is not None:
            self.total_bytes -= old.nbytes
        self._entries[entry.fingerprint] = entry
        self.total_bytes += entry.nbytes
        evicted: List[str] = []
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            fp, dropped = self._entries.popitem(last=False)
            self.total_bytes -= dropped.nbytes
            self.evictions += 1
            evicted.append(fp)
        return evicted

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
