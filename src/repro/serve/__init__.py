"""repro.serve — a concurrent placement-advisory service.

The paper's loop is *monitoring data in, rank-reordering decision
out*.  :mod:`repro.replay` made the decision step cheap — a recorded
trace compiles once into placement-invariant books, and every what-if
candidate re-costs in milliseconds.  This package serves that
capability at traffic: a long-running asyncio daemon registers recorded
traces by content fingerprint and answers placement what-if queries
concurrently — cold candidates are scored on a supervised
worker-process pool, hot (fingerprint, strategy, seed, substitution,
focus) results come straight from the in-memory result cache.  A
compiled book exists only in the process that replays it: each worker
keeps its own byte-bounded LRU, ``ingest`` is one pool task that leaves
a worker hot, and the daemon holds the path, the file's identity and
the few header facts its replies quote.

Pieces:

* :mod:`repro.serve.protocol` — length-prefixed JSON over TCP/Unix
  sockets, schema-versioned request/response envelopes with a
  validator;
* :mod:`repro.serve.store` — the workers' compiled-book LRU (evicts by
  the books' real :meth:`~repro.replay.engine.CompiledTrace.nbytes`)
  and the changed-file check every load makes;
* :mod:`repro.serve.workers` — what a worker does (load, compile,
  score) on the supervised pool (:mod:`repro.core.pool`: per-batch
  timeouts, bounded retries with backoff, crashed-worker replacement),
  and the daemon's view of it: loads counted, stores summed;
* :mod:`repro.serve.server` — the async core: accept loop, trace
  registry, cell single-flight and caches, candidate batching across
  queries, bounded queue with explicit backpressure, graceful drain on
  SIGTERM;
* :mod:`repro.serve.client` — the thin blocking client the CLI and
  tests use.

CLI: ``python -m repro.serve start|ingest|query|stats|stop`` (also
installed as the ``repro-serve`` console script).  The daemon under
load is the ``serve`` workload of ``benchmarks/ledger/run.py``.
"""

from __future__ import annotations

__all__ = [
    "PROTOCOL_SCHEMA",
    "ServeClient",
    "ServeConfig",
    "PlacementServer",
]


def __getattr__(name):
    if name == "PROTOCOL_SCHEMA":
        from repro.serve.protocol import PROTOCOL_SCHEMA

        return PROTOCOL_SCHEMA
    if name == "ServeClient":
        from repro.serve.client import ServeClient

        return ServeClient
    if name in ("ServeConfig", "PlacementServer"):
        from repro.serve import server as _server

        return getattr(_server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
