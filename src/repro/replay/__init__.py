"""repro.replay — trace record/replay and what-if placement search.

Record a deterministic event stream from a live simulated run, replay
it through the network cost model in milliseconds under an arbitrary
rank→core placement / topology / collective-algorithm substitution,
and search placements offline (the paper's "monitor once, then decide"
loop at interactive speed).

Entry points::

    from repro.replay import autorecord
    with autorecord.capture() as traces:
        engine.run(program)          # traces[0] is a ReplayTrace

    from repro.replay import replay, what_if_search
    result = replay(traces[0])       # bit-exact identity re-cost
    best = what_if_search(traces[0])

CLI: ``python -m repro.replay replay|search|diff`` reads a trace file;
``python -m repro.experiments NAME --trace-out PATH`` and ``python -m
repro.obs export --trace-out PATH`` write one.

This module is imported by the simulator engine at load time, so it
re-exports lazily — nothing heavy is pulled in until used.
"""

from __future__ import annotations

__all__ = [
    "ReplayTrace",
    "ReplayResult",
    "CompiledTrace",
    "compile_trace",
    "replay",
    "what_if_search",
    "score_candidate",
    "autorecord",
]

from repro.replay import autorecord  # import-light by design


def __getattr__(name):
    if name == "ReplayTrace":
        from repro.replay.schema import ReplayTrace

        return ReplayTrace
    if name in ("ReplayResult", "CompiledTrace", "compile_trace", "replay"):
        from repro.replay import engine as _engine

        return getattr(_engine, name)
    if name in ("what_if_search", "score_candidate"):
        from repro.replay import search as _search

        return getattr(_search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
