"""Ambient trace recording — the engine→replay coupling point.

:class:`repro.simmpi.engine.Engine` calls :func:`attach` once per
construction and, when recording is active, drives the returned
:class:`~repro.replay.record.ReplayRecorder` from its PML-layer hook
sites.  This module holds only the *ambient switch*: a process-global
"recording on/off" flag plus the sink finished traces go to.  It is
imported by the engine at module load, so it must stay import-light —
the actual recorder (and numpy-heavy schema code) is imported lazily,
only when recording is actually enabled.

Two front-ends:

``capture()``
    Context manager for tests and library code.  Every engine run that
    *finishes* inside the block appends its :class:`ReplayTrace` to the
    yielded list.

``enable_to(path)`` / ``disable()``
    Imperative pair behind ``python -m repro.experiments --trace-out``.
    The first finished run is dumped to ``path``, subsequent ones to
    ``path.1``, ``path.2``, ...
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional

__all__ = ["capture", "enable_to", "disable", "is_recording", "attach"]

# Process-global recording state.  Deliberately a plain dict so the
# engine's fast path only pays one dict lookup when recording is off.
_state: Dict[str, Any] = {
    "active": False,
    "meta": None,      # dict merged into every trace header's "meta"
    "sink": None,      # list collecting ReplayTrace objects (capture mode)
    "path": None,      # base path for dump mode (enable_to)
    "count": 0,        # traces dumped so far in dump mode
}


def is_recording() -> bool:
    return bool(_state["active"])


@contextlib.contextmanager
def capture(meta: Optional[dict] = None):
    """Record every engine run finishing inside the block.

    Yields a list that accumulates :class:`ReplayTrace` objects, one per
    completed :meth:`Engine.run`.  Nested/concurrent use is not
    supported (the switch is process-global); re-entry raises.
    """
    if _state["active"]:
        raise RuntimeError("replay recording is already active")
    traces: List[Any] = []
    _state.update(active=True, meta=dict(meta or {}), sink=traces,
                  path=None, count=0)
    try:
        yield traces
    finally:
        disable()


def enable_to(path: str, meta: Optional[dict] = None) -> None:
    """Dump every finished run to ``path`` (then ``path.1``, ``path.2``...)."""
    if _state["active"]:
        raise RuntimeError("replay recording is already active")
    _state.update(active=True, meta=dict(meta or {}), sink=None,
                  path=str(path), count=0)


def disable() -> None:
    _state.update(active=False, meta=None, sink=None, path=None, count=0)


def attach(engine) -> Optional[object]:
    """Called by Engine.__init__; returns a recorder or None.

    Engines built while recording is off never record (the flag is
    sampled once, at construction), which keeps nested helper engines
    out of a capture only if they are constructed outside the block —
    engines built inside record as expected.
    """
    if not _state["active"]:
        return None
    from repro.replay.record import ReplayRecorder

    return ReplayRecorder(engine, dict(_state["meta"] or {}))


def _finished(trace) -> None:
    """Recorder callback: a run completed and its trace is final."""
    if not _state["active"]:
        return
    sink = _state["sink"]
    if sink is not None:
        sink.append(trace)
        return
    path = _state["path"]
    if path is None:  # pragma: no cover - defensive
        return
    n = _state["count"]
    target = path if n == 0 else f"{path}.{n}"
    trace.dump(target)
    _state["count"] = n + 1
