"""Begin/end span tracing over virtual time, plus a wall-clock lane.

A *lane* identifies one timeline: integer lanes are world ranks on the
simulator's virtual clock (seconds of simulated time), and the special
:data:`WALL_LANE` carries host-side self-profile spans measured with
``time.perf_counter`` relative to the recorder's creation.  Keeping the
two in separate lanes (separate Perfetto processes — see
:mod:`repro.obs.export`) is what makes simulator overhead separable
from simulated time.

Spans nest per lane via a stack: ``end`` closes the most recent open
``begin`` on that lane, and the depth at close time is recorded so
exporters and tests can reason about nesting without replaying the
stack.  Only one simulated rank runs at a time (the engine's baton), so
the recorder needs no locking.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["WALL_LANE", "FinishedSpan", "SpanRecorder", "virtual_span"]

#: Lane key for host-side (wall-clock) self-profile spans.
WALL_LANE = "wall"

#: ``(lane, name, t0, t1, depth, args)`` — a closed span.  ``depth`` is
#: the number of spans still open on the lane when this one closed.
FinishedSpan = Tuple[Any, str, float, float, int, Optional[Dict[str, Any]]]


class SpanRecorder:
    """Accumulates closed spans; querying happens post-run."""

    def __init__(self):
        self.finished: List[FinishedSpan] = []
        self._open: Dict[Any, List[Tuple[str, float, Optional[dict]]]] = {}
        self._wall0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self.finished)

    # -- virtual-time lanes ------------------------------------------------

    def begin(self, lane: Any, name: str, t: float,
              args: Optional[dict] = None) -> None:
        stack = self._open.get(lane)
        if stack is None:
            stack = self._open[lane] = []
        stack.append((name, t, args))

    def end(self, lane: Any, t: float) -> str:
        """Close the innermost open span on ``lane``; returns its name.

        A clock that went backwards (it cannot in the simulator, but a
        buggy caller could) is clamped to a zero-duration span rather
        than producing negative durations Perfetto rejects."""
        stack = self._open.get(lane)
        if not stack:
            raise ValueError(f"span end without begin on lane {lane!r}")
        name, t0, args = stack.pop()
        if t < t0:
            t = t0
        self.finished.append((lane, name, t0, t, len(stack), args))
        return name

    def depth(self, lane: Any) -> int:
        return len(self._open.get(lane, ()))

    def lanes(self) -> List[Any]:
        """Every lane that has (or had) spans, finished or open."""
        seen = {s[0] for s in self.finished}
        seen.update(k for k, v in self._open.items() if v)
        return sorted(seen, key=lambda x: (not isinstance(x, int), str(x)))

    # -- the wall-clock self-profile lane ----------------------------------

    def wall_now(self) -> float:
        return time.perf_counter() - self._wall0

    def wall_begin(self, name: str, args: Optional[dict] = None) -> None:
        self.begin(WALL_LANE, name, self.wall_now(), args)

    def wall_end(self) -> str:
        return self.end(WALL_LANE, self.wall_now())

    @contextmanager
    def wall_span(self, name: str, args: Optional[dict] = None):
        self.wall_begin(name, args)
        try:
            yield
        finally:
            self.wall_end()


@contextmanager
def virtual_span(rec, proc, name: str, args: Optional[dict] = None):
    """Span over ``proc``'s virtual clock on ``rec`` (a recorder with
    :class:`SpanRecorder`'s ``begin`` / ``end``); no-op when it is None.

    Reads ``proc.clock`` raw (no settle): a deferred send still in
    flight is charged to whichever span is open when it materializes,
    which keeps tracing strictly observation-only — the engine's call
    sequence is identical with and without the recorder.
    """
    if rec is None:
        yield
        return
    rec.begin(proc.rank, name, proc.clock, args)
    try:
        yield
    finally:
        rec.end(proc.rank, proc.clock)
