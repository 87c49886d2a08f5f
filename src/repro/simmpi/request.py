"""Nonblocking communication requests (isend/irecv + wait/test).

Sends are *buffered-eager*: the sender pays its injection time at post
and the request is immediately complete — the simulator provides
unbounded buffering, so blocking sends never deadlock on a missing
receive (matching the behaviour MPI applications rely on for small and
medium messages).

Receives complete when a matching message has *arrived* in virtual
time: ``wait()`` advances the receiver's clock to
``max(post clock, message arrival) + recv_overhead``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

from repro.simmpi.engine import Aborted as _Aborted
from repro.simmpi.engine import _PS_PARKED, _drive, _tls
from repro.simmpi.engine import _State as _St
from repro.simmpi.errorsim import SimError
from repro.simmpi.match import Message

__all__ = ["Request", "SendRequest", "RecvRequest", "waitall", "co_waitall"]


class Request:
    """Base request; subclasses define completion semantics.

    Completion is written once, as the :meth:`co_wait` generator
    (``msg = yield from req.co_wait()``); the blocking :meth:`wait`
    drives it.
    """

    def wait(self):
        return _drive(self.co_wait())

    def co_wait(self):  # pragma: no cover - interface
        raise NotImplementedError

    def test(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class SendRequest(Request):
    """An already-complete eager send."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def co_wait(self):
        return None
        yield  # pragma: no cover - unreachable; makes this a generator

    def test(self) -> bool:
        return True


class RecvRequest(Request):
    """A posted receive; completes when a message is bound to it."""

    __slots__ = ("comm", "proc", "source", "tag", "context", "_msg")

    def __init__(self, comm, proc, source: int, tag: int, context: Hashable):
        self.comm = comm
        self.proc = proc
        self.source = source
        self.tag = tag
        self.context = context
        self._msg: Optional[Message] = None

    # -- called by the match queue -------------------------------------

    def bind(self, msg: Message) -> None:
        """Attach the matched message.  Waking the poster (if it is
        parked) is the *caller's* job: the engine's delivery sites
        run the wake inline right after :meth:`MatchQueue.deliver`
        returns the bound request, and binds at post time never need
        one — the poster is the currently running process."""
        if self._msg is not None:
            raise SimError("receive request bound twice")
        self._msg = msg

    # -- caller side -------------------------------------------------------

    def __repr__(self) -> str:
        return (f"recv(source={self.source}, tag={self.tag}, "
                f"context={self.context!r})")

    def _settle_sender(self) -> None:
        # Program order: the poster's own deferred send (and everything
        # due before it) must have happened before completion of later
        # operations can be observed.
        proc = self.proc
        if proc.pending is not None:
            _drive(proc.engine.co_settle(proc))

    @property
    def matched(self) -> bool:
        self._settle_sender()
        return self._msg is not None

    def co_wait(self):
        """Park until matched, then synchronize the clock and return
        the message.  This is the simulator's one park-on-a-message
        site (and its per-wait hot path)."""
        proc = self.proc
        engine = proc.engine
        if proc is not getattr(_tls, "proc", None):
            raise SimError("a request must be waited by the rank that posted it")
        if self._msg is None or proc.pending is not None:
            # wait_obj is set before settling so the engine knows what
            # this rank is waiting on while its deferred send is being
            # materialized (and can turn spurious wakes into phantoms).
            proc.wait_obj = self
            try:
                # Engine.co_settle and _co_settle_park's loop, inlined: a
                # sub-generator per park is measurable.  Keep in sync.
                if proc.pending is not None:
                    nxt = engine._settle_scan(proc)
                    while nxt is not None:
                        proc.pending[_PS_PARKED] = True
                        proc.state = _St.READY
                        engine._switches += 1
                        nxt.state = _St.RUNNING
                        yield nxt
                        if engine._aborting:
                            raise _Aborted()
                        proc.state = _St.RUNNING
                        proc.blocked_on = ""
                        nxt = (None if proc.pending is None
                               else engine._settle_scan(proc))
                while self._msg is None:
                    # The request itself is the block reason: its repr
                    # is only rendered if a deadlock dump needs it, so
                    # the hot path never formats a string.
                    proc.state = _St.BLOCKED
                    proc.blocked_on = self
                    o = engine._obs
                    if o is not None:
                        o.note_block(len(engine._ready_heap))
                    nxt = engine._pop_ready()
                    if nxt is not proc:
                        if nxt is not None:
                            engine._switches += 1
                            nxt.state = _St.RUNNING
                            yield nxt
                        else:
                            yield None
                    else:
                        engine._self_handoffs += 1
                    if engine._aborting:
                        raise _Aborted()
                    proc.state = _St.RUNNING
                    proc.blocked_on = ""
            finally:
                proc.wait_obj = None
        msg = self._msg
        t_pre = proc.clock
        proc.clock = max(t_pre, msg.arrival) + engine.network.recv_overhead
        rr = engine._rr
        if rr is not None:
            rr.on_recv(proc, t_pre, msg)
        return msg

    def test(self) -> bool:
        """Non-advancing completion check (no clock movement)."""
        self._settle_sender()
        return self._msg is not None


def waitall(requests: Iterable[Request]) -> List[Optional[Message]]:
    """Wait on every request, in order; returns received messages
    (``None`` for send requests)."""
    return _drive(co_waitall(requests))


def co_waitall(requests: Iterable[Request]):
    """:func:`waitall`, for generator programs."""
    out: List[Optional[Message]] = []
    for req in requests:
        out.append((yield from req.co_wait()))
    return out
