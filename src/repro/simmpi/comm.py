"""Communicators: point-to-point messaging, split/dup, and the PML hook.

Every point-to-point message — user ``p2p`` traffic and the ``coll``
decomposition of every collective alike — leaves through
:meth:`Communicator._co_isend`, which builds one deferred-send entry and
hands it to ``Engine._materialize``: on the spot when nothing is due
before the sender, from the pending heap otherwise.  ``_materialize`` is
the single choke point where the monitoring component
(:mod:`repro.simmpi.pml_monitoring`) records the message and where the
per-message monitoring overhead is charged, reproducing the vantage
point of Open MPI's ``pml_monitoring``.  One-sided ``osc`` traffic is
recorded the same way in ``Window._put_body`` / ``_get_body``
(:mod:`repro.simmpi.osc`).

Collectives live in :mod:`repro.simmpi.collectives` and are attached
here as thin delegating methods; all of them are implemented strictly
on top of :meth:`_co_isend`/:meth:`_irecv`.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.datatypes import Buffer
from repro.simmpi.engine import (_INF, _PS_QSEQ, _State, _bad_duration,
                                  _drive, _tls, current_process)
from repro.simmpi.errorsim import CommError, SimError
from repro.simmpi.match import ANY_SOURCE, ANY_TAG, MatchQueue, Message
from repro.simmpi.op import Op
from repro.simmpi.request import RecvRequest, Request, SendRequest

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG"]

_PT2PT_CONTEXT = "pt2pt"

# Scheduler states compared identity-wise on the inlined send path.
_READY = _State.READY
_BLOCKED = _State.BLOCKED


class Communicator:
    """A group of world ranks with its own matching context.

    The same object is shared by all member processes; rank-dependent
    views (``comm.rank``) resolve the calling process via the engine's
    thread-local.  This mirrors how an MPI communicator is one logical
    object referenced by many processes.
    """

    def __init__(self, engine, group: Sequence[int]):
        if len(group) == 0:
            raise CommError("empty communicator group")
        if len(set(group)) != len(group):
            raise CommError("duplicate world ranks in group")
        self.engine = engine
        self.group: List[int] = [int(r) for r in group]
        self.id = engine.alloc_comm_id()
        self._local_of_world = {w: i for i, w in enumerate(self.group)}
        # Per-destination match queues, indexed by local rank (the
        # engine-wide registry keyed by (comm id, local) stays the
        # source of truth for inspectors; this list is the hot-path
        # view, avoiding a tuple allocation + dict probe per message).
        self._queues: List[Optional[MatchQueue]] = [None] * len(self.group)

    # -- identity -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def rank(self) -> int:
        """Rank of the *calling process* in this communicator."""
        proc = self._current()
        try:
            return self._local_of_world[proc.rank]
        except KeyError:
            raise self._not_member(proc) from None

    @staticmethod
    def _not_member(proc) -> CommError:
        return CommError(
            f"world rank {proc.rank} is not a member of this communicator")

    def world_rank(self, local_rank: int) -> int:
        self._check_rank(local_rank)
        return self.group[local_rank]

    # -- time -----------------------------------------------------------------
    #
    # Every service that can park is written once, as a ``co_``
    # generator (``t = yield from comm.co_time()``), and the blocking
    # name is ``_drive`` over it: one implementation, two spellings
    # (see the engine module docstring).  The only place these timed
    # services park is settling the caller's deferred send.

    @property
    def time(self) -> float:
        """The calling rank's virtual clock, in seconds."""
        return _drive(self.co_time())

    def compute(self, seconds: float) -> None:
        """Model local computation: advance the caller's clock."""
        _drive(self.co_compute(seconds))

    def sleep(self, seconds: float) -> None:
        """Model idle time (identical to :meth:`compute` in the model)."""
        _drive(self.co_compute(seconds))

    def co_sync(self):
        """Settle the caller's deferred send.

        Generator programs use this before calling plain library code
        that settles internally (pvar reads, session snapshots,
        ``pml.set_mode``): with the send already settled those inner
        settles find nothing, so the call never needs to park.
        """
        proc = getattr(_tls, "proc", None) or self._current()
        if proc.pending is not None:
            yield from self.engine.co_settle(proc)
        return proc

    def co_time(self):
        """:attr:`time`, for generator programs."""
        proc = getattr(_tls, "proc", None) or self._current()
        if proc.pending is not None:
            yield from self.engine.co_settle(proc)
        return proc.clock

    def co_compute(self, seconds: float):
        """:meth:`compute`, for generator programs."""
        if not 0.0 <= seconds < _INF:
            raise _bad_duration(seconds)
        proc = getattr(_tls, "proc", None) or self._current()
        if proc.pending is not None:
            yield from self.engine.co_settle(proc)
        proc.clock += seconds

    def co_sleep(self, seconds: float):
        """:meth:`sleep`, for generator programs."""
        yield from self.co_compute(seconds)

    # -- user point-to-point ----------------------------------------------

    def send(self, value: Any = None, dest: int = 0, tag: int = 0,
             nbytes: Optional[int] = None) -> None:
        """Blocking (buffered-eager) send of ``value`` to ``dest``."""
        _drive(self.co_send(value, dest=dest, tag=tag, nbytes=nbytes))

    def isend(self, value: Any = None, dest: int = 0, tag: int = 0,
              nbytes: Optional[int] = None) -> Request:
        return _drive(self.co_isend(value, dest=dest, tag=tag, nbytes=nbytes))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Blocking receive; returns the matched :class:`Message`."""
        return _drive(self.co_recv(source=source, tag=tag))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        if source != ANY_SOURCE and not 0 <= source < len(self.group):
            self._check_rank(source)  # raises
        return self._irecv(source, tag, _PT2PT_CONTEXT)

    def sendrecv(self, value: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 nbytes: Optional[int] = None) -> Message:
        """Combined send+receive (deadlock-free exchange)."""
        return _drive(self.co_sendrecv(value, dest, source=source,
                                       sendtag=sendtag, recvtag=recvtag,
                                       nbytes=nbytes))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Non-blocking probe of the unexpected queue (no clock cost)."""
        return _drive(self.co_probe(source=source, tag=tag))

    # -- point-to-point, written once ----------------------------------------
    #
    # Like the collectives, plain methods that validate, post and inject
    # when *called* (_irecv / _co_isend refuse a non-member), then hand
    # back what parks.

    def co_send(self, value: Any = None, dest: int = 0, tag: int = 0,
                nbytes: Optional[int] = None):
        """:meth:`send`, for generator programs (``()`` unless it parks)."""
        return self._co_isend(self._send_buffer(value, dest, tag, nbytes),
                              dest, tag, _PT2PT_CONTEXT, "p2p")

    def co_isend(self, value: Any = None, dest: int = 0, tag: int = 0,
                 nbytes: Optional[int] = None):
        """Eager send; the returned request is already complete."""
        buf = self._send_buffer(value, dest, tag, nbytes)
        yield from self._co_isend(buf, dest, tag, _PT2PT_CONTEXT, "p2p")
        return SendRequest(buf.nbytes)

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """:meth:`recv`, for generator programs: the request's ``co_wait``."""
        return self.irecv(source, tag).co_wait()

    def co_sendrecv(self, value: Any, dest: int, source: int = ANY_SOURCE,
                    sendtag: int = 0, recvtag: int = ANY_TAG,
                    nbytes: Optional[int] = None):
        """:meth:`sendrecv`, for generator programs: the receive's
        ``co_wait``, unless the send parks to settle the previous one."""
        buf = self._send_buffer(value, dest, sendtag, nbytes)
        if source != ANY_SOURCE and not 0 <= source < len(self.group):
            self._check_rank(source)  # raises
        req = self._irecv(source, recvtag, _PT2PT_CONTEXT)
        park = self._co_isend(buf, dest, sendtag, _PT2PT_CONTEXT, "p2p")
        return self._co_park_then_wait(park, req) if park else req.co_wait()

    @staticmethod
    def _co_park_then_wait(park, req):
        yield from park
        return (yield from req.co_wait())

    def _send_buffer(self, value: Any, dest: int, tag: int,
                     nbytes: Optional[int]) -> Buffer:
        """Check a user send's ``dest`` and ``tag``; return its buffer."""
        if not 0 <= dest < len(self.group):
            self._check_rank(dest)  # raises
        if tag < 0:
            raise CommError(f"user tags must be >= 0, got {tag}")
        if value is None and nbytes is not None and nbytes >= 0:
            # Buffer.abstract, inlined: every send of a modeled workload.
            buf = Buffer.__new__(Buffer)
            buf.payload, buf.nbytes = None, int(nbytes)
            return buf
        return Buffer.wrap(value, nbytes)

    def co_probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """:meth:`probe`, for generator programs."""
        proc = getattr(_tls, "proc", None) or self._current()
        try:
            me = self._local_of_world[proc.rank]
        except KeyError:
            raise self._not_member(proc) from None
        if proc.pending is not None:
            yield from self.engine.co_settle(proc)
        return self._queue(me).probe(source, tag, _PT2PT_CONTEXT)

    # -- internal point-to-point (collectives, OSC) -------------------------

    def _co_isend(self, buf: Buffer, dest: int, tag: int, context: Hashable,
                  category: str):
        """Internal send (collectives, OSC), for ``yield from``.

        Settles the caller's previous deferred send first — the one
        place a send can park.  When that needs no park (nearly always)
        the send is materialized or deferred on the spot and the result
        is ``()``: no generator is allocated.  Otherwise the result is
        the engine's park generator, which sends once settled.
        """
        # The payload is snapshotted here (the caller may reuse its
        # buffer after the eager return); recording, the overhead
        # charge, and the actual network transfer happen in
        # Engine._materialize — now when this rank is frontmost in
        # virtual time, when the send comes due otherwise.
        # ``dest`` is trusted (user entry points validate); the caller
        # is resolved via the raw thread-local — this runs once per
        # simulated message — and refuses a non-member before settling.
        try:
            proc = _tls.proc
        except AttributeError:
            raise SimError("not inside a simulated MPI process") from None
        try:
            src = self._local_of_world[proc.rank]
        except KeyError:
            raise self._not_member(proc) from None
        eng = self.engine
        if proc.pending is not None:
            # Engine.co_settle, unrolled: no generator unless it parks.
            nxt = eng._pop_ready(proc)
            if nxt is not None:
                return eng._co_settle_park(
                    proc, nxt, self._co_isend,
                    (buf, dest, tag, context, category))
        payload = buf.payload
        if isinstance(payload, np.ndarray):
            # Buffer.copy_payload, inlined: arrays are value-copied.
            buf = Buffer(payload.copy(), nbytes=buf.nbytes)
        # Anything else is shipped as-is (copy_payload), and Buffers are
        # immutable descriptors: ship the sender's own instead of
        # allocating a copy per message.
        mq = self._queues[dest]
        if mq is None:
            mq = self._queue(dest)
        # Message.__init__, unrolled (skips the generated dataclass
        # frame; arrival is filled at materialization).
        msg = Message.__new__(Message)
        msg.src = src
        msg.dst = dest
        msg.tag = tag
        msg.context = context
        msg.buf = buf
        msg.arrival = 0.0
        msg.category = category
        # The send is one engine _PS_* entry either way.
        clock = proc.clock
        ps = [clock, proc.rank, 0, proc, mq, msg, self.group[dest],
              buf.nbytes, False]
        # Defer it when any rank or queued send is due before us (the
        # branch nearly every message takes).  Our previous send is
        # settled by now.
        heap = eng._ready_heap
        pop = heapq.heappop
        entry = None
        # Engine.min_ready_clock's stale-entry scan, inlined.
        while heap:
            e = heap[0]
            p = e[3]
            if p.ready_seq == e[2]:
                if e[4] is None:
                    if p.state is _READY:
                        entry = e
                        break
                elif p.state is _BLOCKED:
                    entry = e
                    break
            pop(heap)
        ph = eng._pending_heap
        if (entry is not None and entry[0] < clock) or \
                (ph and ph[0][0] < clock):
            eng._qseq += 1
            ps[_PS_QSEQ] = eng._qseq
            proc.pending = ps
            heapq.heappush(ph, ps)
        else:
            eng._materialize(ps)
        return ()

    def _irecv(self, source: int, tag: int, context: Hashable) -> RecvRequest:
        # ``source`` is trusted (user entry points validate).
        try:
            proc = _tls.proc
        except AttributeError:
            raise SimError("not inside a simulated MPI process") from None
        try:
            my_local = self._local_of_world[proc.rank]
        except KeyError:
            raise self._not_member(proc) from None
        # RecvRequest.__init__, unrolled (skips one interpreter frame
        # per receive; keep the field set in sync with request.py).
        req = RecvRequest.__new__(RecvRequest)
        req.comm = self
        req.proc = proc
        req.source = source
        req.tag = tag
        req.context = context
        req._msg = None
        mq = self._queues[my_local]
        if mq is None:
            mq = self._queue(my_local)
        mq.post(req)
        return req

    def _queue(self, dst_local: int) -> MatchQueue:
        mq = self._queues[dst_local]
        if mq is None:
            mq = MatchQueue()
            self._queues[dst_local] = mq
            self.engine.match_queues[(self.id, dst_local)] = mq
        return mq

    # -- collective context management ------------------------------------

    def _next_collective_context(self, opname: str) -> Tuple[str, int, int]:
        """A fresh context shared by all ranks for one collective call.

        Relies on the MPI rule that all members call collectives in the
        same order; each rank keeps its own counter and they stay in
        lockstep.  Mismatched collective sequences surface as deadlocks.
        """
        proc = self._current()
        key = ("coll_seq", self.id)
        seq = proc.userdata.get(key, 0)
        proc.userdata[key] = seq + 1
        return ("coll", self.id, seq)

    # -- communicator management --------------------------------------------

    def split(self, color: int, key: int) -> Optional["Communicator"]:
        """Blocking :meth:`co_split`."""
        return _drive(self.co_split(color, key))

    def dup(self) -> "Communicator":
        """Blocking :meth:`co_dup`."""
        return _drive(self.co_dup())

    def _split_seq(self) -> int:
        proc = self._current()
        key = ("split_seq", self.id)
        seq = proc.userdata.get(key, 0)
        proc.userdata[key] = seq + 1
        return seq

    def co_split(self, color: int, key: int):
        """MPI_Comm_split: group by ``color``, order by ``(key, rank)``.

        Color ``< 0`` (MPI_UNDEFINED) yields ``None``.  The exchange of
        (color, key) pairs is itself a monitored collective (allgather),
        as in a real MPI implementation.
        """
        from repro.simmpi.collectives.allgather import co_allgather

        self.rank  # membership check: raises for a non-member caller
        pairs = yield from co_allgather(self, (int(color), int(key)))
        seq = self._split_seq()
        my_color = int(color)
        if my_color < 0:
            return None
        members = [
            (k, r) for r, (c, k) in enumerate(pairs) if c == my_color
        ]
        members.sort()
        group_world = [self.group[r] for _, r in members]
        reg_key = ("split", self.id, seq, my_color)
        comm = self.engine.comm_registry.get(reg_key)
        if comm is None:
            comm = Communicator(self.engine, group_world)
            self.engine.comm_registry[reg_key] = comm
        return comm

    def co_dup(self):
        """MPI_Comm_dup: same group, fresh context."""
        seq = self._split_seq()
        from repro.simmpi.collectives.barrier import co_barrier

        yield from co_barrier(self)  # a dup synchronizes, like the real thing
        reg_key = ("dup", self.id, seq)
        comm = self.engine.comm_registry.get(reg_key)
        if comm is None:
            comm = Communicator(self.engine, list(self.group))
            self.engine.comm_registry[reg_key] = comm
        return comm

    # -- collectives (implemented over _co_isend/_irecv) ---------------------

    def _co_spanned(self, opname, _alg, gen, *args, **kwargs):
        """One collective call, for ``yield from``.

        With neither a span recorder nor a replay recorder attached (the
        common case) this is the decomposition's own generator: no
        frame of its own.  Otherwise it is :meth:`_co_observed`, which
        wraps the decomposition in the begin/end hooks.
        """
        eng = self.engine
        if eng._obs_spans is None and eng._rr is None:
            return gen(*args, **kwargs)
        return self._co_observed(opname, _alg, gen, args, kwargs)

    def _co_observed(self, opname, _alg, gen, args, kwargs):
        """Run one collective, tracing it as a virtual-time span and/or
        a recorded ``B``/``E`` pair.

        Observation-only: the hooks read the caller's raw clock before
        and after — they never settle deferred sends or touch the
        scheduler, so the engine's call sequence is identical with
        observation off.
        """
        eng = self.engine
        rec = eng._obs_spans
        rr = eng._rr
        try:
            proc = _tls.proc
        except AttributeError:
            raise SimError("not inside a simulated MPI process") from None
        if rr is not None:
            rr.on_coll_begin(proc, self, opname, _alg, kwargs)
        if rec is not None:
            name = opname if _alg is None else f"{opname}[{_alg}]"
            rec.begin(proc.rank, name, proc.clock)
        try:
            return (yield from gen(*args, **kwargs))
        finally:
            if rec is not None:
                rec.end(proc.rank, proc.clock)
            if rr is not None:
                rr.on_coll_end(proc)

    # Blocking spellings: each drives its co_ form (below).

    def barrier(self, algorithm: Optional[str] = None) -> None:
        _drive(self.co_barrier(algorithm))

    def bcast(self, value: Any = None, root: int = 0, nbytes: Optional[int] = None,
              algorithm: Optional[str] = None,
              segments: Optional[int] = None) -> Any:
        return _drive(self.co_bcast(value, root, nbytes, algorithm, segments))

    def reduce(self, value: Any, op: Op, root: int = 0,
               nbytes: Optional[int] = None, algorithm: Optional[str] = None,
               segments: Optional[int] = None) -> Any:
        return _drive(self.co_reduce(value, op, root, nbytes, algorithm,
                                     segments))

    def allreduce(self, value: Any, op: Op, nbytes: Optional[int] = None,
                  algorithm: Optional[str] = None) -> Any:
        return _drive(self.co_allreduce(value, op, nbytes, algorithm))

    def gather(self, value: Any, root: int = 0, nbytes: Optional[int] = None,
               algorithm: Optional[str] = None) -> Optional[List[Any]]:
        return _drive(self.co_gather(value, root, nbytes, algorithm))

    def scatter(self, values: Optional[Sequence[Any]] = None, root: int = 0,
                nbytes: Optional[int] = None,
                algorithm: Optional[str] = None) -> Any:
        return _drive(self.co_scatter(values, root, nbytes, algorithm))

    def allgather(self, value: Any, nbytes: Optional[int] = None,
                  algorithm: Optional[str] = None) -> List[Any]:
        return _drive(self.co_allgather(value, nbytes, algorithm))

    def alltoall(self, values: Sequence[Any], nbytes: Optional[int] = None,
                 algorithm: Optional[str] = None) -> List[Any]:
        return _drive(self.co_alltoall(values, nbytes, algorithm))

    def scan(self, value: Any, op: Op, nbytes: Optional[int] = None) -> Any:
        return _drive(self.co_scan(value, op, nbytes))

    def exscan(self, value: Any, op: Op, nbytes: Optional[int] = None) -> Any:
        return _drive(self.co_exscan(value, op, nbytes))

    def reduce_scatter(self, values: Sequence[Any], op: Op,
                       nbytes: Optional[int] = None) -> Any:
        return _drive(self.co_reduce_scatter(values, op, nbytes))

    def co_barrier(self, algorithm: Optional[str] = None):
        from repro.simmpi.collectives.barrier import co_barrier

        return self._co_spanned("barrier", algorithm, co_barrier, self,
                                algorithm=algorithm)

    def co_bcast(self, value: Any = None, root: int = 0,
                 nbytes: Optional[int] = None,
                 algorithm: Optional[str] = None,
                 segments: Optional[int] = None):
        from repro.simmpi.collectives.bcast import co_bcast

        return self._co_spanned(
            "bcast", algorithm, co_bcast, self, value, root=root,
            nbytes=nbytes, algorithm=algorithm, segments=segments)

    def co_reduce(self, value: Any, op: Op, root: int = 0,
                  nbytes: Optional[int] = None,
                  algorithm: Optional[str] = None,
                  segments: Optional[int] = None):
        from repro.simmpi.collectives.reduce import co_reduce

        return self._co_spanned(
            "reduce", algorithm, co_reduce, self, value, op, root=root,
            nbytes=nbytes, algorithm=algorithm, segments=segments)

    def co_allreduce(self, value: Any, op: Op, nbytes: Optional[int] = None,
                     algorithm: Optional[str] = None):
        from repro.simmpi.collectives.allreduce import co_allreduce

        return self._co_spanned(
            "allreduce", algorithm, co_allreduce, self, value, op,
            nbytes=nbytes, algorithm=algorithm)

    def co_gather(self, value: Any, root: int = 0,
                  nbytes: Optional[int] = None,
                  algorithm: Optional[str] = None):
        from repro.simmpi.collectives.gather import co_gather

        return self._co_spanned(
            "gather", algorithm, co_gather, self, value, root=root,
            nbytes=nbytes, algorithm=algorithm)

    def co_scatter(self, values: Optional[Sequence[Any]] = None, root: int = 0,
                   nbytes: Optional[int] = None,
                   algorithm: Optional[str] = None):
        from repro.simmpi.collectives.scatter import co_scatter

        return self._co_spanned(
            "scatter", algorithm, co_scatter, self, values, root=root,
            nbytes=nbytes, algorithm=algorithm)

    def co_allgather(self, value: Any, nbytes: Optional[int] = None,
                     algorithm: Optional[str] = None):
        from repro.simmpi.collectives.allgather import co_allgather

        return self._co_spanned(
            "allgather", algorithm, co_allgather, self, value,
            nbytes=nbytes, algorithm=algorithm)

    def co_alltoall(self, values: Sequence[Any], nbytes: Optional[int] = None,
                    algorithm: Optional[str] = None):
        from repro.simmpi.collectives.alltoall import co_alltoall

        return self._co_spanned(
            "alltoall", algorithm, co_alltoall, self, values,
            nbytes=nbytes, algorithm=algorithm)

    def co_scan(self, value: Any, op: Op, nbytes: Optional[int] = None):
        from repro.simmpi.collectives.scan import co_scan

        return self._co_spanned(
            "scan", None, co_scan, self, value, op, nbytes=nbytes)

    def co_exscan(self, value: Any, op: Op, nbytes: Optional[int] = None):
        from repro.simmpi.collectives.scan import co_exscan

        return self._co_spanned(
            "exscan", None, co_exscan, self, value, op, nbytes=nbytes)

    def co_reduce_scatter(self, values: Sequence[Any], op: Op,
                          nbytes: Optional[int] = None):
        from repro.simmpi.collectives.scan import co_reduce_scatter

        return self._co_spanned(
            "reduce_scatter", None, co_reduce_scatter, self,
            list(values), op, nbytes=nbytes)

    # -- one-sided --------------------------------------------------------

    def win_create(self, local_data: Any = None, nbytes: Optional[int] = None):
        return _drive(self.co_win_create(local_data, nbytes))

    def co_win_create(self, local_data: Any = None,
                      nbytes: Optional[int] = None):
        from repro.simmpi.osc import Window

        return (yield from Window.co_create(self, local_data, nbytes=nbytes))

    # -- helpers ---------------------------------------------------------

    # One call frame over the engine's thread-local lookup; bound as a
    # staticmethod so the per-message hot path skips the repeated
    # ``from ... import`` a function-local import would pay.
    _current = staticmethod(current_process)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} out of range [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Communicator(id={self.id}, size={self.size})"
