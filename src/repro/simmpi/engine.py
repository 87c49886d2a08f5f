"""Deterministic event-driven simulation engine.

Every MPI rank is a *continuation*: a generator that runs until its
next park and yields a scheduler directive.  One single-threaded loop
(:meth:`Engine._run_eventloop`) resumes exactly one continuation at a
time, so the simulation is logically sequential and deterministic; a
switch costs one generator ``send``.  The services that can park —
settling a deferred send, waiting on a receive, giving way to a rank
that is behind in virtual time — exist once, as ``co_*`` generators,
here and in :mod:`repro.simmpi.comm` / :mod:`repro.simmpi.request`.

Rank programs come in two spellings and the engine reads the driver off
the program (``inspect.isgeneratorfunction``), never off a knob:

* a **generator program** (``yield from comm.co_barrier()``) is resumed
  natively: zero OS threads, 10k-rank worlds;
* a **plain callable** (blocking, mpi4py-style ``comm.barrier()``) runs
  on one OS thread per rank behind :class:`_ThreadTask`, an adapter
  that speaks the generator protocol to the same loop.  Every blocking
  public method is ``_drive(self.co_…(...))``: :func:`_drive` runs the
  canonical generator and forwards each directive it yields to the
  rank's task, which hands it to the loop and sleeps until resumed.
  Both spellings therefore execute the identical engine call sequence
  (clocks, matrices and switch counts are bit-equal); what the blocking
  spelling pays is two lock handoffs (rank thread → loop → rank thread)
  per switch instead of one ``send``.  Both end the same way too: the
  loop's ``StopIteration`` and exception branches store the result,
  settle a send left deferred, and record a failure.

Virtual time: each rank owns a clock (seconds).  Point-to-point sends
and receives advance clocks according to the :mod:`repro.simmpi.network`
model; ``compute()``/``sleep()`` advance them explicitly.  A rank never
observes another rank's clock directly, so causality is preserved:
receive completion is ``max(post time, message arrival)``.

Scheduling policy
-----------------

Shared timed resources (NIC/memory busy windows, the jitter RNG
stream) must be claimed in the same global ``(clock, rank)`` order
whatever order ranks happen to run in, so a rank about to inject a
message first gives way to every runnable rank whose virtual clock is
strictly behind its own.  Most of those parks are eliminated by
**deferred sends**: a sender that must give way enqueues its
fully-described transfer (buffer copy, destination, category) keyed by
``(clock, rank)`` and *keeps running* — it only stops at its next
engine interaction (``wait``, ``time``, another send, …), and whichever
rank is running materializes due transfers inline, in exactly the
order a park-per-send engine would produce.  A sender parks only when
a real rank (not just a pending transfer) must run before it.  There is
one send path: every send is built as a deferred send, and one that
nothing is due before is materialized on the spot
(:meth:`Engine._materialize`, the monitoring component's vantage
point for p2p and collective traffic).

A deferred send is one list, both ``proc.pending`` and its pending-heap
entry: ``[clock, rank, qseq, proc, queue, msg, dst_world, nbytes,
batch, parked]`` (``_PS_*``; ``qseq`` is unique, so comparisons never
reach ``proc``).  A generator program is its rank's continuation, with
no wrapper frame.  A rank parks in :meth:`Engine._co_settle_park`
(settling a deferred send, also for ``Communicator._co_isend``), in
``RecvRequest.co_wait`` (which inlines that loop) or in
:meth:`Engine.co_give_way`, so one parked in a barrier holds three
frames: program, decomposition, park site.

Ready-heap entries are ``(clock, rank, seq, proc, marker)``.  The
``marker`` field carries one further switch elision applied only *at
pop time*, when the entry wins the heap, so it cannot perturb the
order: a *phantom* marker means a message bind targeted a request of a
blocked rank other than the one it is waiting on.  Waking the rank
would only make it re-check its wait loop and block again — no
application code runs.  A phantom entry occupies the identical heap
slot (so other ranks' yield decisions still see it) but simply
evaporates when popped, unless the awaited message has arrived in the
meantime.  (Elisions that would delay a *real* resume — e.g. skipping
ahead to the receiver's post-recv clock — are deliberately absent:
they reorder application code such as monitoring-mode changes against
other ranks' sends.)

Deadlock (all live ranks blocked) raises :class:`DeadlockError` with a
per-rank state dump instead of hanging the host process.

Lifetime
--------

The taps are installed when the engine is built: ``pml.sync`` (a bridge
that reaches the engine through a weak reference, re-installed on a
thawed engine), and — only if the layer was on at construction — the
:mod:`repro.obs` observer and the replay recorder, which keep no
reference to the engine (it hands itself to their ``run_started`` /
``run_finished``).  :meth:`Engine.run` makes the run-time links back
into the engine — each ``SimProcess.engine``, each communicator's
``engine``, a blocking program's :class:`_ThreadTask` — and drops them
once results are stored and the taps have finished (``_unlink``).  A
finished engine therefore holds no reference cycle: the last reference
to it frees it on the spot, without waiting for the cyclic collector.
None of this is read per message.  A run that raises keeps its cycles
through the traceback the caller holds.
"""

from __future__ import annotations

import heapq
import inspect
import threading
import weakref
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.replay import autorecord as _replay
from repro.simmpi.cluster import Cluster
from repro.simmpi.errorsim import Aborted, DeadlockError, RankFailure, SimError
from repro.simmpi.match import ANY_SOURCE, ANY_TAG
from repro.simmpi.mpit import MpiToolInterface
from repro.simmpi.network import Network
from repro.simmpi.pml_monitoring import PmlMonitoring

__all__ = ["Engine", "SimProcess", "current_process"]


class _State(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


_tls = threading.local()

# Sentinel for ready-heap entries that stand in for a blocked process
# whose wake would be provably spurious (see module docstring).
_PHANTOM = object()


def current_process() -> "SimProcess":
    """The :class:`SimProcess` executing on the calling thread.

    Only valid inside a rank program; library layers (communicators,
    the monitoring API) use this to know "who is calling".
    """
    proc = getattr(_tls, "proc", None)
    if proc is None:
        raise SimError("not inside a simulated MPI process")
    return proc


_INF = float("inf")


def _bad_duration(seconds: float) -> ValueError:
    """The error for a compute/sleep time outside ``[0, inf)``: a NaN
    clock would silently break the ready heap's order."""
    if seconds < 0:
        return ValueError("cannot advance time backwards")
    return ValueError(f"a compute or sleep time must be finite, got {seconds}")


# -- the blocking-program adapter ------------------------------------------
#
# Everything thread-shaped in the simulator lives between these rules.


class _ThreadTask:
    """A plain-callable rank program as a scheduler task.

    Runs ``main(*args, **kwargs)`` (the blocking program) on an OS
    thread and speaks the generator protocol to the event loop: ``send``
    lets the thread run to its next park and returns the directive it
    parked with, ``throw`` raises at its park site, and a finished
    thread ends the way a generator program does — its return value as
    ``StopIteration(value)``, its exception as itself — so the loop's
    own branches settle its last send and record its failure.  Exactly
    one of {loop, rank thread} runs at any instant, so two locks used as
    binary semaphores are the whole handshake.  The thread is created by
    the first ``send``; a task aborted earlier never has one.
    """

    def __init__(self, proc: "SimProcess", main: Callable, args, kwargs):
        self._proc = proc
        self._call = (main, args, kwargs)
        self._thread: Optional[threading.Thread] = None
        self._resume = threading.Lock()  # loop -> thread: run
        self._resume.acquire()
        self._parked = threading.Lock()  # thread -> loop: parked/finished
        self._parked.acquire()
        self._directive = None
        self._throw = None
        self._finished = False
        self._end: Optional[BaseException] = None  # StopIteration or raised

    def send(self, _value):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"simmpi-rank-{self._proc.rank}",
                daemon=True)
            self._thread.start()
        else:
            self._resume.release()
        self._parked.acquire()
        if self._finished:
            self._thread.join()
            try:
                # Raised from the attribute, not a local: a local would
                # keep the exception alive in this frame, which the
                # exception's own traceback keeps alive.
                raise self._end
            finally:
                self._end = None
        return self._directive

    def throw(self, exc):
        if self._thread is None or self._finished:
            self._finished = True  # never started: the body never runs
            raise exc
        self._throw = exc
        return self.send(None)

    def park(self, directive) -> None:
        """Rank-thread side: hand ``directive`` to the loop and sleep
        until the loop resumes (or throws into) this task."""
        self._directive = directive
        self._parked.release()
        self._resume.acquire()
        exc, self._throw = self._throw, None
        if exc is not None:
            raise exc

    def unlink(self) -> None:
        """Drop the run-time references (rank, program and arguments,
        last directive) once the task has ended: they point back into
        the engine."""
        self._proc = self._call = self._directive = None

    def _run(self) -> None:
        _tls.proc = self._proc
        main, args, kwargs = self._call
        try:
            result = main(*args, **kwargs)
            if inspect.isgenerator(result):
                result.close()
                raise SimError(
                    "the rank program returned a generator that was never "
                    "run; pass the generator function itself, e.g. "
                    "engine.run(gen_fn, args=(...)), not a lambda calling it")
            self._end = StopIteration(result)
        except BaseException as exc:  # noqa: BLE001 - raised by send()
            self._end = exc
        finally:
            self._finished = True
            self._parked.release()


def _drive(gen):
    """Run a ``co_*`` generator to completion from blocking code.

    A generator that finishes without parking (the common case) just
    returns its value.  Each directive it yields goes to the calling
    rank's :class:`_ThreadTask`; whatever the park raises (teardown's
    :class:`Aborted`) is thrown into the generator so its ``finally``
    blocks run.  With no thread task to park on — a blocking call inside
    a generator rank program, or outside any run — the call fails
    instead of hanging.  Any iterable is accepted: a ``co_*`` call with
    nothing to park on may return ``()`` instead of a generator.
    """
    if not hasattr(gen, "send"):
        gen = (directive for directive in gen)
    step, arg = gen.send, None
    try:
        while True:
            directive = step(arg)
            step, arg = gen.send, None
            try:
                proc = getattr(_tls, "proc", None)
                park = getattr(getattr(proc, "task", None), "park", None)
                if park is None:
                    if proc is not None and proc.engine._aborting:
                        raise Aborted()  # unwinding: not this rank's fault
                    raise SimError(
                        "a blocking call had to park, but this is not a "
                        "plain-callable rank program; generator rank "
                        "programs use the co_* API (yield from ...)")
                park(directive)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                step, arg = gen.throw, exc
    except StopIteration as stop:
        return stop.value


def _settle_bridge(engine: "Engine") -> Callable[[], None]:
    """``pml.sync`` for ``engine``: settle the calling rank's deferred
    send, if it has one and is a rank of this engine.

    Monitoring-state reads and mode changes observe/affect the global
    record order, so they must happen at the same position a
    non-deferred engine would put them — right after the caller's own
    sends have completed.  Generator programs settle beforehand
    (``comm.co_sync()``), so this finds nothing pending there.  The
    bridge reaches the engine through a weak reference: the PML
    belongs to the engine, and a bound method would make the pair a
    reference cycle.
    """
    ref = weakref.ref(engine)

    def settle_caller() -> None:
        proc = getattr(_tls, "proc", None)
        if proc is not None and proc.pending is not None:
            engine = ref()
            if engine is not None and proc.engine is engine:
                _drive(engine.co_settle(proc))

    return settle_caller


# A deferred message injection, materialized in ``(clock, rank)`` order
# by whichever rank is running when it comes due.  Represented as one
# plain list, pushed onto the pending heap as is (one C-level op on the
# per-message hot path); the slots are:
#
#   [0:3] clock, rank, qseq — the heap key: the sender's clock and
#                   rank at post, and a unique sequence number
#   [3] proc      — the sending SimProcess
#   [4] queue     — destination MatchQueue
#   [5] msg       — pre-built Message (arrival filled at materialization)
#   [6] dst_world — destination world rank (for monitoring/transfer)
#   [7] nbytes    — wire size
#   [8] batch     — PeerBatch for batched collectives, else None; the
#                   send is still gated (and charged monitoring
#                   overhead) individually at materialization
#   [9] parked    — True once the owner parks awaiting
#                   materialization; tells the materializer to resume
#                   the owner right after the transfer (transfer +
#                   continuation form one tenure, exactly as if the
#                   sender had parked for every rank behind it)
(_PS_CLOCK, _PS_RANK, _PS_QSEQ, _PS_PROC, _PS_QUEUE, _PS_MSG, _PS_DSTW,
 _PS_NBYTES, _PS_BATCH, _PS_PARKED) = range(10)


class SimProcess:
    """Per-rank simulation state: clock, continuation, userdata."""

    __slots__ = (
        "engine",
        "rank",
        "clock",
        "state",
        "task",
        "blocked_on",
        "wait_obj",
        "pending",
        "exc",
        "result",
        "userdata",
        "ready_seq",
    )

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.clock = 0.0
        self.state = _State.NEW
        # The rank continuation the scheduler resumes: the program's
        # generator (or the settle of its last send), or a _ThreadTask
        # for a blocking program.  Live execution state — it does not
        # survive pickling.
        self.task: Any = None
        self.blocked_on: Any = ""
        # The request this rank is currently parked in ``wait()`` on,
        # if any.  Message binds to *other* requests of this rank are
        # provably spurious wakes (see Engine._materialize).
        self.wait_obj: Any = None
        # This rank's deferred send, if any (at most one: posting a
        # second send settles the first, since its injection clock
        # depends on the first's completion).
        self.pending: Optional[list] = None
        self.exc: Optional[BaseException] = None
        self.result: Any = None
        self.ready_seq = 0  # invalidates stale ready-heap entries
        # Scratch space for per-process library state (e.g. the MPI_M
        # monitoring runtime attaches its session table here).
        self.userdata: Dict[str, Any] = {}

    # -- virtual time -----------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Move this rank's clock forward by ``seconds`` of work/sleep."""
        if not 0.0 <= seconds < _INF:
            raise _bad_duration(seconds)
        if self.pending is not None:
            _drive(self.engine.co_settle(self))
        self.clock += seconds

    # -- pickling ---------------------------------------------------------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot != "task"}

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)
        self.task = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimProcess(rank={self.rank}, t={self.clock:.6g}, "
            f"state={self.state.value})"
        )


class Engine:
    """Run SPMD programs over a simulated cluster.

    Parameters
    ----------
    cluster:
        Machine description (topology + binding + network parameters).
    seed:
        Seed for the network jitter stream.
    monitoring_overhead:
        CPU seconds charged to a sender per message *recorded* by the
        monitoring component (the cost the paper's Fig. 4 measures).
        Zero when monitoring is disabled.
    """

    def __init__(
        self,
        cluster: Cluster,
        seed: int = 0,
        monitoring_overhead: float = 5.0e-8,
    ):
        # task.send() count: one per scheduler resume.  Every resume is
        # preceded by exactly one switch, so on a completed run this
        # equals ``switches`` — counted independently as a consistency
        # signal for dashboards.
        self._resumes = 0
        self.seed = int(seed)
        self.cluster = cluster
        self.network = Network(
            cluster.topology, cluster.binding, cluster.params, seed=seed
        )
        self.monitoring_overhead = float(monitoring_overhead)
        self.procs: List[SimProcess] = []
        self.mpit = MpiToolInterface()
        self.pml = PmlMonitoring(cluster.n_ranks, mpit=self.mpit)
        self.pml.sync = _settle_bridge(self)
        # Shared registries used by the communicator layer; only one
        # rank runs at a time so plain dicts are safe.
        self.comm_registry: Dict[Any, Any] = {}
        self.match_queues: Dict[Any, Any] = {}
        self._next_comm_id = 0
        self._aborting = False
        self._switches = 0
        # (clock, rank, seq, proc, hint), lazily cleaned.
        self._ready_heap: List = []
        # Deferred-send records (see _PS_*); entries are never stale.
        self._pending_heap: List = []
        self._qseq = 0
        self._n_done = 0
        # Elided switches (a rank that pops itself, and evaporated
        # phantoms): plain ints bumped on branches that are rare by
        # construction, published by the observer — and useful
        # diagnostics even without it.
        self._self_handoffs = 0
        self._phantom_elisions = 0
        # Observability: None unless the obs layer was enabled when
        # this engine was built; every hot-path consultation is a
        # single ``is not None`` check on a per-wait (not per-message)
        # path.
        if _obs.is_enabled():
            from repro.obs.hooks import EngineObserver  # local: lazy

            self._obs = EngineObserver(self)
            self._obs_spans = self._obs.spans
        else:
            self._obs = None
            self._obs_spans = None
        # Replay recording: None unless repro.replay.autorecord was
        # active when this engine was built; same is-not-None fast-path
        # discipline as the observer.
        self._rr = _replay.attach(self)
        self.world = None  # set by run(); apps may also build comms directly

    # -- identifiers ------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.cluster.n_ranks

    def alloc_comm_id(self) -> int:
        cid = self._next_comm_id
        self._next_comm_id += 1
        return cid

    @property
    def switches(self) -> int:
        """Number of rank switches so far (a cost/diagnostic metric)."""
        return self._switches

    @property
    def messages(self) -> int:
        """Number of messages injected into the network so far."""
        return self.network.n_messages

    @property
    def resumes(self) -> int:
        """Scheduler resumes (``task.send()`` calls) so far."""
        return self._resumes

    # -- running a program --------------------------------------------------

    def run(
        self,
        main: Callable,
        args: Sequence[Any] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute ``main(world_comm, *args, **kwargs)`` on every rank.

        A generator function is resumed natively, one continuation per
        rank; a plain callable runs on one thread per rank behind
        :class:`_ThreadTask`.  Returns the per-rank return values, in
        rank order.  Any rank exception is re-raised as
        :class:`RankFailure`; a global hang raises
        :class:`DeadlockError`.
        """
        from repro.simmpi.comm import Communicator  # local: avoid cycle

        if self.procs:
            raise SimError("Engine.run is single-shot; build a new Engine")
        kwargs = kwargs or {}
        native = inspect.isgeneratorfunction(main)
        self.procs = [SimProcess(self, r) for r in range(self.n_ranks)]
        self.world = Communicator(self, list(range(self.n_ranks)))
        for proc in self.procs:
            proc.task = (main(self.world, *args, **kwargs) if native else
                         _ThreadTask(proc, main, (self.world, *args), kwargs))
            self._set_ready(proc)

        if self._obs is not None:
            self._obs.run_started(self)
        # The scheduler runs on the calling thread and leaves the
        # current-process slot exactly as it found it (nested engines,
        # post-run library calls).
        prev_proc = getattr(_tls, "proc", None)
        try:
            self._run_eventloop()
        finally:
            # Sampled before _drain(), which unconditionally raises the
            # abort flag while unwinding parked ranks.
            clean = (not self._aborting
                     and self._n_done == len(self.procs)
                     and all(p.exc is None for p in self.procs))
            self._drain()
            _tls.proc = prev_proc
            if self._obs is not None:
                self._obs.run_finished(self)
            if clean and self._rr is not None:
                self._rr.run_finished(self)
            self._unlink()

        failed = [p for p in self.procs if p.exc is not None]
        if failed:
            p = min(failed, key=lambda q: q.rank)
            raise RankFailure(p.rank, p.exc) from p.exc
        return [p.result for p in self.procs]

    def _unlink(self) -> None:
        """Drop the run-time back-references into this engine.

        Ranks, communicators and blocking-program tasks point back at
        the engine while it runs; once the run is over nothing needs
        them, and left in place they would make the finished engine a
        knot of reference cycles that only the cyclic collector frees.
        Dropped here, the last reference to the engine frees it.  What
        a kept engine answers is unchanged: clocks, results, the
        monitoring matrices, the NIC history, the registries.
        """
        from repro.simmpi.comm import Communicator  # local: avoid cycle

        for proc in self.procs:
            proc.engine = None
            if isinstance(proc.task, _ThreadTask):
                proc.task.unlink()
        for comm in (self.world, *self.comm_registry.values()):
            if isinstance(comm, Communicator):
                comm.engine = None

    @property
    def max_clock(self) -> float:
        """Largest per-rank clock (the simulated makespan) after run()."""
        if not self.procs:
            return 0.0
        return max(p.clock for p in self.procs)

    def clocks(self) -> List[float]:
        return [p.clock for p in self.procs]

    # -- pickling ----------------------------------------------------------

    # Live machinery that cannot cross a pickle boundary: the MPI_T
    # registry (its readers are closures over this engine's components)
    # and the optional observer/recorder taps.  ``__setstate__``
    # rebuilds the registry and leaves the taps detached: a thawed
    # engine is inspectable state (clocks, matrices, NIC counters) and
    # can run a fresh program if it never ran one, but it is not a
    # resumable mid-run scheduler — rank continuations do not survive
    # the trip (see SimProcess.__getstate__).
    _EPHEMERAL = ("mpit", "_obs", "_obs_spans", "_rr")

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._EPHEMERAL:
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.mpit = MpiToolInterface()
        self.pml.register(self.mpit)
        self.pml.sync = _settle_bridge(self)
        fs = self.__dict__.get("_filesystem")
        if fs is not None:
            fs._register_pvars(self.mpit)
        self._obs = None
        self._obs_spans = None
        self._rr = None

    # -- ready heap ---------------------------------------------------------

    def _set_ready(self, proc: SimProcess) -> None:
        """Transition a process to READY and enqueue it for scheduling."""
        proc.state = _State.READY
        proc.ready_seq += 1
        heapq.heappush(
            self._ready_heap,
            (proc.clock, proc.rank, proc.ready_seq, proc, None),
        )

    def min_ready_clock(self) -> Optional[float]:
        """Clock of the frontmost due work — rank or deferred send.

        Drops stale ready-heap entries on the way: an entry is live when
        its sequence number is current and its process is in the state
        the entry stands for — READY for a normal entry, BLOCKED for a
        phantom.  The hot paths (:meth:`_pop_ready`,
        ``comm._co_isend``) inline this loop.
        """
        heap = self._ready_heap
        clock = None
        while heap:
            entry = heap[0]
            proc = entry[3]
            if proc.ready_seq == entry[2]:
                if entry[4] is None:
                    if proc.state is _State.READY:
                        clock = entry[0]
                        break
                elif proc.state is _State.BLOCKED:
                    clock = entry[0]
                    break
            heapq.heappop(heap)
        ph = self._pending_heap
        if ph and (clock is None or ph[0][0] < clock):
            return ph[0][0]
        return clock

    def _pop_ready(self, settling: Optional[SimProcess] = None
                   ) -> Optional[SimProcess]:
        """Materialize due deferred sends, then pop the next rank.

        With ``settling``, stop early once that rank's own deferred send
        is materialized (return None): this is the park-free common case
        of :meth:`co_settle`, a plain method so the per-send settle
        costs no generator allocation.  Either way a returned rank is
        the continuation that must run next — for a settling rank, the
        one it parks for (:meth:`_co_settle_park`).
        """
        heap = self._ready_heap
        ph = self._pending_heap
        pop = heapq.heappop
        while True:
            # The stale-entry scan of min_ready_clock, inlined (this
            # loop runs once per switch).
            t = None
            while heap:
                e = heap[0]
                p = e[3]
                if p.ready_seq == e[2]:
                    if e[4] is None:
                        if p.state is _State.READY:
                            t = e
                            break
                    elif p.state is _State.BLOCKED:
                        t = e
                        break
                pop(heap)
            if ph:
                p = ph[0]
                if t is None or p[0] < t[0] or (p[0] == t[0] and p[1] < t[1]):
                    pop(ph)
                    owner = self._materialize(p)
                    if owner is not None:
                        # The sender is parked on this very transfer:
                        # it resumes here, mid-tenure (its post-transfer
                        # code belongs to the tenure that sent).
                        return owner
                    if settling is not None and settling.pending is None:
                        return None
                    continue
            if t is None:
                if settling is not None and settling.pending is not None:
                    raise SimError(  # pragma: no cover - invariant
                        "deferred send lost from the queue")
                return None
            entry = pop(heap)
            proc = entry[3]
            if entry[4] is _PHANTOM:
                wo = proc.wait_obj
                if wo is not None and wo._msg is not None:
                    # The awaited message arrived while the phantom was
                    # queued: this is a real resume after all.
                    return proc
                # A real resume here would only re-check the wait loop
                # and block again at the same clock.  Evaporate instead.
                self._phantom_elisions += 1
                continue
            return proc

    # -- deferred sends ----------------------------------------------------

    def _materialize(self, ps: list) -> Optional[SimProcess]:
        """Execute a send: record, charge, transfer, deliver, wake.

        The one place a p2p or collective message is sent, and so the
        monitoring component's vantage point: ``Communicator._co_isend``
        calls it on the spot when nothing is due before the sender, and
        the scans call it for a deferred send when it comes due.  Either
        way it runs at the exact position in the global ``(clock,
        rank)`` order where a park-per-send engine would resume the
        sender, so the monitoring mode, jitter stream, and NIC/memory
        windows all see the same sequence of operations.  Returns the
        owning process when it is parked on this transfer and must be
        resumed now (its post-transfer code belongs to this tenure).
        """
        _, _, _, proc, mq, msg, dst_world, nbytes, batch, parked = ps
        proc.pending = None
        clock = proc.clock
        if batch is None:
            recorded = self.pml.record(proc.rank, dst_world, nbytes,
                                       msg.category, clock)
        else:
            # pml.note_batched, inlined: gate and tally into the
            # collective's PeerBatch at this exact point in the global
            # order.
            pml = self.pml
            hook = pml.trace_hook
            if hook is not None:
                hook(clock, batch.src, batch.dst, nbytes, batch.category, 1)
            mode = pml._mode
            if mode == 0:
                recorded = False
            else:
                tl = batch.tallies
                if mode == 1 and batch.category == "coll":
                    tl[2] += 1
                    tl[3] += nbytes
                else:
                    tl[0] += 1
                    tl[1] += nbytes
                recorded = True
        t_pre = clock
        if recorded and self.monitoring_overhead > 0.0:
            proc.clock = clock = clock + self.monitoring_overhead
        # Network.transfer, inlined (every p2p and collective message
        # passes here).  The nbytes >= 0 precondition is Buffer's
        # invariant.
        net = self.network
        src_node = net._rank_node_l[proc.rank]
        dst_node = net._rank_node_l[dst_world]
        alpha, bw, _, _, cross, nic_gate, mem_gate = (
            net._pair_l[proc.rank * net._n_ranks + dst_world]
            if src_node == dst_node
            else net._node_l[src_node * net._n_nodes + dst_node])
        if net._sigma > 0.0:
            blk = net._jit_blk
            pos = net._jit_pos
            if pos + 2 > len(blk):
                blk = net._refill_jitter()
                pos = 0
            lat = alpha * blk[pos]
            bwt = (nbytes / bw) * blk[pos + 1]
            net._jit_pos = pos + 2
        else:
            lat = alpha
            bwt = nbytes / bw
        start = clock + net._o_send
        if nic_gate:
            nic_free = net._nic_free
            f = nic_free[src_node]
            if f > start:
                start = f
        if mem_gate and nbytes > 0:
            mem_free = net._mem_free
            f = mem_free[src_node]
            if f > start:
                start = f
            f = mem_free[dst_node]
            if f > start:
                start = f
            mem_t = start + nbytes / net._mem_bw
            mem_free[src_node] = mem_t
            if dst_node != src_node:
                mem_free[dst_node] = mem_t
        sender_done = start + bwt
        if nic_gate:
            nic_free[src_node] = sender_done
        arrival = start + lat + bwt
        net.n_messages += 1
        if cross:
            # NicCounters.record_xmit/record_rcv, inlined: the clamp and
            # the running total read the series' tail (keep in sync with
            # nic._Series.add).  Buffer.nbytes is a plain int by
            # construction, so the running totals need no cast here.
            nic = net.nic
            s = nic._xmit[src_node]
            tv = sender_done
            if tv < s.last:
                tv = s.last
            total = s.total + nbytes
            s.totals.append(total)
            s.times.append(tv)
            s.last = tv
            s.total = total
            s = nic._rcv[dst_node]
            tv = arrival
            if tv < s.last:
                tv = s.last
            total = s.total + nbytes
            s.totals.append(total)
            s.times.append(tv)
            s.last = tv
            s.total = total

        proc.clock = sender_done
        msg.arrival = arrival
        # MatchQueue.deliver, inlined, then the poster's wake.  A wake
        # of a rank still waiting on a *different* request whose message
        # has not arrived (``waitall`` progress) is provably spurious, so
        # it is enqueued as a phantom (see the module docstring).
        req = None
        posted = mq._posted
        if posted:
            ctx, src, tag = msg.context, msg.src, msg.tag
            for i, r in enumerate(posted):
                if (r.context == ctx
                        and r.source in (ANY_SOURCE, src)
                        and r.tag in (ANY_TAG, tag)):
                    del posted[i]
                    if r._msg is not None:
                        raise SimError("receive request bound twice")
                    r._msg = msg
                    req = r
                    break
        if req is None:
            mq._unexpected.append(msg)
        else:
            rp = req.proc
            if rp.state is _State.BLOCKED:
                rp.ready_seq += 1
                if rp.wait_obj is not None and rp.wait_obj._msg is None:
                    heapq.heappush(self._ready_heap,
                                   (rp.clock, rp.rank, rp.ready_seq, rp,
                                    _PHANTOM))
                else:
                    rp.state = _State.READY
                    heapq.heappush(self._ready_heap,
                                   (rp.clock, rp.rank, rp.ready_seq, rp,
                                    None))
        rr = self._rr
        if rr is not None:
            rr.on_send(proc, dst_world, nbytes, msg.category, recorded,
                       t_pre, msg)
        if parked:
            return proc
        return None

    # -- the scheduler --------------------------------------------------------
    #
    # A park is a ``yield`` carrying a scheduler directive — the
    # SimProcess to resume next (the yield site already did the heap pop
    # and the switch bookkeeping), or None to let the loop decide
    # (finish / defensive pop / deadlock).

    def _run_eventloop(self) -> None:
        """The scheduler: resume rank continuations one at a time.

        One iteration of this loop is what a switch costs: a generator
        ``send`` (plus, for a blocking program, the adapter's two lock
        handoffs)."""
        current = self._pop_ready()
        if current is None:  # pragma: no cover - zero-rank engine
            return
        self._switches += 1
        current.state = _State.RUNNING
        while True:
            _tls.proc = current
            self._resumes += 1
            try:
                nxt = current.task.send(None)
            except StopIteration as stop:
                # Finished, in either spelling (a thread task ends with
                # its program's StopIteration).  The final settle
                # returns None: keep the result.
                if stop.value is not None:
                    current.result = stop.value
                if current.pending is not None and not self._aborting:
                    # Settle the last send in this tenure: no new resume.
                    current.task = self.co_settle(current)
                    self._resumes -= 1
                    continue
                current.state = _State.DONE
                self._n_done += 1
            except BaseException as exc:  # noqa: BLE001 - via RankFailure
                # A failed rank, in either spelling (Aborted is an
                # unwind, not a failure).
                if not isinstance(exc, Aborted):
                    current.exc = exc
                    self._aborting = True
                current.state = _State.DONE
                self._n_done += 1
            else:
                if nxt is not None:
                    # The yield site already did the switch bookkeeping.
                    current = nxt
                    continue
            # Nobody was named: finished, aborting, or stalled.
            if self._aborting or self._n_done == len(self.procs):
                return
            nxt = self._pop_ready()
            if nxt is not None:
                self._switches += 1
                nxt.state = _State.RUNNING
                current = nxt
                continue
            blocked = [
                (p.rank, f"blocked on {p.blocked_on} at t={p.clock:.6g}")
                for p in self.procs
                if p.state is _State.BLOCKED
            ]
            self._aborting = True
            raise DeadlockError(blocked)

    def _drain(self) -> None:
        """Unwind any live rank after an abort or failure.

        Each live continuation gets :class:`Aborted` raised at its
        suspension point (a never-started task surfaces it from
        ``throw`` itself — its body never runs, and a blocking program
        never gets a thread).  A task that yields while unwinding is
        thrown at again; one that raises anything else while unwinding
        (a ``finally`` that fails) is a failed rank.
        """
        self._aborting = True
        for proc in self.procs:
            _tls.proc = proc
            while proc.state is not _State.DONE:
                try:
                    proc.task.throw(Aborted)
                except BaseException as exc:  # noqa: BLE001 - via RankFailure
                    if not isinstance(exc, (StopIteration, Aborted)):
                        proc.exc = exc
                    proc.state = _State.DONE
                    self._n_done += 1

    def _co_settle_park(self, proc: SimProcess, nxt: SimProcess,
                        then=None, args=()):
        """Yielding tail of :meth:`co_settle`: park for ``nxt`` until
        ``proc``'s deferred send is materialized, then call
        ``then(*args)`` (``Communicator._co_isend``'s own send).
        ``RecvRequest.co_wait`` inlines the loop — keep them in sync."""
        while nxt is not None:
            proc.pending[_PS_PARKED] = True
            proc.state = _State.READY
            self._switches += 1
            nxt.state = _State.RUNNING
            yield nxt
            if self._aborting:
                raise Aborted()
            proc.state = _State.RUNNING
            proc.blocked_on = ""
            nxt = None if proc.pending is None else self._pop_ready(proc)
        if then is not None:
            then(*args)

    def co_settle(self, proc: SimProcess):
        """Materialize this process's deferred send, in global order:
        every piece of due work keyed before it runs first — deferred
        transfers inline, ranks by parking for them.  Idempotent (a
        no-op when nothing is pending), so generator code may settle
        right before plain library calls that settle internally — the
        inner settle then finds nothing and never needs to park."""
        if proc.pending is None:
            return
        nxt = self._pop_ready(proc)
        if nxt is not None:
            yield from self._co_settle_park(proc, nxt)

    def co_give_way(self, proc: SimProcess):
        """Give way to ranks that are behind in virtual time.

        Called at communication points so that shared timed resources
        (the per-node NIC busy windows) are claimed in virtual-time
        order rather than execution order.  While this rank remains
        frontmost it keeps running — no heap traffic.
        """
        if proc.pending is not None:
            yield from self.co_settle(proc)
        f = self.min_ready_clock()
        if f is not None and f < proc.clock:
            self._set_ready(proc)
            nxt = self._pop_ready()
            if nxt is proc:
                # Materialized sends can leave this process frontmost
                # again: switching to ourselves is a no-op.
                self._self_handoffs += 1
                proc.state = _State.RUNNING
                if self._aborting:
                    raise Aborted()
                return
            if nxt is not None:
                self._switches += 1
                nxt.state = _State.RUNNING
                yield nxt
            else:  # pragma: no cover - defensive (we are in the heap)
                yield None
            if self._aborting:
                raise Aborted()

    def maybe_yield(self, proc: SimProcess) -> None:
        """Blocking :meth:`co_give_way`."""
        _drive(self.co_give_way(proc))
