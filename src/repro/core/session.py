"""Monitoring sessions and the per-process library runtime.

A session is implemented exactly as the real library implements it on
top of MPI_T: *snapshot/diff of the component's performance variables*.

* ``start``/``continue`` snapshot the per-peer count/size pvar arrays;
* ``suspend`` accumulates ``current − snapshot`` into session-owned
  buffers ("the amount of data sent will be copied and stored in
  different buffers within the introspection library", §4.5);
* ``reset`` zeroes the accumulated buffers.

Because every session owns its buffers, sessions are completely
independent — they may overlap or nest arbitrarily (§4.1) — and a
session attached to a communicator records traffic between any two of
its members *whatever communicator carried it*, since the pvar arrays
are indexed by world rank and only projected onto the session's group
when data is read out.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.constants import MAX_SESSIONS, flags_to_categories
from repro.obs import registry as _obs_registry
from repro.core.errors import (
    InvalidMsid,
    MissingInit,
    MultipleCall,
    SessionNotSuspended,
    SessionOverflow,
)
from repro.simmpi.pml_monitoring import CATEGORIES, PVAR_NAMES

__all__ = ["Msid", "Session", "MonitoringRuntime"]

_RUNTIME_KEY = "mpi_m_runtime"


class Msid:
    """Opaque monitoring-session identifier (the C ``MPI_M_msid``)."""

    __slots__ = ("value", "owner_rank")

    def __init__(self, value: int, owner_rank: int):
        self.value = value
        self.owner_rank = owner_rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Msid({self.value}@rank{self.owner_rank})"


class Session:
    """One monitoring session: state machine + accumulated matrices.

    The session reaches its runtime through a weak reference: the
    runtime's table holds the session, and a strong reference back
    would make every pair a reference cycle.
    """

    ACTIVE = "active"
    SUSPENDED = "suspended"
    FREED = "freed"

    def __init__(self, runtime: "MonitoringRuntime", msid: Msid, comm):
        self._runtime = weakref.ref(runtime)
        self.msid = msid
        self.comm = comm
        self.state = Session.ACTIVE
        world = runtime.world_size
        self._acc_counts: Dict[str, np.ndarray] = {
            c: np.zeros(world, dtype=np.uint64) for c in CATEGORIES
        }
        self._acc_sizes: Dict[str, np.ndarray] = {
            c: np.zeros(world, dtype=np.uint64) for c in CATEGORIES
        }
        self._snap_counts: Dict[str, np.ndarray] = {}
        self._snap_sizes: Dict[str, np.ndarray] = {}
        # Pvar write-epoch at snapshot time, per category; lets
        # suspend/resume skip categories that have not changed.
        self._snap_epochs: Dict[str, Optional[int]] = {}
        self._take_snapshot()
        _obs_registry().counter("repro_session_events_total",
                                event="create").inc()

    @property
    def runtime(self) -> "MonitoringRuntime":
        return self._runtime()

    # -- state transitions --------------------------------------------------

    def suspend(self) -> None:
        if self.state != Session.ACTIVE:
            raise MultipleCall(f"suspend on a {self.state} session")
        for cat in CATEGORIES:
            # Cheap probe first: if the category's write epoch has not
            # moved since the snapshot, the diff is zero — skip the two
            # array copies and the subtraction (the common case for osc
            # and, in point-to-point phases, coll).
            epoch = self.runtime.pvar_epoch(cat)
            if epoch is not None and epoch == self._snap_epochs.get(cat):
                continue
            counts, sizes = self.runtime.read_pvars(cat)
            self._acc_counts[cat] += counts - self._snap_counts[cat]
            self._acc_sizes[cat] += sizes - self._snap_sizes[cat]
        self.state = Session.SUSPENDED
        _obs_registry().counter("repro_session_events_total",
                                event="suspend").inc()

    def resume(self) -> None:
        if self.state != Session.SUSPENDED:
            raise MultipleCall(f"continue on a {self.state} session")
        self._take_snapshot()
        self.state = Session.ACTIVE
        _obs_registry().counter("repro_session_events_total",
                                event="resume").inc()

    def reset(self) -> None:
        if self.state != Session.SUSPENDED:
            raise SessionNotSuspended("reset requires a suspended session")
        for cat in CATEGORIES:
            self._acc_counts[cat][:] = 0
            self._acc_sizes[cat][:] = 0
        _obs_registry().counter("repro_session_events_total",
                                event="reset").inc()

    def free(self) -> None:
        """End the session: the runtime forgets it, and its buffers go
        with it (only the msid stays, as a tombstone)."""
        if self.state != Session.SUSPENDED:
            raise SessionNotSuspended("free requires a suspended session")
        self.state = Session.FREED
        self.runtime._forget(self)
        _obs_registry().counter("repro_session_events_total",
                                event="free").inc()

    def _take_snapshot(self) -> None:
        for cat in CATEGORIES:
            epoch = self.runtime.pvar_epoch(cat)
            if (epoch is not None and cat in self._snap_counts
                    and epoch == self._snap_epochs.get(cat)):
                # Unchanged since the previous snapshot (idle category
                # across a suspend/continue cycle): keep it.
                continue
            counts, sizes = self.runtime.read_pvars(cat)
            self._snap_counts[cat] = counts
            self._snap_sizes[cat] = sizes
            self._snap_epochs[cat] = epoch

    # -- data access -----------------------------------------------------------

    def data(self, flags: int) -> Tuple[np.ndarray, np.ndarray]:
        """This process's per-peer (counts, sizes), projected on the
        session communicator's group and summed over the categories the
        flags select.  Only valid while suspended."""
        if self.state != Session.SUSPENDED:
            raise SessionNotSuspended("data access requires a suspended session")
        members = np.asarray(self.comm.group, dtype=np.intp)
        n = len(members)
        counts = np.zeros(n, dtype=np.uint64)
        sizes = np.zeros(n, dtype=np.uint64)
        for cat in flags_to_categories(flags):
            counts += self._acc_counts[cat][members]
            sizes += self._acc_sizes[cat][members]
        return counts, sizes


class MonitoringRuntime:
    """Per-process state of the MPI_Monitoring library.

    Holds the MPI_T pvar session, the started pvar handles, and the
    table of monitoring sessions this process created.  Stored in the
    simulated process's ``userdata`` — the moral equivalent of the C
    library's per-process globals.  It keeps its rank's number and the
    MPI_T interface, not the process or the engine: a runtime that is
    never finalized stays in ``userdata`` and must not point back.
    """

    def __init__(self, proc):
        self.rank = proc.rank
        self.world_size = proc.engine.n_ranks
        # Live (active or suspended) sessions by msid value; a freed
        # session leaves only its value in ``_freed``.
        self.sessions: Dict[int, Session] = {}
        self._freed: Set[int] = set()
        self._next_msid = 1
        mpit = self._mpit = proc.engine.mpit
        mpit.init_thread()
        # The library requires internal/external distinction (mode 2);
        # the cvar is the simulated --mca pml_monitoring_enable knob.
        mpit.cvar_write("pml_monitoring_enable", 2)
        self._pvar_session = mpit.pvar_session_create()
        self._handles = {}
        for cat in CATEGORIES:
            cname, sname = PVAR_NAMES[cat]
            hc = self._pvar_session.handle_alloc(cname, proc.rank)
            hs = self._pvar_session.handle_alloc(sname, proc.rank)
            hc.start()
            hs.start()
            self._handles[cat] = (hc, hs)

    # -- attach/detach to the current process --------------------------------

    @staticmethod
    def install(proc) -> "MonitoringRuntime":
        if _RUNTIME_KEY in proc.userdata:
            raise MultipleCall("MPI_M_init called twice without finalize")
        rt = MonitoringRuntime(proc)
        proc.userdata[_RUNTIME_KEY] = rt
        _obs_registry().counter("repro_session_events_total",
                                event="runtime_install").inc()
        return rt

    @staticmethod
    def of(proc) -> "MonitoringRuntime":
        rt = proc.userdata.get(_RUNTIME_KEY)
        if rt is None:
            raise MissingInit("no call to MPI_M_init has been done")
        return rt

    def finalize(self, proc) -> None:
        from repro.core.errors import SessionStillActive

        live = [s for s in self.sessions.values() if s.state == Session.ACTIVE]
        if live:
            raise SessionStillActive(
                f"{len(live)} session(s) still active at MPI_M_finalize"
            )
        self._pvar_session.free()
        self._mpit.finalize()
        del proc.userdata[_RUNTIME_KEY]
        _obs_registry().counter("repro_session_events_total",
                                event="runtime_finalize").inc()

    # -- session management --------------------------------------------------

    def create_session(self, comm) -> Session:
        if len(self.sessions) >= MAX_SESSIONS:
            raise SessionOverflow(f"maximum of {MAX_SESSIONS} sessions reached")
        msid = Msid(self._next_msid, self.rank)
        self._next_msid += 1
        session = Session(self, msid, comm)
        self.sessions[msid.value] = session
        return session

    def lookup(self, msid) -> Session:
        if not isinstance(msid, Msid):
            raise InvalidMsid(f"not a session identifier: {msid!r}")
        if msid.owner_rank == self.rank:
            session = self.sessions.get(msid.value)
            if session is not None:
                return session
            if msid.value in self._freed:
                raise InvalidMsid(f"msid {msid!r} refers to a freed session")
        raise InvalidMsid(f"unknown msid {msid!r}")

    def live_sessions(self):
        return list(self.sessions.values())

    def _forget(self, session: Session) -> None:
        """Keep only a freed session's tombstone: its msid value."""
        value = session.msid.value
        del self.sessions[value]
        self._freed.add(value)

    # -- pvar access -----------------------------------------------------------

    def read_pvars(self, category: str) -> Tuple[np.ndarray, np.ndarray]:
        hc, hs = self._handles[category]
        return hc.read(), hs.read()

    def pvar_epoch(self, category: str) -> Optional[int]:
        """The category's write epoch (count and size pvars share one),
        or None when the variable does not track versions.  Reading the
        epoch settles the caller's deferred send but copies nothing."""
        hc, _hs = self._handles[category]
        return hc.version()
