"""A small MPI Tool Information Interface (MPI_T) shim.

The paper's library deliberately hides MPI_T's "extremely low level"
machinery (§3): performance-variable *sessions*, *handles* bound to an
object, and explicit read/start/stop/reset calls.  This module
reproduces that machinery for the simulated runtime so that the
high-level library in :mod:`repro.core` can be implemented strictly on
top of it — the same layering as the real software stack.

Control variables (cvars) are named scalars with get/set (the component
is enabled through ``pml_monitoring_enable``, mirroring
``--mca pml_monitoring_enable`` on the ``mpirun`` command line).
Performance variables (pvars) are named per-process arrays; reading a
handle yields a snapshot copy.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "MpiToolInterface",
    "PvarSession",
    "PvarHandle",
    "MpitError",
]


class MpitError(Exception):
    """Raised for misuse of the tool interface (unknown variable...)."""


class _ControlVariable:
    def __init__(self, name: str, getter: Callable[[], Any], setter: Callable[[Any], None], doc: str):
        self.name = name
        self.getter = getter
        self.setter = setter
        self.doc = doc


class _PerfVariable:
    def __init__(self, name: str, reader: Callable[[int], np.ndarray], doc: str,
                 version: Optional[Callable[[], int]] = None):
        self.name = name
        self.reader = reader
        self.doc = doc
        # Optional monotonic write counter; lets snapshot layers skip
        # re-reading variables that have not changed.
        self.version = version


class PvarHandle:
    """A started/stopped handle on one pvar, bound to one process.

    The handle reaches its session through a weak reference (the session
    lists its handles); a session that is gone counts as freed.
    """

    def __init__(self, session: "PvarSession", var: _PerfVariable, rank: int):
        self._session = weakref.ref(session)
        self._var = var
        self.rank = rank
        self.started = False
        self.freed = False

    @property
    def name(self) -> str:
        return self._var.name

    def start(self) -> None:
        self._check()
        self.started = True

    def stop(self) -> None:
        self._check()
        self.started = False

    def read(self) -> np.ndarray:
        """Snapshot of the variable for the bound process (a copy)."""
        self._check()
        return np.array(self._var.reader(self.rank), dtype=np.uint64, copy=True)

    def version(self) -> Optional[int]:
        """The variable's write epoch, or None if it does not track one.

        Reading the version does *not* flush or copy anything — it is
        the cheap "has this changed since my snapshot?" probe.
        """
        self._check()
        if self._var.version is None:
            return None
        return int(self._var.version())

    def free(self) -> None:
        self.freed = True

    def _check(self) -> None:
        if self.freed:
            raise MpitError(f"handle on {self._var.name} already freed")
        session = self._session()
        if session is None or session.freed:
            raise MpitError("pvar session already freed")


class PvarSession:
    """An MPI_T pvar session: a bag of handles freed together."""

    def __init__(self, iface: "MpiToolInterface"):
        self._iface = iface
        self.handles: List[PvarHandle] = []
        self.freed = False

    def handle_alloc(self, name: str, rank: int) -> PvarHandle:
        if self.freed:
            raise MpitError("pvar session already freed")
        var = self._iface._pvar(name)
        h = PvarHandle(self, var, rank)
        self.handles.append(h)
        return h

    def free(self) -> None:
        for h in self.handles:
            h.free()
        self.handles.clear()
        self.freed = True


class MpiToolInterface:
    """Registry of control and performance variables."""

    def __init__(self):
        self._cvars: Dict[str, _ControlVariable] = {}
        self._pvars: Dict[str, _PerfVariable] = {}
        self._initialized = 0

    # -- lifecycle (MPI_T_init_thread / MPI_T_finalize) --------------------

    def init_thread(self) -> None:
        self._initialized += 1

    def finalize(self) -> None:
        if self._initialized == 0:
            raise MpitError("MPI_T finalize without init")
        self._initialized -= 1

    @property
    def initialized(self) -> bool:
        return self._initialized > 0

    # -- registration (done by components such as pml_monitoring) ----------

    def register_cvar(
        self,
        name: str,
        getter: Callable[[], Any],
        setter: Callable[[Any], None],
        doc: str = "",
    ) -> None:
        if name in self._cvars:
            raise MpitError(f"cvar {name!r} already registered")
        self._cvars[name] = _ControlVariable(name, getter, setter, doc)

    def register_pvar(
        self,
        name: str,
        reader: Callable[[int], np.ndarray],
        doc: str = "",
        version: Optional[Callable[[], int]] = None,
    ) -> None:
        if name in self._pvars:
            raise MpitError(f"pvar {name!r} already registered")
        self._pvars[name] = _PerfVariable(name, reader, doc, version=version)

    # -- queries ---------------------------------------------------------

    def cvar_names(self) -> List[str]:
        return sorted(self._cvars)

    def pvar_names(self) -> List[str]:
        return sorted(self._pvars)

    def cvar_read(self, name: str) -> Any:
        return self._cvar(name).getter()

    def cvar_write(self, name: str, value: Any) -> None:
        self._cvar(name).setter(value)

    def pvar_session_create(self) -> PvarSession:
        return PvarSession(self)

    # -- internals ----------------------------------------------------------

    def _cvar(self, name: str) -> _ControlVariable:
        try:
            return self._cvars[name]
        except KeyError:
            raise MpitError(f"unknown control variable {name!r}") from None

    def _pvar(self, name: str) -> _PerfVariable:
        try:
            return self._pvars[name]
        except KeyError:
            raise MpitError(f"unknown performance variable {name!r}") from None
