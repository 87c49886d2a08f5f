"""The procedural MPI_Monitoring API (paper §4.3), C-style.

Every function returns an :class:`ErrorCode` (``MPI_SUCCESS`` on
success) as its first value, exactly like the C interface — and like
the Fortran binding, where the return value travels through an extra
parameter.  Output "parameters" come back as additional tuple members;
the C sentinel arguments are honoured:

* pass :data:`MPI_M_DATA_IGNORE` / :data:`MPI_M_INT_IGNORE` for an
  output you do not want (``None`` is returned in its place);
* pass a preallocated ``numpy`` array to have it filled in place (the
  C calling convention); pass ``None`` (default) to let the library
  allocate;
* :data:`MPI_M_ALL_MSID` acts on every session in the applicable state.

As in the paper, all functions are collective over the session's
communicator except ``mpi_m_get_info`` — the gathering/flushing
accessors really do communicate (their traffic is itself monitored by
whatever *other* sessions are active, since sessions are independent).

For idiomatic Python (exceptions, context managers) use
:mod:`repro.core.pythonic`, which wraps these functions.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.core.constants import (
    MPI_M_ALL_MSID,
    MPI_M_DATA_IGNORE,
    MPI_M_INT_IGNORE,
    MPI_SUCCESS,
    ErrorCode,
    Flags,
    THREAD_LEVEL_PROVIDED,
)
from repro.core.errors import InvalidMsid, InvalidRoot, MonitoringError
from repro.core.flushio import write_local_profile, write_root_profiles
from repro.core.session import MonitoringRuntime, Session
from repro.simmpi.engine import _drive, current_process
from repro.simmpi.mpit import MpitError

__all__ = [
    "mpi_m_init",
    "mpi_m_finalize",
    "mpi_m_start",
    "mpi_m_suspend",
    "mpi_m_continue",
    "mpi_m_reset",
    "mpi_m_free",
    "mpi_m_get_info",
    "mpi_m_get_data",
    "mpi_m_allgather_data",
    "mpi_m_rootgather_data",
    "mpi_m_flush",
    "mpi_m_rootflush",
    "co_mpi_m_allgather_data",
    "co_mpi_m_rootgather_data",
    "co_mpi_m_rootflush",
]


# Number of output tuple members per call (beyond the error code),
# used to pad error returns; co_ variants share the blocking entry.
_N_OUT = {
    "mpi_m_start": 1,
    "mpi_m_get_info": 2,
    "mpi_m_get_data": 2,
    "mpi_m_allgather_data": 2,
    "mpi_m_rootgather_data": 2,
}


def _pad(f, code):
    name = f.__name__
    if name.startswith("co_"):
        name = name[3:]
    n = _N_OUT.get(name, 0)
    return (code, *([None] * n)) if n else code


def _guard(fn):
    """Translate library exceptions into C-style return codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MonitoringError as exc:
            return _pad(fn, exc.code)
        except MpitError:
            return _pad(fn, ErrorCode.MPI_M_MPIT_FAIL)
        except OSError:
            return _pad(fn, ErrorCode.MPI_M_INTERNAL_FAIL)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _co_guard(fn):
    """:func:`_guard` for resumable (generator) API functions."""

    def wrapper(*args, **kwargs):
        try:
            return (yield from fn(*args, **kwargs))
        except MonitoringError as exc:
            return _pad(fn, exc.code)
        except MpitError:
            return _pad(fn, ErrorCode.MPI_M_MPIT_FAIL)
        except OSError:
            return _pad(fn, ErrorCode.MPI_M_INTERNAL_FAIL)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# environment


@_guard
def mpi_m_init() -> ErrorCode:
    """Set the monitoring environment (call between MPI_Init/Finalize).

    Calling it twice without an intervening finalize is
    ``MPI_M_MULTIPLE_CALL``.
    """
    MonitoringRuntime.install(current_process())
    return MPI_SUCCESS


@_guard
def mpi_m_finalize() -> ErrorCode:
    """Finalize the monitoring environment.

    Fails with ``MPI_M_SESSION_STILL_ACTIVE`` if any session has not
    been suspended.
    """
    proc = current_process()
    MonitoringRuntime.of(proc).finalize(proc)
    return MPI_SUCCESS


# ---------------------------------------------------------------------------
# session state machine


@_guard
def mpi_m_start(comm) -> Tuple[ErrorCode, Any]:
    """Create and start a monitoring session attached to ``comm``.

    The count and size of messages between any two processes of
    ``comm`` are recorded while the session is active, even when the
    traffic travels on another communicator.  Returns ``(err, msid)``.
    """
    rt = MonitoringRuntime.of(current_process())
    session = rt.create_session(comm)
    return MPI_SUCCESS, session.msid


def _sessions_for(rt: MonitoringRuntime, msid, wanted_state: str):
    if msid is MPI_M_ALL_MSID:
        return [s for s in rt.live_sessions() if s.state == wanted_state]
    return [rt.lookup(msid)]


@_guard
def mpi_m_suspend(msid) -> ErrorCode:
    """Suspend an active session, making its data available.

    ``MPI_M_ALL_MSID`` suspends every active session.
    """
    rt = MonitoringRuntime.of(current_process())
    for session in _sessions_for(rt, msid, Session.ACTIVE):
        session.suspend()
    return MPI_SUCCESS


@_guard
def mpi_m_continue(msid) -> ErrorCode:
    """Restart a suspended session (named ``MPI_M_continue`` in C)."""
    rt = MonitoringRuntime.of(current_process())
    for session in _sessions_for(rt, msid, Session.SUSPENDED):
        session.resume()
    return MPI_SUCCESS


@_guard
def mpi_m_reset(msid) -> ErrorCode:
    """Zero the data of a suspended session."""
    rt = MonitoringRuntime.of(current_process())
    for session in _sessions_for(rt, msid, Session.SUSPENDED):
        session.reset()
    return MPI_SUCCESS


@_guard
def mpi_m_free(msid) -> ErrorCode:
    """Free a suspended session (its data is no longer available)."""
    rt = MonitoringRuntime.of(current_process())
    for session in _sessions_for(rt, msid, Session.SUSPENDED):
        session.free()
    return MPI_SUCCESS


# ---------------------------------------------------------------------------
# data accessors


def _no_all_msid(msid):
    if msid is MPI_M_ALL_MSID:
        raise InvalidMsid("MPI_M_ALL_MSID is not valid here")


def _fill(out, values: np.ndarray):
    """Honour the C output-parameter convention."""
    if out is MPI_M_DATA_IGNORE:
        return None
    if out is None:
        return values
    arr = np.asarray(out)
    if arr.size < values.size:
        raise InvalidMsid(  # pragma: no cover - defensive
            f"output buffer too small: {arr.size} < {values.size}"
        )
    np.copyto(arr.reshape(-1)[: values.size], values.reshape(-1))
    return out


@_guard
def mpi_m_get_info(msid, provided=None, array_size=None):
    """Accessor to session information (the only non-collective call).

    Returns ``(err, provided_thread_level, array_size)``; pass
    ``MPI_M_INT_IGNORE`` to skip an output.
    """
    rt = MonitoringRuntime.of(current_process())
    _no_all_msid(msid)
    session = rt.lookup(msid)
    p = None if provided is MPI_M_INT_IGNORE else THREAD_LEVEL_PROVIDED
    a = None if array_size is MPI_M_INT_IGNORE else session.comm.size
    return MPI_SUCCESS, p, a


@_guard
def mpi_m_get_data(msid, msg_counts=None, msg_sizes=None, flags=Flags.ALL_COMM):
    """This process's per-peer data: ``(err, msg_counts, msg_sizes)``.

    Arrays are indexed by rank in the session's communicator.  The
    session must be suspended.  Although the result is process-local,
    the call is collective over the communicator (as in the C API).
    """
    rt = MonitoringRuntime.of(current_process())
    _no_all_msid(msid)
    session = rt.lookup(msid)
    counts, sizes = session.data(flags)
    return MPI_SUCCESS, _fill(msg_counts, counts), _fill(msg_sizes, sizes)


# ---------------------------------------------------------------------------
# the communicating accessors
#
# The purely local calls above never need to park as long as the
# caller's deferred send is settled first — generator rank programs do
# that with ``yield from comm.co_sync()`` and then call them directly.
# The accessors below really communicate (allgather/gather over the
# session's communicator), so they are written once as ``co_``
# generators; the C-style blocking names drive them.


def _check_root(session, root) -> int:
    if not isinstance(root, (int, np.integer)) or not 0 <= root < session.comm.size:
        raise InvalidRoot(f"root {root!r} not in [0, {session.comm.size})")
    return int(root)


def _co_gather_rows(msid, root, flags):
    """``(session, root, rows)``: every rank's ``(counts, sizes)``
    gathered at ``root`` (``rows`` is None elsewhere)."""
    rt = MonitoringRuntime.of(current_process())
    _no_all_msid(msid)
    session = rt.lookup(msid)
    root = _check_root(session, root)
    yield from session.comm.co_sync()
    rows = yield from session.comm.co_gather(session.data(flags), root=root)
    return session, root, rows


@_co_guard
def co_mpi_m_allgather_data(msid, matrix_counts=None, matrix_sizes=None,
                            flags=Flags.ALL_COMM):
    """Full matrices on every process: ``(err, counts, sizes)``.

    Equivalent to ``get_data`` followed by ``MPI_Allgather`` (§4.1);
    matrices are comm_size × comm_size in row-major 1-D layout, row i =
    data sent by rank i.
    """
    rt = MonitoringRuntime.of(current_process())
    _no_all_msid(msid)
    session = rt.lookup(msid)
    yield from session.comm.co_sync()
    rows = yield from session.comm.co_allgather(session.data(flags))
    n = session.comm.size
    cmat = np.concatenate([r[0] for r in rows]).astype(np.uint64)
    smat = np.concatenate([r[1] for r in rows]).astype(np.uint64)
    assert cmat.size == n * n and smat.size == n * n
    return MPI_SUCCESS, _fill(matrix_counts, cmat), _fill(matrix_sizes, smat)


@_co_guard
def co_mpi_m_rootgather_data(msid, root, matrix_counts=None,
                             matrix_sizes=None, flags=Flags.ALL_COMM):
    """Like allgather_data but only ``root`` receives the matrices;
    other ranks get ``(MPI_SUCCESS, None, None)``."""
    session, root, rows = yield from _co_gather_rows(msid, root, flags)
    if session.comm.rank != root:
        return MPI_SUCCESS, None, None
    cmat = np.concatenate([r[0] for r in rows]).astype(np.uint64)
    smat = np.concatenate([r[1] for r in rows]).astype(np.uint64)
    return MPI_SUCCESS, _fill(matrix_counts, cmat), _fill(matrix_sizes, smat)


@_co_guard
def co_mpi_m_rootflush(msid, root, filename: str, flags=Flags.ALL_COMM):
    """``root`` gathers all data and writes ``filename_counts.[rank].prof``
    and ``filename_sizes.[rank].prof``, where ``[rank]`` is the root's
    rank in MPI_COMM_WORLD (per the paper's API table)."""
    session, root, rows = yield from _co_gather_rows(msid, root, flags)
    if session.comm.rank == root:
        n = session.comm.size
        cmat = np.stack([r[0] for r in rows]).astype(np.uint64).reshape(n, n)
        smat = np.stack([r[1] for r in rows]).astype(np.uint64).reshape(n, n)
        world_rank = session.comm.world_rank(root)
        write_root_profiles(filename, world_rank, cmat, smat, flags)
    return MPI_SUCCESS


def mpi_m_allgather_data(msid, matrix_counts=None, matrix_sizes=None,
                         flags=Flags.ALL_COMM):
    """Blocking :func:`co_mpi_m_allgather_data`."""
    return _drive(co_mpi_m_allgather_data(msid, matrix_counts, matrix_sizes,
                                          flags))


def mpi_m_rootgather_data(msid, root, matrix_counts=None, matrix_sizes=None,
                          flags=Flags.ALL_COMM):
    """Blocking :func:`co_mpi_m_rootgather_data`."""
    return _drive(co_mpi_m_rootgather_data(msid, root, matrix_counts,
                                           matrix_sizes, flags))


def mpi_m_rootflush(msid, root, filename: str, flags=Flags.ALL_COMM) -> ErrorCode:
    """Blocking :func:`co_mpi_m_rootflush`."""
    return _drive(co_mpi_m_rootflush(msid, root, filename, flags))


# ---------------------------------------------------------------------------
# flushing


@_guard
def mpi_m_flush(msid, filename: str, flags=Flags.ALL_COMM) -> ErrorCode:
    """Each process writes ``filename.[rank].prof`` (rank in the
    session's communicator).  The directory must already exist."""
    rt = MonitoringRuntime.of(current_process())
    _no_all_msid(msid)
    session = rt.lookup(msid)
    counts, sizes = session.data(flags)
    write_local_profile(filename, session.comm.rank, counts, sizes, flags)
    return MPI_SUCCESS
