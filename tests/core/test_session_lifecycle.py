"""Tests for the MPI_M session state machine and error codes (§4.3)."""

import numpy as np
import pytest

from repro.core import api as mapi
from repro.core.constants import (
    MAX_SESSIONS,
    MPI_M_ALL_MSID,
    ErrorCode,
    Flags,
)
from repro.core.errors import raise_for_code
from tests.conftest import run_spmd

E = ErrorCode


def spmd(prog, n_ranks=2, **kw):
    return run_spmd(prog, n_ranks=n_ranks, **kw)


class TestInitFinalize:
    def test_init_then_finalize(self):
        def prog(comm):
            return (mapi.mpi_m_init(), mapi.mpi_m_finalize())

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_SUCCESS, E.MPI_SUCCESS)

    def test_double_init_is_multiple_call(self):
        def prog(comm):
            mapi.mpi_m_init()
            return mapi.mpi_m_init()

        results, _ = spmd(prog)
        assert results[0] == E.MPI_M_MULTIPLE_CALL

    def test_missing_init_everywhere(self):
        def prog(comm):
            codes = [
                mapi.mpi_m_finalize(),
                mapi.mpi_m_start(comm)[0],
                mapi.mpi_m_suspend(MPI_M_ALL_MSID),
                mapi.mpi_m_continue(MPI_M_ALL_MSID),
                mapi.mpi_m_reset(MPI_M_ALL_MSID),
                mapi.mpi_m_free(MPI_M_ALL_MSID),
            ]
            return codes

        results, _ = spmd(prog)
        assert all(c == E.MPI_M_MISSING_INIT for c in results[0])

    def test_init_again_after_finalize_ok(self):
        def prog(comm):
            mapi.mpi_m_init()
            mapi.mpi_m_finalize()
            code = mapi.mpi_m_init()
            mapi.mpi_m_finalize()
            return code

        results, _ = spmd(prog)
        assert results[0] == E.MPI_SUCCESS

    def test_finalize_with_active_session_fails(self):
        def prog(comm):
            mapi.mpi_m_init()
            err, msid = mapi.mpi_m_start(comm)
            code = mapi.mpi_m_finalize()
            mapi.mpi_m_suspend(msid)  # clean up so finalize can pass
            return code

        results, _ = spmd(prog)
        assert results[0] == E.MPI_M_SESSION_STILL_ACTIVE

    def test_finalize_with_suspended_session_ok(self):
        def prog(comm):
            mapi.mpi_m_init()
            err, msid = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(msid)
            return mapi.mpi_m_finalize()

        results, _ = spmd(prog)
        assert results[0] == E.MPI_SUCCESS

    def test_init_sets_component_mode_2(self):
        def prog(comm):
            mapi.mpi_m_init()
            mode = comm.engine.mpit.cvar_read("pml_monitoring_enable")
            mapi.mpi_m_finalize()
            return mode

        results, _ = spmd(prog)
        assert results[0] == 2


class TestStateMachine:
    def test_suspend_twice_is_multiple_call(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            first = mapi.mpi_m_suspend(msid)
            second = mapi.mpi_m_suspend(msid)
            mapi.mpi_m_finalize()
            return (first, second)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_SUCCESS, E.MPI_M_MULTIPLE_CALL)

    def test_continue_active_is_multiple_call(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            code = mapi.mpi_m_continue(msid)
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_finalize()
            return code

        results, _ = spmd(prog)
        assert results[0] == E.MPI_M_MULTIPLE_CALL

    def test_suspend_continue_cycle(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            codes = []
            for _ in range(3):
                codes.append(mapi.mpi_m_suspend(msid))
                codes.append(mapi.mpi_m_continue(msid))
            codes.append(mapi.mpi_m_suspend(msid))
            mapi.mpi_m_finalize()
            return codes

        results, _ = spmd(prog)
        assert all(c == E.MPI_SUCCESS for c in results[0])

    def test_reset_requires_suspended(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            active = mapi.mpi_m_reset(msid)
            mapi.mpi_m_suspend(msid)
            suspended = mapi.mpi_m_reset(msid)
            mapi.mpi_m_finalize()
            return (active, suspended)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_M_SESSION_NOT_SUSPENDED, E.MPI_SUCCESS)

    def test_free_requires_suspended(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            active = mapi.mpi_m_free(msid)
            mapi.mpi_m_suspend(msid)
            suspended = mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return (active, suspended)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_M_SESSION_NOT_SUSPENDED, E.MPI_SUCCESS)

    def test_freed_msid_is_invalid(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_free(msid)
            codes = (
                mapi.mpi_m_suspend(msid),
                mapi.mpi_m_continue(msid),
                mapi.mpi_m_get_data(msid)[0],
            )
            mapi.mpi_m_finalize()
            return codes

        results, _ = spmd(prog)
        assert all(c == E.MPI_M_INVALID_MSID for c in results[0])

    def test_garbage_msid_is_invalid(self):
        def prog(comm):
            mapi.mpi_m_init()
            code = mapi.mpi_m_suspend("not-a-msid")
            code2 = mapi.mpi_m_suspend(None)
            mapi.mpi_m_finalize()
            return (code, code2)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_M_INVALID_MSID, E.MPI_M_INVALID_MSID)

    def test_session_overflow(self):
        def prog(comm):
            mapi.mpi_m_init()
            msids = []
            code = E.MPI_SUCCESS
            for _ in range(MAX_SESSIONS + 1):
                code, msid = mapi.mpi_m_start(comm)
                if code != E.MPI_SUCCESS:
                    break
                msids.append(msid)
            for m in msids:
                mapi.mpi_m_suspend(m)
                mapi.mpi_m_free(m)
            mapi.mpi_m_finalize()
            return (code, len(msids))

        results, _ = spmd(prog, n_ranks=1)
        assert results[0] == (E.MPI_M_SESSION_OVERFLOW, MAX_SESSIONS)

    def test_freeing_makes_room(self):
        def prog(comm):
            mapi.mpi_m_init()
            for _ in range(MAX_SESSIONS):
                _, msid = mapi.mpi_m_start(comm)
                mapi.mpi_m_suspend(msid)
                mapi.mpi_m_free(msid)
            code, msid = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return code

        results, _ = spmd(prog, n_ranks=1)
        assert results[0] == E.MPI_SUCCESS


class TestAllMsid:
    def test_suspend_all(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, a = mapi.mpi_m_start(comm)
            _, b = mapi.mpi_m_start(comm)
            code = mapi.mpi_m_suspend(MPI_M_ALL_MSID)
            fin = mapi.mpi_m_finalize()
            return (code, fin)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_SUCCESS, E.MPI_SUCCESS)

    def test_all_msid_targets_matching_state_only(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, a = mapi.mpi_m_start(comm)
            _, b = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(a)  # a suspended, b active
            code = mapi.mpi_m_continue(MPI_M_ALL_MSID)  # resumes only a
            mapi.mpi_m_suspend(MPI_M_ALL_MSID)
            mapi.mpi_m_free(MPI_M_ALL_MSID)
            fin = mapi.mpi_m_finalize()
            return (code, fin)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_SUCCESS, E.MPI_SUCCESS)

    def test_all_msid_invalid_where_forbidden(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(msid)
            codes = (
                mapi.mpi_m_get_info(MPI_M_ALL_MSID)[0],
                mapi.mpi_m_get_data(MPI_M_ALL_MSID)[0],
                mapi.mpi_m_allgather_data(MPI_M_ALL_MSID)[0],
                mapi.mpi_m_rootgather_data(MPI_M_ALL_MSID, 0)[0],
                mapi.mpi_m_flush(MPI_M_ALL_MSID, "/tmp/x"),
                mapi.mpi_m_rootflush(MPI_M_ALL_MSID, 0, "/tmp/x"),
            )
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return codes

        results, _ = spmd(prog)
        assert all(c == E.MPI_M_INVALID_MSID for c in results[0])


class TestInvalidRoot:
    def test_rootgather_bad_root(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            mapi.mpi_m_suspend(msid)
            codes = (
                mapi.mpi_m_rootgather_data(msid, comm.size)[0],
                mapi.mpi_m_rootgather_data(msid, -1)[0],
                mapi.mpi_m_rootflush(msid, 99, "/tmp/x"),
            )
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return codes

        results, _ = spmd(prog)
        assert all(c == E.MPI_M_INVALID_ROOT for c in results[0])


class TestGetInfo:
    def test_array_size_is_comm_size(self):
        def prog(comm):
            mapi.mpi_m_init()
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            _, msid = mapi.mpi_m_start(sub)
            err, provided, n = mapi.mpi_m_get_info(msid)
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return (err, provided, n)

        results, _ = spmd(prog, n_ranks=6)
        err, provided, n = results[0]
        assert err == E.MPI_SUCCESS
        assert provided == 3  # MPI_THREAD_MULTIPLE
        assert n == 3

    def test_int_ignore(self):
        from repro.core.constants import MPI_M_INT_IGNORE

        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            err, provided, n = mapi.mpi_m_get_info(
                msid, provided=MPI_M_INT_IGNORE, array_size=MPI_M_INT_IGNORE
            )
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return (err, provided, n)

        results, _ = spmd(prog)
        assert results[0] == (E.MPI_SUCCESS, None, None)

    def test_data_access_while_active_fails(self):
        def prog(comm):
            mapi.mpi_m_init()
            _, msid = mapi.mpi_m_start(comm)
            code = mapi.mpi_m_get_data(msid)[0]
            mapi.mpi_m_suspend(msid)
            mapi.mpi_m_free(msid)
            mapi.mpi_m_finalize()
            return code

        results, _ = spmd(prog)
        assert results[0] == E.MPI_M_SESSION_NOT_SUSPENDED


def _held_after_cycles(cycles: int) -> int:
    """Bytes a 48-rank world still holds after ``cycles``
    start/suspend/free rounds per rank, measured just before
    MPI_M_finalize."""
    import tracemalloc

    from repro.simmpi import Cluster, Engine

    held = []

    def prog(comm):
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_init())
        yield from comm.co_barrier()
        if comm.rank == 0:
            held.append(tracemalloc.get_traced_memory()[0])
        for _ in range(cycles):
            err, msid = mapi.mpi_m_start(comm)
            raise_for_code(err)
            raise_for_code(mapi.mpi_m_suspend(msid))
            raise_for_code(mapi.mpi_m_free(msid))
        yield from comm.co_barrier()
        if comm.rank == 0:
            held.append(tracemalloc.get_traced_memory()[0])
        raise_for_code(mapi.mpi_m_finalize())

    tracemalloc.start()
    try:
        Engine(Cluster.plafrim(2, n_ranks=48)).run(prog)
    finally:
        tracemalloc.stop()
    return held[1] - held[0]


def test_freed_sessions_release_their_buffers():
    """A freed session keeps only its tombstone (``lookup`` still says
    "freed"), not its accumulators and snapshots: 400 cycles on 48
    ranks held 138 MB when free only changed the state."""
    assert _held_after_cycles(400) - _held_after_cycles(10) < 5_000_000


def test_a_freed_session_leaves_a_tombstone():
    from repro.core.errors import InvalidMsid
    from repro.core.session import MonitoringRuntime
    from repro.simmpi import current_process

    def prog(comm):
        mapi.mpi_m_init()
        _, msid = mapi.mpi_m_start(comm)
        mapi.mpi_m_suspend(msid)
        mapi.mpi_m_free(msid)
        rt = MonitoringRuntime.of(current_process())
        try:
            rt.lookup(msid)
        except InvalidMsid as exc:
            message = str(exc)
        live = rt.live_sessions()
        mapi.mpi_m_finalize()
        return message, live

    results, _ = spmd(prog)
    message, live = results[0]
    assert "refers to a freed session" in message
    assert live == []
