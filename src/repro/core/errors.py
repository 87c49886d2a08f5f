"""Exception hierarchy mirroring the library's error codes.

The procedural API (:mod:`repro.core.api`) *returns* :class:`ErrorCode`
values like the C interface; the Pythonic front-end
(:mod:`repro.core.pythonic`) raises the corresponding exception.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.constants import ErrorCode

__all__ = [
    "MonitoringError",
    "InternalFail",
    "MpitFail",
    "MissingInit",
    "SessionStillActive",
    "SessionNotSuspended",
    "InvalidMsid",
    "SessionOverflow",
    "MultipleCall",
    "InvalidRoot",
    "TraceSchemaError",
    "ServeProtocolError",
    "error_class",
    "raise_for_code",
]


class TraceSchemaError(ValueError):
    """A persisted trace/profile declares a schema this code cannot read.

    Raised by the on-disk readers of the repository
    (:func:`repro.core.flushio.read_profile`,
    :meth:`repro.replay.schema.ReplayTrace.load`) when the file carries
    an explicit ``schema=N`` marker for an unsupported ``N`` — as
    opposed to a flush profile written before the marker existed,
    which still loads.
    """


class ServeProtocolError(ValueError):
    """A ``repro.serve`` wire message violates the protocol.

    The serving layer applies the same discipline as the on-disk
    readers (:class:`TraceSchemaError`): every frame carries an
    explicit ``schema=N`` field, and a frame this build cannot
    understand — wrong schema, unknown request type, malformed or
    oversized payload — is rejected loudly instead of being guessed at.
    """


class MonitoringError(Exception):
    """Base class; carries the :class:`ErrorCode` it corresponds to."""

    code: ErrorCode = ErrorCode.MPI_M_INTERNAL_FAIL

    def __init__(self, message: str = ""):
        super().__init__(message or self.code.name)


class InternalFail(MonitoringError):
    code = ErrorCode.MPI_M_INTERNAL_FAIL


class MpitFail(MonitoringError):
    code = ErrorCode.MPI_M_MPIT_FAIL


class MissingInit(MonitoringError):
    code = ErrorCode.MPI_M_MISSING_INIT


class SessionStillActive(MonitoringError):
    code = ErrorCode.MPI_M_SESSION_STILL_ACTIVE


class SessionNotSuspended(MonitoringError):
    code = ErrorCode.MPI_M_SESSION_NOT_SUSPENDED


class InvalidMsid(MonitoringError):
    code = ErrorCode.MPI_M_INVALID_MSID


class SessionOverflow(MonitoringError):
    code = ErrorCode.MPI_M_SESSION_OVERFLOW


class MultipleCall(MonitoringError):
    code = ErrorCode.MPI_M_MULTIPLE_CALL


class InvalidRoot(MonitoringError):
    code = ErrorCode.MPI_M_INVALID_ROOT


_BY_CODE: Dict[ErrorCode, Type[MonitoringError]] = {
    cls.code: cls
    for cls in (
        InternalFail,
        MpitFail,
        MissingInit,
        SessionStillActive,
        SessionNotSuspended,
        InvalidMsid,
        SessionOverflow,
        MultipleCall,
        InvalidRoot,
    )
}


def error_class(code: ErrorCode) -> Type[MonitoringError]:
    return _BY_CODE[ErrorCode(code)]


def raise_for_code(code: ErrorCode, message: str = "") -> None:
    """Raise the exception matching a nonzero return code."""
    code = ErrorCode(code)
    if code is ErrorCode.MPI_SUCCESS:
        return
    raise _BY_CODE[code](message)
