"""One-sided communication (RMA windows).

A minimal MPI-3 window: collectively created, with ``put``, ``get``,
``accumulate`` and ``fence``.  Data movement is recorded under the
``"osc"`` monitoring category so the paper's ``MPI_M_OSC_ONLY`` flag
has real traffic to select.

Timing model: the target CPU does not participate (true RMA).  A put
charges the origin its injection time; a get pays a request latency to
the target plus the data transfer back.  ``fence`` is a barrier whose
zero-byte synchronization messages are also ``"osc"`` traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.simmpi.collectives.barrier import _dissemination
from repro.simmpi.datatypes import Buffer
from repro.simmpi.engine import _drive
from repro.simmpi.errorsim import CommError

__all__ = ["Window"]


class Window:
    """A one-sided memory window over a communicator."""

    def __init__(self, comm, win_id: int):
        self.comm = comm
        self.id = win_id
        # rank -> exposed local data (None allowed: zero-size window)
        self._memory: Dict[int, Any] = {}
        self._nbytes: Dict[int, int] = {}

    @classmethod
    def create(cls, comm, local_data: Any = None, nbytes: Optional[int] = None) -> "Window":
        """Blocking :meth:`co_create`."""
        return _drive(cls.co_create(comm, local_data, nbytes))

    @classmethod
    def co_create(cls, comm, local_data: Any = None, nbytes: Optional[int] = None):
        """Collective window creation (synchronizes like MPI_Win_create)."""
        win = cls._lookup(comm, local_data, nbytes)
        yield from win.co_fence()
        return win

    @classmethod
    def _lookup(cls, comm, local_data, nbytes) -> "Window":
        seq = comm._split_seq()
        reg_key = ("win", comm.id, seq)
        win = comm.engine.comm_registry.get(reg_key)
        if win is None:
            win = cls(comm, comm.engine.alloc_comm_id())
            comm.engine.comm_registry[reg_key] = win
        me = comm.rank
        buf = Buffer.wrap(local_data, nbytes)
        win._memory[me] = buf.payload
        win._nbytes[me] = buf.nbytes
        return win

    # -- epochs -----------------------------------------------------------

    def fence(self) -> None:
        """Blocking :meth:`co_fence`."""
        _drive(self.co_fence())

    def co_fence(self):
        """Synchronize all window members: the dissemination barrier, in
        the window's own context, as osc traffic."""
        ctx = ("osc-fence", self.id, self._fence_seq())
        return _dissemination(self.comm, ctx, "osc")

    def _fence_seq(self) -> int:
        proc = self.comm._current()
        key = ("fence_seq", self.id)
        seq = proc.userdata.get(key, 0)
        proc.userdata[key] = seq + 1
        return seq

    # -- RMA operations ------------------------------------------------------

    def put(self, value: Any, target: int, nbytes: Optional[int] = None) -> None:
        """Blocking :meth:`co_put`."""
        _drive(self.co_put(value, target, nbytes))

    def co_put(self, value: Any, target: int, nbytes: Optional[int] = None):
        """Write ``value`` into the target's window memory."""
        comm = self.comm
        comm._check_rank(target)
        proc = comm._current()
        buf = Buffer.wrap(value, nbytes)
        yield from comm.engine.co_give_way(proc)
        self._put_body(proc, buf, target)

    def _put_body(self, proc, buf: Buffer, target: int) -> None:
        # Everything after the give-way is park-free: record, charge,
        # transfer, and the memory copy at the origin's clock.
        comm = self.comm
        engine = comm.engine
        origin_w = proc.rank
        target_w = comm.world_rank(target)
        t_pre = proc.clock
        mcat = engine.pml.record(origin_w, target_w, buf.nbytes, "osc")
        if mcat and engine.monitoring_overhead > 0.0:
            proc.clock += engine.monitoring_overhead
        sender_done, _arrival = engine.network.transfer(
            origin_w, target_w, buf.nbytes, proc.clock
        )
        proc.clock = sender_done
        observe = engine._observe
        if observe is not None:
            observe("P", proc, target_w, buf.nbytes, "osc", mcat, t_pre, None)
        self._memory[target] = buf.copy_payload()
        self._nbytes[target] = buf.nbytes

    def get(self, target: int, nbytes: Optional[int] = None) -> Any:
        """Blocking :meth:`co_get`."""
        return _drive(self.co_get(target, nbytes))

    def co_get(self, target: int, nbytes: Optional[int] = None):
        """Read the target's window memory into the origin.

        The wire transfer flows target→origin, so the monitoring
        component books the bytes as *sent by the target* — matching
        how RDMA reads show up on NIC counters.
        """
        comm = self.comm
        comm._check_rank(target)
        proc = comm._current()
        n = self._nbytes.get(target, 0) if nbytes is None else int(nbytes)
        yield from comm.engine.co_give_way(proc)
        return self._get_body(proc, n, target)

    def _get_body(self, proc, n: int, target: int) -> Any:
        comm = self.comm
        engine = comm.engine
        origin_w = proc.rank
        target_w = comm.world_rank(target)
        t_pre = proc.clock
        mcat = engine.pml.record(target_w, origin_w, n, "osc")
        if mcat and engine.monitoring_overhead > 0.0:
            proc.clock += engine.monitoring_overhead
        # Request flight to the target, then the data transfer back.
        cls = engine.network.sharing_class(origin_w, target_w)
        lp = engine.network.params.link_for(cls, engine.network.topology)
        t_request_arrives = proc.clock + lp.latency
        _done, arrival = engine.network.transfer(
            target_w, origin_w, n, t_request_arrives
        )
        proc.clock = max(proc.clock, arrival) + engine.network.recv_overhead
        observe = engine._observe
        if observe is not None:
            observe("G", proc, target_w, n, "osc", mcat, t_pre, None)
        data = self._memory.get(target)
        if isinstance(data, np.ndarray):
            return data.copy()
        return data

    def accumulate(self, value: Any, target: int, op, nbytes: Optional[int] = None) -> None:
        """Blocking :meth:`co_accumulate`."""
        _drive(self.co_accumulate(value, target, op, nbytes))

    def co_accumulate(self, value: Any, target: int, op,
                      nbytes: Optional[int] = None):
        """Atomic read-modify-write on the target memory (SUM etc.)."""
        comm = self.comm
        comm._check_rank(target)
        buf = Buffer.wrap(value, nbytes)
        existing = self._memory.get(target)
        yield from self.co_put(value, target, nbytes=buf.nbytes)
        if existing is not None and buf.payload is not None:
            self._memory[target] = op(existing, buf.payload)

    # -- local access -----------------------------------------------------

    def local(self) -> Any:
        """This rank's exposed memory (valid between epochs)."""
        return self._memory.get(self.comm.rank)

    def free(self) -> None:
        _drive(self.co_free())

    def co_free(self):
        yield from self.co_fence()
