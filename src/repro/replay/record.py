"""Live-run event recorder driven from the engine's PML-layer hooks.

One :class:`ReplayRecorder` instance is attached per Engine (see
:mod:`repro.replay.autorecord`).  The engine calls its hooks at exactly
the points where a message claims shared network state — ``on_message``
from its observer slot right after :meth:`Network.transfer` for
sends/puts/gets, ``on_recv`` right after the clock update for
receive-waits — so the recorded event order *is* the global
transfer-claim order: jitter draws, NIC serialization windows and
memory-bandwidth windows are consumed in event order, which is what
makes identity replay bit-exact.

Every timed event stores both the absolute pre-event clock ``t`` and
the local-computation gap ``gap = t - clock_after_previous_event`` on
the same rank.  Gaps absorb everything the replay engine does not
model (compute, file I/O, send overheads already folded into clocks by
the recorded run's own bookkeeping is *not* — those are re-derived),
letting one trace be re-costed under a different placement.  A ``B``
/ ``E`` marker's ``t`` is its rank's raw clock at the call's entry /
exit (``gap`` 0).

Each hook call writes one row: it extends a ``schema.RowPacker``'s flat
list by the nine fields (packed every ``PACK_ROWS`` rows), ``mcat``
being the code ``pml.record`` returned.  A send's sequence number rides
on its ``Message`` (``rseq``) to the receive-wait, so the recorder
keeps no message alive.
"""

from __future__ import annotations

from typing import Dict, List

from repro.replay import autorecord
from repro.replay.schema import (CAT_CODE, COLUMN_LAYOUT, K_B, K_E, K_F,
                                 K_G, K_P, K_R, K_S, PACK_ROWS, ReplayTrace,
                                 RowPacker, params_to_json, topology_to_json)

__all__ = ["ReplayRecorder"]

_KIND = {"S": K_S, "P": K_P, "G": K_G}
_PACK_LEN = PACK_ROWS * len(COLUMN_LAYOUT)    # fields in a full pack


class ReplayRecorder:
    __slots__ = ("meta", "comms", "_packer", "_rows", "_last", "_seq")

    def __init__(self, engine, meta: dict):
        # Nothing of the engine is kept: the engine holds this recorder,
        # and hands itself to run_finished.
        self.meta = meta
        self.comms: Dict[int, List[int]] = {}
        self._packer = RowPacker()
        self._rows = self._packer.rows
        # rank -> virtual clock immediately after that rank's previous
        # recorded event (0.0 before the first: processes start at 0).
        self._last = [0.0] * engine.n_ranks
        self._seq = 0

    def __len__(self) -> int:       # rows recorded so far
        return (len(self._packer.packs) * PACK_ROWS
                + len(self._rows) // len(COLUMN_LAYOUT))

    # -- hook sites ------------------------------------------------------

    def on_message(self, kind: str, proc, peer: int, nbytes: int,
                   category: str, mcat: int, t_pre: float, msg) -> None:
        """A send (``msg`` is its Message), put or get: one row."""
        r = proc.rank
        if msg is None:
            seq = 0
        else:
            seq = msg.rseq = self._seq
            self._seq = seq + 1
        rows = self._rows
        rows += (t_pre, t_pre - self._last[r], nbytes, r, peer, seq,
                 _KIND[kind], CAT_CODE[category], mcat)
        self._last[r] = proc.clock
        if len(rows) >= _PACK_LEN:
            self._packer.pack()

    def on_recv(self, proc, t_pre: float, msg) -> None:
        seq = msg.rseq
        if seq < 0:  # pragma: no cover - message predates recording
            return
        r = proc.rank
        rows = self._rows
        rows += (t_pre, t_pre - self._last[r], 0, r, 0, seq, K_R, 0, 0)
        self._last[r] = proc.clock
        if len(rows) >= _PACK_LEN:
            self._packer.pack()

    def on_coll_begin(self, proc, comm, opname: str, alg, kwargs) -> None:
        cid = comm.id
        if cid not in self.comms:
            self.comms[cid] = list(comm.group)
        root, nbytes, segs = map(kwargs.get, ("root", "nbytes", "segments"))
        sig = (cid, opname, alg or "", -1 if root is None else int(root),
               -1 if nbytes is None else int(nbytes), int(segs or 0))
        colls = self._packer.colls
        rows = self._rows
        rows += (proc.clock, 0.0, 0, proc.rank,
                 colls.setdefault(sig, len(colls)), 0, K_B, 0, 0)
        if len(rows) >= _PACK_LEN:
            self._packer.pack()

    def on_coll_end(self, proc) -> None:
        rows = self._rows
        rows += (proc.clock, 0.0, 0, proc.rank, 0, 0, K_E, 0, 0)
        if len(rows) >= _PACK_LEN:
            self._packer.pack()

    # -- finalization ----------------------------------------------------

    def run_finished(self, engine, clean: bool) -> ReplayTrace:
        """The run's trace, closed by an ``F`` per rank and handed to
        the capture (if attached for one) when ``clean``."""
        rows, last = self._rows, self._last
        for proc in engine.procs if clean else ():
            t = proc.clock
            rows += (t, t - last[proc.rank], 0, proc.rank, 0, 0, K_F, 0, 0)
        trace = ReplayTrace(
            world_size=engine.n_ranks,
            topology=topology_to_json(engine.cluster.topology),
            binding=list(engine.cluster.binding),
            params=params_to_json(engine.cluster.params),
            seed=engine.seed,
            monitoring_overhead=engine.monitoring_overhead,
            comms=self.comms,
            clocks=[p.clock for p in engine.procs],
            columns=self._packer.columns(),
            meta=dict(self.meta or {}),
        )
        if clean and self.meta is not None:
            autorecord._finished(trace)
        return trace
