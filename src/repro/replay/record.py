"""Live-run event recorder driven from the engine's PML-layer hooks.

One :class:`ReplayRecorder` instance is attached per Engine (see
:mod:`repro.replay.autorecord`).  The engine calls the ``on_*`` methods
at exactly the points where a message claims shared network state —
immediately after :meth:`Network.transfer` for sends/puts/gets,
immediately after the clock update for receive-waits — so the recorded
event order *is* the global transfer-claim order: jitter draws, NIC
serialization windows and memory-bandwidth windows are consumed in
event order, which is what makes identity replay bit-exact.

Every timed event stores both the absolute pre-event clock ``t`` and
the local-computation gap ``gap = t - clock_after_previous_event`` on
the same rank.  Gaps absorb everything the replay engine does not
model (compute, file I/O, send overheads already folded into clocks by
the recorded run's own bookkeeping is *not* — those are re-derived),
letting one trace be re-costed under a different placement.

Each hook appends one fixed-width row to a ``schema.RowPacker``; a
send's sequence number rides on its ``Message`` (``rseq``) to the
receive-wait, so the recorder keeps no message alive.
"""

from __future__ import annotations

from typing import Dict, List

from repro.replay import autorecord
from repro.replay.schema import (CAT_CODE, K_B, K_E, K_F, K_G, K_P, K_R, K_S,
                                 ReplayTrace, RowPacker, params_to_json,
                                 topology_to_json)

__all__ = ["ReplayRecorder"]

_OSC, _COLL, _P2P = CAT_CODE["osc"], CAT_CODE["coll"], CAT_CODE["p2p"]


class ReplayRecorder:
    __slots__ = ("_pml", "meta", "comms", "_rows", "_add", "_last", "_seq")

    def __init__(self, engine, meta: dict):
        # The engine's PML, not the engine: the engine holds this
        # recorder, and hands itself to run_finished.
        self._pml = engine.pml
        self.meta = meta
        self.comms: Dict[int, List[int]] = {}
        self._rows = RowPacker()
        self._add = self._rows.add
        # rank -> virtual clock immediately after that rank's previous
        # recorded event (0.0 before the first: processes start at 0).
        self._last: Dict[int, float] = {}
        self._seq = 0

    # -- hook sites ------------------------------------------------------

    def on_send(self, proc, dst_world: int, nbytes: int, category: str,
                recorded: bool, t_pre: float, msg) -> None:
        r = proc.rank
        seq = self._seq
        self._seq = seq + 1
        msg.rseq = seq
        cat = CAT_CODE[category]
        # Mode-1 monitoring charges collective traffic as point-to-point.
        mcat = 0 if not recorded else \
            _P2P if cat == _COLL and self._pml._mode == 1 else cat
        self._add((t_pre, t_pre - self._last.get(r, 0.0), nbytes, r,
                   dst_world, seq, K_S, cat, mcat))
        self._last[r] = proc.clock

    def on_recv(self, proc, t_pre: float, msg) -> None:
        seq = msg.rseq
        if seq < 0:  # pragma: no cover - message predates recording
            return
        r = proc.rank
        self._add((t_pre, t_pre - self._last.get(r, 0.0), 0, r, 0, seq,
                   K_R, 0, 0))
        self._last[r] = proc.clock

    def on_put(self, proc, target_world: int, nbytes: int,
               recorded: bool, t_pre: float, kind: int = K_P) -> None:
        r = proc.rank
        self._add((t_pre, t_pre - self._last.get(r, 0.0), nbytes, r,
                   target_world, 0, kind, _OSC, _OSC if recorded else 0))
        self._last[r] = proc.clock

    def on_get(self, proc, target_world: int, nbytes: int,
               recorded: bool, t_pre: float) -> None:
        self.on_put(proc, target_world, nbytes, recorded, t_pre, K_G)

    def on_coll_begin(self, proc, comm, opname: str, alg, kwargs) -> None:
        cid = comm.id
        if cid not in self.comms:
            self.comms[cid] = list(comm.group)
        root, nbytes, segs = map(kwargs.get, ("root", "nbytes", "segments"))
        sig = (cid, opname, alg or "", -1 if root is None else int(root),
               -1 if nbytes is None else int(nbytes), int(segs or 0))
        colls = self._rows.colls
        self._add((0.0, 0.0, 0, proc.rank, colls.setdefault(sig, len(colls)),
                   0, K_B, 0, 0))

    def on_coll_end(self, proc) -> None:
        self._add((0.0, 0.0, 0, proc.rank, 0, 0, K_E, 0, 0))

    # -- finalization ----------------------------------------------------

    def run_finished(self, engine) -> None:
        """Finalize the trace; the engine only calls this on clean runs."""
        for proc in engine.procs:
            t = proc.clock
            self._add((t, t - self._last.get(proc.rank, 0.0), 0, proc.rank,
                       0, 0, K_F, 0, 0))
        trace = ReplayTrace(
            world_size=engine.n_ranks,
            topology=topology_to_json(engine.cluster.topology),
            binding=list(engine.cluster.binding),
            params=params_to_json(engine.cluster.params),
            seed=engine.seed,
            monitoring_overhead=engine.monitoring_overhead,
            comms=self.comms,
            clocks=[p.clock for p in engine.procs],
            columns=self._rows.columns(),
            meta=dict(self.meta),
        )
        autorecord._finished(trace)
