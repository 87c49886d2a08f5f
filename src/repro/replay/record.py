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
"""

from __future__ import annotations

from typing import Dict, List

from repro.replay import autorecord
from repro.replay.schema import ReplayTrace, params_to_json, topology_to_json

__all__ = ["ReplayRecorder"]


class ReplayRecorder:
    __slots__ = ("engine", "meta", "events", "comms",
                 "_last", "_msgseq", "_msgs", "_seq")

    def __init__(self, engine, meta: dict):
        self.engine = engine
        self.meta = meta
        self.events: List[tuple] = []
        self.comms: Dict[int, List[int]] = {}
        # rank -> virtual clock immediately after that rank's previous
        # recorded event (0.0 before the first: processes start at 0).
        self._last: Dict[int, float] = {}
        # id(msg) -> send sequence number.  Never popped: a completed
        # request's wait() may legally run twice (re-applying the clock
        # update), and the strong refs in _msgs keep ids from recycling.
        self._msgseq: Dict[int, int] = {}
        self._msgs: List[object] = []
        self._seq = 0

    # -- helpers ---------------------------------------------------------

    def _mcat(self, category: str, recorded: bool) -> str:
        if not recorded:
            return ""
        if self.engine.pml._mode == 1 and category == "coll":
            return "p2p"
        return category

    # -- hook sites ------------------------------------------------------

    def on_send(self, proc, dst_world: int, nbytes: int, category: str,
                recorded: bool, t_pre: float, msg) -> None:
        r = proc.rank
        seq = self._seq
        self._seq = seq + 1
        self._msgseq[id(msg)] = seq
        self._msgs.append(msg)
        self.events.append(
            ("S", r, dst_world, int(nbytes), category,
             self._mcat(category, recorded), seq,
             t_pre, t_pre - self._last.get(r, 0.0)))
        self._last[r] = proc.clock

    def on_recv(self, proc, t_pre: float, msg) -> None:
        seq = self._msgseq.get(id(msg))
        if seq is None:  # pragma: no cover - message predates recording
            return
        r = proc.rank
        self.events.append(
            ("R", r, seq, t_pre, t_pre - self._last.get(r, 0.0)))
        self._last[r] = proc.clock

    def on_put(self, proc, target_world: int, nbytes: int,
               recorded: bool, t_pre: float) -> None:
        r = proc.rank
        self.events.append(
            ("P", r, target_world, int(nbytes),
             self._mcat("osc", recorded),
             t_pre, t_pre - self._last.get(r, 0.0)))
        self._last[r] = proc.clock

    def on_get(self, proc, target_world: int, nbytes: int,
               recorded: bool, t_pre: float) -> None:
        r = proc.rank
        self.events.append(
            ("G", r, target_world, int(nbytes),
             self._mcat("osc", recorded),
             t_pre, t_pre - self._last.get(r, 0.0)))
        self._last[r] = proc.clock

    def on_coll_begin(self, proc, comm, opname: str, alg, kwargs) -> None:
        cid = comm.id
        if cid not in self.comms:
            self.comms[cid] = list(comm.group)
        root = kwargs.get("root")
        nbytes = kwargs.get("nbytes")
        segments = kwargs.get("segments")
        self.events.append(
            ("B", proc.rank, cid, opname, alg or "",
             -1 if root is None else int(root),
             -1 if nbytes is None else int(nbytes),
             0 if segments is None else int(segments)))

    def on_coll_end(self, proc) -> None:
        self.events.append(("E", proc.rank))

    # -- finalization ----------------------------------------------------

    def run_finished(self, engine) -> None:
        """Finalize the trace; the engine only calls this on clean runs."""
        for proc in engine.procs:
            t = proc.clock
            self.events.append(
                ("F", proc.rank, t, t - self._last.get(proc.rank, 0.0)))
        trace = ReplayTrace(
            world_size=engine.n_ranks,
            topology=topology_to_json(engine.cluster.topology),
            binding=list(engine.cluster.binding),
            params=params_to_json(engine.cluster.params),
            seed=engine.seed,
            monitoring_overhead=engine.monitoring_overhead,
            comms=self.comms,
            clocks=[p.clock for p in engine.procs],
            events=self.events,
            meta=dict(self.meta),
        )
        autorecord._finished(trace)
