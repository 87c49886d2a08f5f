"""The low-level monitoring component (the paper's [3], Euro-Par 2017).

This is the simulated counterpart of Open MPI's ``pml_monitoring``
component: it sits at the single choke point every point-to-point
message passes through — *after* collectives have been decomposed —
and maintains, for every process, per-peer message counts and byte
totals, split into three categories:

* ``p2p`` — user-issued (external) point-to-point messages,
* ``coll`` — library-issued (internal) messages produced by the
  decomposition of collective operations,
* ``osc`` — one-sided communication.

The activation knob mirrors ``--mca pml_monitoring_enable value``:

* ``0`` — monitoring (and the component) disabled;
* ``1`` — enabled, *without* distinction between user-issued and
  library-issued messages (everything lands in the p2p matrices);
* ``>= 2`` — enabled with the internal/external distinction.

Hot-path design: :meth:`record` is called once per simulated message —
millions of times per experiment — so it must not touch numpy.  Records
accumulate as plain Python ints in per-category dicts and are flushed
into the numpy matrices only when somebody *reads* them (a pvar read, a
session snapshot, ``totals``).  Each category also carries a
monotonically increasing *epoch* so snapshot/diff layers can skip
categories that have not changed since they last looked
(:meth:`epoch`).  :meth:`record_batch` folds ``count`` same-peer
messages into one accumulator update; segmented collectives use it for
their regular per-peer decompositions.

The matrices are exposed through MPI_T performance variables
(:mod:`repro.simmpi.mpit`); the high-level library never touches this
class directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.simmpi.mpit import MpiToolInterface

__all__ = ["PmlMonitoring", "PeerBatch", "CATEGORIES", "PVAR_NAMES"]

CATEGORIES: Tuple[str, ...] = ("p2p", "coll", "osc")


class PeerBatch:
    """Accumulator for one collective's sends to one peer.

    Segmented/pipelined collectives with a regular per-peer
    decomposition open a batch, tag every segment send with it, and
    close it when the decomposition is done.  Each send is still
    *gated individually* when it materializes — against the monitoring
    mode at that moment in the global order, exactly like an
    individually recorded send (a session can open or close between
    two segments of the same batch) — but the gated tallies fold into
    the pending accumulators in one update at close instead of one per
    segment.

    ``tallies`` is ``[count, bytes]`` recorded under the batch's own
    category followed by ``[count, bytes]`` recorded while mode 1
    remapped collective-internal traffic to ``p2p``.
    """

    __slots__ = ("src", "dst", "category", "tallies")

    def __init__(self, src: int, dst: int, category: str):
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        self.src = src
        self.dst = dst
        self.category = category
        self.tallies = [0, 0, 0, 0]

#: MPI_T pvar names per category, mirroring the Open MPI component.
PVAR_NAMES: Dict[str, Tuple[str, str]] = {
    "p2p": ("pml_monitoring_messages_count", "pml_monitoring_messages_size"),
    "coll": ("coll_monitoring_messages_count", "coll_monitoring_messages_size"),
    "osc": ("osc_monitoring_messages_count", "osc_monitoring_messages_size"),
}


class _LazyMatrices(dict):
    """Per-category (n, n) matrices, allocated on first touch.

    A 10k-rank world would pay ~800 MB up front for six eagerly zeroed
    uint64 matrices even when monitoring never records a byte; most
    runs touch one or two categories.  A zeros matrix materialized on
    first read is observationally identical to one allocated at
    construction, so nothing downstream can tell the difference.
    """

    __slots__ = ("_n",)

    def __init__(self, world_size: int):
        super().__init__()
        self._n = world_size

    def __missing__(self, category: str) -> np.ndarray:
        if category not in CATEGORIES:
            raise KeyError(category)
        matrix = np.zeros((self._n, self._n), dtype=np.uint64)
        self[category] = matrix
        return matrix


class _FlushingMatrices:
    """Mapping view over the per-category matrices that flushes the
    pending accumulators for a category before handing out its array.

    Iteration covers every category, touched or not — the view hides
    the laziness of the backing store."""

    __slots__ = ("_pml", "_arrays")

    def __init__(self, pml: "PmlMonitoring", arrays: Dict[str, np.ndarray]):
        self._pml = pml
        self._arrays = arrays

    def __getitem__(self, category: str) -> np.ndarray:
        self._pml._flush(category)
        return self._arrays[category]

    def __iter__(self):
        return iter(CATEGORIES)

    def __len__(self) -> int:
        return len(CATEGORIES)

    def keys(self):
        return CATEGORIES

    def items(self):
        for cat in CATEGORIES:
            yield cat, self[cat]


class PmlMonitoring:
    """Per-process, per-peer communication counters."""

    def __init__(self, world_size: int, mpit: Optional[MpiToolInterface] = None):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self._mode = 0
        # counts[cat][i, j] = messages process i sent to process j;
        # sizes[cat][i, j] = bytes.  Row i is process i's local state —
        # the simulator simply co-locates all rows in one array.  The
        # matrices are allocated per category on first touch.
        self._counts: Dict[str, np.ndarray] = _LazyMatrices(world_size)
        self._sizes: Dict[str, np.ndarray] = _LazyMatrices(world_size)
        # Pending accumulators: (src, dst) -> [count, bytes] as plain
        # ints; flushed into the numpy matrices on read.
        self._pend: Dict[str, Dict[Tuple[int, int], list]] = {
            c: {} for c in CATEGORIES
        }
        # Per-category write epoch (bumped on every record, flushed or
        # not); snapshot layers compare epochs to skip unchanged data.
        self._epochs: Dict[str, int] = {c: 0 for c in CATEGORIES}
        # Optional per-message tap (repro.obs.hooks chains its link
        # accounting here): a callable ``(t, src, dst, nbytes,
        # category, count)`` invoked for every record, *before* the
        # mode gate — it sees messages even while monitoring is
        # disabled.
        self.trace_hook: Optional[Callable] = None
        # Installed by the engine: brings the calling rank's deferred
        # send up to date before the monitoring state is read or the
        # mode changed, so both happen at the same point in the global
        # order as with non-deferred sends.
        self.sync: Optional[Callable[[], None]] = None
        # Set by repro.obs.hooks.EngineObserver: a histogram observing
        # the segment count of every closed PeerBatch.  Stays None on
        # uninstrumented engines (close_batch checks once per batch,
        # not per message).
        self._obs_batch_hist = None
        if mpit is not None:
            self.register(mpit)

    # -- pickling ----------------------------------------------------------

    # The runtime taps are rebound by whoever thaws the object (the
    # engine's ``__setstate__`` re-installs ``sync``; the obs hook and
    # histogram re-attach themselves): only the counter state
    # itself travels.
    _EPHEMERAL = ("trace_hook", "sync", "_obs_batch_hist")

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._EPHEMERAL:
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.trace_hook = None
        self.sync = None
        self._obs_batch_hist = None

    # -- MPI_T surface ----------------------------------------------------

    def register(self, mpit: MpiToolInterface) -> None:
        """Expose the enable cvar and the count/size pvars."""
        mpit.register_cvar(
            "pml_monitoring_enable",
            getter=lambda: self._mode,
            setter=self.set_mode,
            doc="0: disabled; 1: no internal/external distinction; >=2: distinguish",
        )
        for cat in CATEGORIES:
            cname, sname = PVAR_NAMES[cat]
            version = self._make_version(cat)
            mpit.register_pvar(
                cname,
                reader=self._make_reader(cat, self._counts),
                doc=f"per-peer sent message counts ({cat})",
                version=version,
            )
            mpit.register_pvar(
                sname,
                reader=self._make_reader(cat, self._sizes),
                doc=f"per-peer sent bytes ({cat})",
                version=version,
            )

    def _make_reader(self, category: str, arrays: Dict[str, np.ndarray]):
        # Fetch the matrix inside the reader, not at registration:
        # registering the pvars must not materialize six (n, n)
        # matrices on a world that may never monitor anything.
        def reader(rank: int) -> np.ndarray:
            self._flush(category)
            return arrays[category][rank]

        return reader

    def _make_version(self, category: str):
        def version() -> int:
            if self.sync is not None:
                self.sync()
            return self._epochs[category]

        return version

    # -- mode --------------------------------------------------------------

    @property
    def mode(self) -> int:
        return self._mode

    def set_mode(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError("pml_monitoring_enable must be >= 0")
        if value != self._mode and self.sync is not None:
            self.sync()
        self._mode = value

    @property
    def enabled(self) -> bool:
        return self._mode >= 1

    @property
    def distinguishes_internal(self) -> bool:
        return self._mode >= 2

    # -- the hook -------------------------------------------------------------

    def record(self, src: int, dst: int, nbytes: int, category: str,
               t: Optional[float] = None) -> bool:
        """Record one sent message; returns True iff it was recorded.

        Called by the engine's send materialization for *every*
        message, including the zero-length ones some collectives
        generate (the count still increments — the paper warns users
        about exactly those).  ``t`` is the sender's virtual clock at
        the send, forwarded to the trace hook (deferred sends are
        materialized by whichever rank holds the baton, so the hook
        cannot derive it from the calling thread).

        Semantically ``record_batch(src, dst, 1, nbytes, category)``,
        but flattened: this is the per-message hot path and saves the
        two extra call frames.  The category check stays unconditional
        (it must fire even while monitoring is disabled).
        """
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        if nbytes < 0:
            raise ValueError("count and total_bytes must be >= 0")
        hook = self.trace_hook
        if hook is not None:
            hook(t, src, dst, nbytes, category, 1)
        mode = self._mode
        if mode == 0:
            return False
        if mode == 1 and category == "coll":
            category = "p2p"
        pend = self._pend[category]
        entry = pend.get((src, dst))
        if entry is None:
            pend[(src, dst)] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes
        self._epochs[category] += 1
        return True

    def record_batch(self, src: int, dst: int, count: int, total_bytes: int,
                     category: str, t: Optional[float] = None) -> bool:
        """Record ``count`` messages totalling ``total_bytes`` to one peer.

        Equivalent to ``count`` individual :meth:`record` calls for the
        matrices and totals; the trace hook sees one event carrying the
        multiplicity.  Returns True iff the messages were recorded.
        """
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        if count < 0 or total_bytes < 0:
            raise ValueError("count and total_bytes must be >= 0")
        if self.trace_hook is not None:
            self.trace_hook(t, src, dst, total_bytes, category, count)
        if self._mode == 0 or count == 0:
            return False
        if self._mode == 1 and category == "coll":
            # No internal/external distinction: collective-internal
            # traffic is indistinguishable from user point-to-point.
            category = "p2p"
        self._accumulate(src, dst, count, total_bytes, category)
        return True

    def note_batched(self, batch: PeerBatch, nbytes: int,
                     t: Optional[float] = None) -> bool:
        """Gate one batched send at its materialization point.

        Same observable behaviour as :meth:`record` — trace hook, mode
        gate, and mode-1 remapping all evaluated *now* — except that
        the tallies land in the batch instead of the accumulator dicts.
        Returns True iff the message was recorded (the engine charges
        the monitoring overhead on that)."""
        hook = self.trace_hook
        if hook is not None:
            hook(t, batch.src, batch.dst, nbytes, batch.category, 1)
        mode = self._mode
        if mode == 0:
            return False
        tl = batch.tallies
        if mode == 1 and batch.category == "coll":
            tl[2] += 1
            tl[3] += nbytes
        else:
            tl[0] += 1
            tl[1] += nbytes
        return True

    def close_batch(self, batch: PeerBatch) -> None:
        """Fold a finished batch into the pending accumulators.

        Settles the caller's own deferred send first so the batch's
        last segment has materialized (and been gated) before its
        tallies are read."""
        if self.sync is not None:
            self.sync()
        n_cat, b_cat, n_p2p, b_p2p = batch.tallies
        h = self._obs_batch_hist
        if h is not None:
            h.observe(n_cat + n_p2p)
        if n_cat:
            self._accumulate(batch.src, batch.dst, n_cat, b_cat, batch.category)
        if n_p2p:
            self._accumulate(batch.src, batch.dst, n_p2p, b_p2p, "p2p")
        batch.tallies = [0, 0, 0, 0]

    def _accumulate(self, src: int, dst: int, count: int, total_bytes: int,
                    category: str) -> None:
        """Fold already-gated records into the pending accumulators.

        The category must already be resolved (mode-1 remapping done);
        no trace hook, no validation — this is the tail of
        :meth:`record_batch` and the flush target of
        :class:`PeerBatch`."""
        pend = self._pend[category]
        entry = pend.get((src, dst))
        if entry is None:
            pend[(src, dst)] = [count, total_bytes]
        else:
            entry[0] += count
            entry[1] += total_bytes
        self._epochs[category] += 1

    # -- reading (flushes the accumulators) ---------------------------------

    def _flush(self, category: str) -> None:
        if self.sync is not None:
            self.sync()
        pend = self._pend[category]
        if not pend:
            return
        counts = self._counts[category]
        sizes = self._sizes[category]
        for (src, dst), (n, nbytes) in pend.items():
            counts[src, dst] += np.uint64(n)
            sizes[src, dst] += np.uint64(nbytes)
        pend.clear()

    @property
    def counts(self) -> _FlushingMatrices:
        """Per-category count matrices (reads flush pending records)."""
        return _FlushingMatrices(self, self._counts)

    @property
    def sizes(self) -> _FlushingMatrices:
        """Per-category byte matrices (reads flush pending records)."""
        return _FlushingMatrices(self, self._sizes)

    def epoch(self, category: str) -> int:
        """Monotonic write counter for one category.

        Snapshot layers (``core/session.py``) remember the epoch at
        snapshot time and skip diffing categories whose epoch has not
        moved — the common case for ``osc`` (and ``coll`` under
        ``COLL_ONLY``-style filters) in point-to-point phases.
        """
        return self._epochs[category]

    # -- maintenance -----------------------------------------------------------

    def reset(self) -> None:
        """Zero all matrices (used by tests; sessions never need this)."""
        for cat in CATEGORIES:
            self._pend[cat].clear()
            counts = self._counts.get(cat)
            if counts is not None:
                counts[:] = 0
            sizes = self._sizes.get(cat)
            if sizes is not None:
                sizes[:] = 0
            self._epochs[cat] += 1

    def totals(self, category: str) -> Tuple[int, int]:
        """(messages, bytes) recorded in one category, all processes."""
        if category not in CATEGORIES:
            raise KeyError(category)
        self._flush(category)
        counts = self._counts.get(category)
        if counts is None:
            # Never touched: summing would only materialize zeros.
            return (0, 0)
        return (
            int(counts.sum()),
            int(self._sizes[category].sum()),
        )

    def snapshot_state(self) -> Dict[str, Dict[str, int]]:
        """Per-category ``{"epoch", "messages", "bytes"}`` — the shape
        cross-layer consumers (:mod:`repro.obs.timeline`) ingest.

        Flushes pending batches (via :meth:`totals`), so it is only
        safe once the run has drained — the same contract as reading
        the matrices.
        """
        out: Dict[str, Dict[str, int]] = {}
        for cat in CATEGORIES:
            n_msg, n_bytes = self.totals(cat)
            out[cat] = {
                "epoch": self._epochs[cat],
                "messages": n_msg,
                "bytes": n_bytes,
            }
        return out
