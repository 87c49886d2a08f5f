"""On-disk and in-memory format of a replayable event trace.

A :class:`ReplayTrace` is the one recorded form of a run, and the
post-mortem comparator of the paper's §2 (the EZtrace / DUMPI class of
tool: capture every message to a file, analyse offline).  Instead of
flat ``(time, src, dst, bytes)`` samples it stores the full PML-layer
event stream — sends with their matching receive sequence numbers,
one-sided puts/gets, collective begin/end markers (post-decomposition,
so the point-to-point pattern inside each collective is preserved) and
per-rank finish times — plus everything needed to rebuild the network
cost model exactly: topology, binding, link parameters, jitter seed,
monitoring overhead.

A trace is its columns.  Event tuples are only the spelling of its
``.events`` view, which builds each one from its row on access
(everything downstream reads the columns)::

    ("S", rank, dst, nbytes, cat, mcat, seq, t, gap)   point-to-point send
    ("R", rank, seq, t, gap)                           matching receive-wait
    ("P", rank, target, nbytes, mcat, t, gap)          one-sided put
    ("G", rank, target, nbytes, mcat, t, gap)          one-sided get
    ("B", rank, comm_id, op, alg, root, nbytes, segs)  collective begins
    ("E", rank)                                        collective ends
    ("F", rank, t, gap)                                rank finished

Each timed event carries *both* its absolute issue time ``t`` (used
when replaying the recorded configuration verbatim) and the
local-computation gap ``gap = t - clock_after_previous_event`` (used
when re-costing under a different placement, topology or collective
algorithm, where absolute times are no longer valid).  ``cat`` is the
raw wire category ("p2p"/"coll"/"osc"); ``mcat`` is the category the
monitoring layer actually charged ("" when the message was not
monitored, "p2p" for collectives under mode-1 counting, etc.), so a
replay reproduces the recorded monitored byte matrix bit-exactly.

File format (schema 2) — two text lines, then raw columns::

    # repro.replay trace schema=2
    # header {"schema":2,"world_size":48,...,"n_events":N,"columns":[...],"colls":[...]}
    <N float64 t><N float64 gap><N int64 nbytes><N int32 rank> ...

The header line is padded with spaces so the data section starts on an
8-byte boundary; the columns follow back to back, little-endian, each
exactly ``n_events`` long, in the order of :data:`COLUMN_LAYOUT`
(widest first, so every column is naturally aligned and the file can
be memory-mapped)::

    t       <f8  issue time          (S R P G F; raw IEEE-754 bits)
    gap     <f8  computation gap     (S R P G F; raw IEEE-754 bits)
    nbytes  <i8  message size        (S P G)
    rank    <i4  issuing rank        (every kind)
    peer    <i4  dst / target (S P G); index into header "colls" (B)
    seq     <i4  message sequence no (S R)
    kind    |u1  index into KINDS = S R F P G B E
    cat     |u1  index into CATS  = "" p2p coll osc   (S; always osc for P G)
    mcat    |u1  index into CATS                      (S P G)

Slots a kind does not use are zero.  ``t``/``gap`` are stored as the
raw float64 bits, so bit-exact identity replay needs no text
round-trip.  The few strings of a trace live in the header:
``"colls"`` lists every distinct ``[comm_id, op, alg, root, nbytes,
segs]`` signature of a ``B`` event, and the event's ``peer`` slot
indexes it.  The layout is fixed, so the file size is fully
determined by the header: anything else — a truncated or overlong
file, an unknown kind/category code, an index out of range — raises
:class:`TraceSchemaError`.

To look inside a file: ``ReplayTrace.load(path).columns()`` — the
numpy columns above, one row per event.  Only schema 2 is read: a
schema-1 (text) file is refused like any other unsupported schema.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Sequence
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.errors import TraceSchemaError
from repro.simmpi.pml_monitoring import CATEGORIES

SCHEMA_VERSION = 2
MAGIC = "# repro.replay trace"

#: Event kind codes.  The five timed kinds come first, in the order of
#: the compiled op stream's opcodes (see ``replay.engine``).
KINDS = ("S", "R", "F", "P", "G", "B", "E")
K_S, K_R, K_F, K_P, K_G, K_B, K_E = range(7)
#: Category codes, shared by ``cat`` and ``mcat``; 0 is "not monitored"
#: (the codes ``PmlMonitoring.record`` returns).
CATS = ("",) + CATEGORIES
#: On-disk column order and dtypes (widest first: natural alignment).
COLUMN_LAYOUT = (
    ("t", "<f8"), ("gap", "<f8"), ("nbytes", "<i8"),
    ("rank", "<i4"), ("peer", "<i4"), ("seq", "<i4"),
    ("kind", "|u1"), ("cat", "|u1"), ("mcat", "|u1"),
)
#: One event in layout order, packed (39 bytes); how many rows a
#: :class:`RowPacker` holds as python scalars before packing them.
ROW_DTYPE = np.dtype(list(COLUMN_LAYOUT))
PACK_ROWS = 32768
CAT_CODE = {c: i for i, c in enumerate(CATS)}
_OSC = CAT_CODE["osc"]

__all__ = [
    "SCHEMA_VERSION",
    "ReplayTrace",
    "TraceColumns",
    "params_to_json",
    "params_from_json",
    "topology_to_json",
    "topology_from_json",
    "build_cluster",
]


# ---------------------------------------------------------------------------
# simulator-object <-> JSON round-trips


def topology_to_json(topology) -> list:
    return [[name, int(arity)]
            for name, arity in zip(topology.level_names, topology.arities)]


def topology_from_json(spec) -> "Topology":
    from repro.simmpi.topology import Topology

    return Topology([(str(name), int(arity)) for name, arity in spec])


def params_to_json(params) -> dict:
    return {
        "links": {cls: [lp.latency, lp.bandwidth]
                  for cls, lp in params.links.items()},
        "send_overhead": params.send_overhead,
        "recv_overhead": params.recv_overhead,
        "nic_serialize": bool(params.nic_serialize),
        "mem_bandwidth": params.mem_bandwidth,
        "jitter": params.jitter,
        "lanes": int(params.lanes),
    }


def params_from_json(spec) -> "NetworkParams":
    from repro.simmpi.network import LinkParams, NetworkParams

    return NetworkParams(
        links={cls: LinkParams(latency=float(lat), bandwidth=float(bw))
               for cls, (lat, bw) in spec["links"].items()},
        send_overhead=float(spec["send_overhead"]),
        recv_overhead=float(spec["recv_overhead"]),
        nic_serialize=bool(spec["nic_serialize"]),
        mem_bandwidth=(None if spec["mem_bandwidth"] is None
                       else float(spec["mem_bandwidth"])),
        jitter=float(spec["jitter"]),
        lanes=int(spec["lanes"]),
    )


def build_cluster(trace: "ReplayTrace", binding: Optional[List[int]] = None):
    """Rebuild the recorded Cluster, optionally under a new binding."""
    from repro.simmpi.cluster import Cluster

    return Cluster(
        topology_from_json(trace.topology),
        trace.world_size,
        binding=list(trace.binding if binding is None else binding),
        params=params_from_json(trace.params),
        seed=trace.seed,
    )


# ---------------------------------------------------------------------------
# the columnar event store


class TraceColumns(NamedTuple):
    """The event stream as equal-length numpy columns (see the module
    docstring for what each slot means per kind) plus the table of
    distinct collective signatures ``B`` events index."""

    t: np.ndarray
    gap: np.ndarray
    nbytes: np.ndarray
    rank: np.ndarray
    peer: np.ndarray
    seq: np.ndarray
    kind: np.ndarray
    cat: np.ndarray
    mcat: np.ndarray
    colls: List[tuple]   # (comm_id, op, alg, root, nbytes, segs)

    def footprint(self) -> int:
        """Resident bytes of the columns (exact: numpy buffers)."""
        return sum(int(col.nbytes) for col in self[:len(COLUMN_LAYOUT)])


class RowPacker:
    """Event rows, flat: writers extend ``rows`` by each row's fields
    (layout order, kind and categories as codes) and :meth:`pack` every
    :data:`PACK_ROWS` rows; ``colls`` interns ``B`` signatures."""

    def __init__(self):
        self.rows, self.packs, self.colls = [], [], {}

    def pack(self) -> None:
        rows, width = self.rows, len(COLUMN_LAYOUT)
        self.packs.append([np.array(rows[i::width], dtype)
                           for i, (_, dtype) in enumerate(COLUMN_LAYOUT)])
        rows.clear()

    def columns(self) -> TraceColumns:
        self.pack()
        packs, self.packs = self.packs, []
        return TraceColumns(colls=list(self.colls), **{
            name: np.concatenate([p[i] for p in packs])
            for i, (name, _) in enumerate(COLUMN_LAYOUT)})


def _decode(row: tuple, colls: List[tuple]) -> tuple:
    """A row (python scalars, layout order) as its event tuple."""
    t, gap, nbytes, r, peer, seq, k, cat, mcat = row
    if k == K_S:
        return ("S", r, peer, nbytes, CATS[cat], CATS[mcat], seq, t, gap)
    if k == K_R:
        return ("R", r, seq, t, gap)
    if k == K_F:
        return ("F", r, t, gap)
    if k == K_B:
        return ("B", r) + colls[peer]
    if k == K_E:
        return ("E", r)
    return (KINDS[k], r, peer, nbytes, CATS[mcat], t, gap)


class EventTuples(Sequence):
    """A trace's events as tuples, each built from its row on access:
    read-only, ``len`` is O(1), nothing is kept."""

    def __init__(self, columns: TraceColumns):
        self._cols = columns

    def __len__(self) -> int:
        return len(self._cols.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        c = self._cols                  # c[:-1]: the columns, not colls
        return _decode(tuple(col.item(i) for col in c[:-1]), c.colls)

    def __iter__(self):
        c = self._cols
        for lo in range(0, len(self), PACK_ROWS):
            rows = zip(*(col[lo:lo + PACK_ROWS].tolist() for col in c[:-1]))
            yield from (_decode(row, c.colls) for row in rows)


def _check_header(trace: "ReplayTrace", path: str) -> None:
    """Reject a header whose per-rank lists disagree with its own world
    size: a clock short changes the recorded makespan every answer is
    measured against, a binding short fails every replay after a clean
    load, and an empty world has no makespan at all.  A binding must
    also be a placement a run can have, one distinct PU of the topology
    per rank: an exact replay reads the recording without building a
    network, so nothing after the load would check it."""
    if trace.world_size < 1:
        raise TraceSchemaError(
            f"{path}: corrupt trace — world_size {trace.world_size}")
    for what, have in (("clocks", trace.clocks), ("binding", trace.binding)):
        if len(have) != trace.world_size:
            raise TraceSchemaError(
                f"{path}: corrupt trace — header has {len(have)} {what} "
                f"entries for world_size {trace.world_size}")
    pus = trace.binding
    n_pus = topology_from_json(trace.topology).n_pus
    if len(set(pus)) < len(pus) or not all(0 <= pu < n_pus for pu in pus):
        raise TraceSchemaError(
            f"{path}: corrupt trace — the binding is not one distinct PU "
            f"of the topology's [0, {n_pus}) per rank")


def _check_columns(c: TraceColumns, clocks: List[float], path: str) -> None:
    """Reject column values no recorder writes — a replay would turn
    them into wrong answers (numpy wraps negative indices silently, a
    NaN passes every `>`, gaps summing past the float range overflow,
    a header clock other than its rank's finish is a second makespan)."""
    def bad(what: str) -> TraceSchemaError:
        return TraceSchemaError(f"{path}: corrupt trace — {what}")

    n, world_size = len(c.kind), len(clocks)
    if n == 0:
        return
    with np.errstate(over="ignore"):
        if not (np.isfinite(c.t).all() and np.isfinite(np.abs(c.gap).sum())):
            raise bad("non-finite t or gap, or gaps past the float range")
    if int(c.kind.max()) >= len(KINDS):
        raise bad(f"unknown event kind code {int(c.kind.max())}")
    if max(int(c.cat.max()), int(c.mcat.max())) >= len(CATS):
        raise bad("unknown message category code")
    if int(c.rank.min()) < 0 or int(c.rank.max()) >= world_size:
        raise bad(f"rank outside [0, {world_size})")
    kind = c.kind
    msg = (kind == K_S) | (kind == K_P) | (kind == K_G)
    peer = c.peer[msg]
    if len(peer) and (int(peer.min()) < 0 or int(peer.max()) >= world_size):
        raise bad(f"message peer outside [0, {world_size})")
    if len(peer) and int(c.nbytes[msg].min()) < 0:
        raise bad("negative message size")
    if np.any(c.cat[kind == K_S] == 0) or \
            np.any(c.cat[(kind == K_P) | (kind == K_G)] != _OSC):
        raise bad("message with an invalid wire category")
    if int(c.seq.min()) < 0 or int(c.seq.max()) >= n:
        raise bad("message sequence number out of range")
    coll = c.peer[kind == K_B]
    if len(coll) and (int(coll.min()) < 0
                      or int(coll.max()) >= len(c.colls)):
        raise bad("collective signature index out of range")
    fin = kind == K_F
    if np.any(c.t[fin].view(np.int64)
              != np.asarray(clocks)[c.rank[fin]].view(np.int64)):
        raise bad("a finish whose t is not its rank's header clock")


# ---------------------------------------------------------------------------
# the trace object


class ReplayTrace:
    """Header + event stream of one recorded run.

    The event stream is numpy columns (:meth:`columns`): the stored
    form and the one every consumer reads; ``events`` is a view of
    them.  A trace is read-only once built (the compile cache would not
    see a mutation).
    """

    def __init__(
        self,
        world_size: int,
        topology: list,                # [[level_name, arity], ...]
        binding: List[int],            # recorded rank -> PU map
        params: dict,                  # params_to_json() form
        seed: int,                     # engine/network jitter seed
        monitoring_overhead: float,
        comms: Dict[int, List[int]],   # comm_id -> world ranks (group order)
        clocks: List[float],           # final per-rank virtual clocks
        columns: TraceColumns,
        meta: Optional[dict] = None,
    ):
        self.world_size = world_size
        self.topology = topology
        self.binding = binding
        self.params = params
        self.seed = seed
        self.monitoring_overhead = monitoring_overhead
        self.comms = comms
        self.clocks = clocks
        self.meta = {} if meta is None else meta
        self._columns = columns
        self._compiled = None          # replay.engine's compile cache
        self._program = None           # ... and its ready-set program order

    # -- the event stream ------------------------------------------------

    @property
    def events(self) -> EventTuples:
        """The events as tuples, built from the columns on access."""
        return EventTuples(self._columns)

    def _with_columns(self, columns: TraceColumns) -> "ReplayTrace":
        """This trace's header over another event stream."""
        other = copy.copy(self)
        other._columns, other._compiled, other._program = columns, None, None
        return other

    @property
    def n_events(self) -> int:
        return len(self._columns.kind)

    def columns(self) -> TraceColumns:
        return self._columns

    def program(self):
        """``(order, cut)``, not cached: the stable argsort by rank, and
        rank ``r``'s rows in recorded order at ``order[cut[r]:cut[r + 1]]``."""
        rank = self._columns.rank
        return np.argsort(rank, kind="stable"), np.cumsum(
            np.r_[0, np.bincount(rank, minlength=self.world_size)])

    # -- header ---------------------------------------------------------

    def header(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "world_size": int(self.world_size),
            "topology": self.topology,
            "binding": [int(b) for b in self.binding],
            "params": self.params,
            "seed": int(self.seed),
            "monitoring_overhead": self.monitoring_overhead,
            "comms": {str(k): [int(r) for r in v]
                      for k, v in self.comms.items()},
            "clocks": [float(c).hex() for c in self.clocks],
            "n_events": self.n_events,
            "meta": self.meta,
        }

    # -- serialization --------------------------------------------------

    def dump(self, path: str) -> None:
        cols = self.columns()
        hdr = self.header()
        hdr["columns"] = [list(c) for c in COLUMN_LAYOUT]
        hdr["colls"] = [list(sig) for sig in cols.colls]
        head = (f"{MAGIC} schema={SCHEMA_VERSION}\n# header "
                + json.dumps(hdr, separators=(",", ":"))).encode("ascii")
        pad = -(len(head) + 1) % 8     # data section on an 8-byte boundary
        with open(path, "wb") as fh:
            fh.write(head + b" " * pad + b"\n")
            for name, dt in COLUMN_LAYOUT:
                fh.write(np.ascontiguousarray(getattr(cols, name),
                                              dtype=dt).data)

    @classmethod
    def load(cls, path: str) -> "ReplayTrace":
        with open(path, "rb") as fh:
            raw = fh.read()
        end1 = raw.find(b"\n")
        first = raw[:max(end1, 0)].decode("ascii", "replace")
        if not first.startswith(MAGIC):
            raise TraceSchemaError(
                f"{path}: not a repro.replay trace "
                f"(expected leading {MAGIC!r} line)")
        schema = _parse_schema_token(first, path)
        if schema != SCHEMA_VERSION:
            raise TraceSchemaError(
                f"{path}: trace schema {schema} is not supported "
                f"(this build reads schema {SCHEMA_VERSION} only)")
        end2 = raw.find(b"\n", end1 + 1)
        if end2 < 0 or not raw.startswith(b"# header ", end1 + 1):
            raise TraceSchemaError(
                f"{path}: missing or truncated '# header' line")
        try:
            hdr = json.loads(raw[end1 + 1 + len(b"# header "):end2])
            trace = cls(
                world_size=int(hdr["world_size"]),
                topology=hdr["topology"],
                binding=[int(b) for b in hdr["binding"]],
                params=hdr["params"],
                seed=int(hdr["seed"]),
                monitoring_overhead=float(hdr["monitoring_overhead"]),
                comms={int(k): [int(r) for r in v]
                       for k, v in hdr["comms"].items()},
                clocks=[float.fromhex(c) for c in hdr["clocks"]],
                columns=_parse_columns(raw, end2 + 1, hdr, path),
                meta=hdr.get("meta", {}),
            )
        except TraceSchemaError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TraceSchemaError(
                f"{path}: malformed trace header "
                f"({type(exc).__name__}: {exc})") from exc
        _check_header(trace, path)
        _check_columns(trace._columns, trace.clocks, path)
        return trace

    # -- convenience ----------------------------------------------------

    def byte_matrix(self, monitored_only: bool = False):
        """Per-pair byte totals as a dense (n, n) uint64 matrix.

        With ``monitored_only`` the matrix only counts events the
        monitoring layer recorded, split no further by category — the
        aggregate the placement stack consumes.  Summed from the
        compile cache (:func:`repro.replay.engine.trace_byte_matrix`).
        """
        from repro.replay.engine import trace_byte_matrix

        return trace_byte_matrix(self, monitored_only)


# ---------------------------------------------------------------------------
# the raw column section


def _parse_columns(raw: bytes, offset: int, hdr: dict,
                   path: str) -> TraceColumns:
    n_events = int(hdr["n_events"])
    if hdr["columns"] != [list(c) for c in COLUMN_LAYOUT]:
        raise TraceSchemaError(
            f"{path}: unknown column layout {hdr['columns']!r}")
    have, want = len(raw) - offset, n_events * ROW_DTYPE.itemsize
    if n_events < 0 or have != want:
        raise TraceSchemaError(
            f"{path}: truncated or overlong trace — header promises "
            f"{n_events} events ({want} column bytes), found {have}")
    cols = {}
    for name, dt in COLUMN_LAYOUT:
        cols[name] = np.frombuffer(raw, dtype=dt, count=n_events,
                                   offset=offset)
        offset += cols[name].nbytes
    colls = [(int(cid), str(op), str(alg), int(root), int(nb), int(segs))
             for cid, op, alg, root, nb, segs in hdr["colls"]]
    return TraceColumns(colls=colls, **cols)


def _parse_schema_token(line: str, path: str) -> int:
    for token in line.split():
        if token.startswith("schema="):
            try:
                return int(token[len("schema="):])
            except ValueError:
                raise TraceSchemaError(
                    f"{path}: bad schema token {token!r}") from None
    raise TraceSchemaError(f"{path}: magic line lacks a schema= token")
