"""On-disk and in-memory format of a replayable event trace.

A :class:`ReplayTrace` is the dependency-carrying extension of
:class:`repro.simmpi.trace.MessageTracer`: instead of flat
``(time, src, dst, bytes)`` samples it stores the full PML-layer event
stream of a run — sends with their matching receive sequence numbers,
one-sided puts/gets, collective begin/end markers (post-decomposition,
so the point-to-point pattern inside each collective is preserved) and
per-rank finish times — plus everything needed to rebuild the network
cost model exactly: topology, binding, link parameters, jitter seed,
monitoring overhead.

File format (schema 1)::

    # repro.replay trace schema=1
    # header {"schema": 1, "world_size": 48, ...}
    S 0 13 65536 coll p2p 17 0x1.9p-10 0x0p+0
    R 13 17 0x1.ap-10 0x0p+0
    ...

Times are stored as ``float.hex`` so replay on the identity placement
is bit-exact.  Each timed event carries *both* its absolute issue time
``t`` (used when replaying the recorded configuration verbatim) and the
local-computation gap ``gap = t - clock_after_previous_event`` (used
when re-costing under a different placement, topology or collective
algorithm, where absolute times are no longer valid).

Event tuples (in-memory)::

    ("S", rank, dst, nbytes, cat, mcat, seq, t, gap)   point-to-point send
    ("R", rank, seq, t, gap)                           matching receive-wait
    ("P", rank, target, nbytes, mcat, t, gap)          one-sided put
    ("G", rank, target, nbytes, mcat, t, gap)          one-sided get
    ("B", rank, comm_id, op, alg, root, nbytes, segs)  collective begins
    ("E", rank)                                        collective ends
    ("F", rank, t, gap)                                rank finished

``cat`` is the raw wire category ("p2p"/"coll"/"osc"); ``mcat`` is the
category the monitoring layer actually charged ("" when the message was
not monitored, "p2p" for collectives under mode-1 counting, etc.), so a
replay reproduces the recorded monitored byte matrix bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import TraceSchemaError

SCHEMA_VERSION = 1
MAGIC = "# repro.replay trace"

__all__ = [
    "SCHEMA_VERSION",
    "ReplayTrace",
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
# the trace object


@dataclass
class ReplayTrace:
    world_size: int
    topology: list                 # [[level_name, arity], ...]
    binding: List[int]             # recorded rank -> PU map
    params: dict                   # params_to_json() form
    seed: int                      # engine/network jitter seed
    monitoring_overhead: float
    comms: Dict[int, List[int]]    # comm_id -> world ranks (group order)
    clocks: List[float]            # final per-rank virtual clocks
    events: List[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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
            # Schema 1 readers expect this key; the engine has one
            # scheduling policy, so it is a constant.
            "handoff": "exact",
            "comms": {str(k): [int(r) for r in v]
                      for k, v in self.comms.items()},
            "clocks": [float(c).hex() for c in self.clocks],
            "n_events": len(self.events),
            "meta": self.meta,
        }

    # -- serialization --------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{MAGIC} schema={SCHEMA_VERSION}\n")
            fh.write("# header "
                     + json.dumps(self.header(), separators=(",", ":"))
                     + "\n")
            w = fh.write
            for ev in self.events:
                w(_format_event(ev))

    @classmethod
    def load(cls, path: str) -> "ReplayTrace":
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith(MAGIC):
                raise TraceSchemaError(
                    f"{path}: not a repro.replay trace "
                    f"(expected leading {MAGIC!r} line)")
            schema = _parse_schema_token(first, path)
            if schema != SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"{path}: trace schema {schema} is not supported "
                    f"(this build reads schema {SCHEMA_VERSION})")
            second = fh.readline()
            if not second.startswith("# header "):
                raise TraceSchemaError(f"{path}: missing '# header' line")
            hdr = json.loads(second[len("# header "):])
            events = [_parse_event(line, path, lineno)
                      for lineno, line in enumerate(fh, start=3)
                      if line.strip() and not line.startswith("#")]
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
            events=events,
            meta=hdr.get("meta", {}),
        )
        if trace.header()["n_events"] != hdr["n_events"]:
            raise TraceSchemaError(
                f"{path}: truncated trace — header promises "
                f"{hdr['n_events']} events, found {len(events)}")
        return trace

    # -- convenience ----------------------------------------------------

    def byte_matrix(self, monitored_only: bool = False):
        """Per-pair byte totals as a dense (n, n) uint64 matrix.

        With ``monitored_only`` the matrix only counts events the
        monitoring layer recorded, split no further by category — the
        aggregate the placement stack consumes.
        """
        import numpy as np

        n = self.world_size
        mat = np.zeros((n, n), dtype=np.uint64)
        for ev in self.events:
            kind = ev[0]
            if kind == "S" or kind == "P":
                rank, dst, nbytes = ev[1], ev[2], ev[3]
                mcat = ev[5] if kind == "S" else ev[4]
                if monitored_only and not mcat:
                    continue
                mat[rank, dst] += np.uint64(nbytes)
            elif kind == "G":
                rank, target, nbytes, mcat = ev[1], ev[2], ev[3], ev[4]
                if monitored_only and not mcat:
                    continue
                # gets move bytes target -> origin, as monitored
                mat[target, rank] += np.uint64(nbytes)
        return mat


# ---------------------------------------------------------------------------
# event line round-trip


def _opt(s: str) -> str:
    return s if s else "-"


def _unopt(s: str) -> str:
    return "" if s == "-" else s


def _format_event(ev: tuple) -> str:
    kind = ev[0]
    if kind == "S":
        _, rank, dst, nbytes, cat, mcat, seq, t, gap = ev
        return (f"S {rank} {dst} {nbytes} {cat} {_opt(mcat)} {seq} "
                f"{t.hex()} {gap.hex()}\n")
    if kind == "R":
        _, rank, seq, t, gap = ev
        return f"R {rank} {seq} {t.hex()} {gap.hex()}\n"
    if kind == "P" or kind == "G":
        _, rank, peer, nbytes, mcat, t, gap = ev
        return (f"{kind} {rank} {peer} {nbytes} {_opt(mcat)} "
                f"{t.hex()} {gap.hex()}\n")
    if kind == "B":
        _, rank, comm_id, op, alg, root, nbytes, segs = ev
        return (f"B {rank} {comm_id} {op} {_opt(alg)} {root} "
                f"{nbytes} {segs}\n")
    if kind == "E":
        return f"E {ev[1]}\n"
    if kind == "F":
        _, rank, t, gap = ev
        return f"F {rank} {t.hex()} {gap.hex()}\n"
    raise ValueError(f"unknown event kind {kind!r}")


def _parse_event(line: str, path: str, lineno: int) -> tuple:
    parts = line.split()
    kind = parts[0]
    try:
        if kind == "S":
            return ("S", int(parts[1]), int(parts[2]), int(parts[3]),
                    parts[4], _unopt(parts[5]), int(parts[6]),
                    float.fromhex(parts[7]), float.fromhex(parts[8]))
        if kind == "R":
            return ("R", int(parts[1]), int(parts[2]),
                    float.fromhex(parts[3]), float.fromhex(parts[4]))
        if kind == "P" or kind == "G":
            return (kind, int(parts[1]), int(parts[2]), int(parts[3]),
                    _unopt(parts[4]),
                    float.fromhex(parts[5]), float.fromhex(parts[6]))
        if kind == "B":
            return ("B", int(parts[1]), int(parts[2]), parts[3],
                    _unopt(parts[4]), int(parts[5]), int(parts[6]),
                    int(parts[7]))
        if kind == "E":
            return ("E", int(parts[1]))
        if kind == "F":
            return ("F", int(parts[1]),
                    float.fromhex(parts[2]), float.fromhex(parts[3]))
    except (IndexError, ValueError) as exc:
        raise TraceSchemaError(
            f"{path}:{lineno}: malformed {kind!r} event: {line!r}") from exc
    raise TraceSchemaError(
        f"{path}:{lineno}: unknown event kind {kind!r}")


def _parse_schema_token(line: str, path: str) -> int:
    for token in line.split():
        if token.startswith("schema="):
            try:
                return int(token[len("schema="):])
            except ValueError:
                raise TraceSchemaError(
                    f"{path}: bad schema token {token!r}") from None
    raise TraceSchemaError(f"{path}: magic line lacks a schema= token")
