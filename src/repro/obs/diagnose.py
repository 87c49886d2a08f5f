"""Automated "why is this slow" diagnosis over a cross-layer timeline.

Four detector passes consume a :class:`repro.obs.timeline.Timeline`
and emit structured findings:

``congested_links``
    Per-link-class bytes·latency scores compared against the median of
    the sibling classes: a class whose score is both a large multiple
    of its siblings' and a large share of the total is where the run's
    wire time concentrates (the paper's Fig. 4/Fig. 5 motivation —
    cross-node traffic dominating).

``stragglers``
    Per-rank late-arrival share at collective begin markers.  Arrival
    times come from replay-trace ``B`` markers (every participant of a
    communicator reaches its collectives in the same order, so
    instances match world-wide); a rank is *late* at an instance when
    its arrival trails the median by more than
    ``max(rel·IQR, min_seconds, makespan_frac·makespan)``.

``alg_mismatch``
    Recorded collective algorithm (or the library default when the
    call did not pin one) vs the best-known choice for the message
    size and communicator size, distilled from the Fig. 5 sweep grid.

``stalls``
    Long receive-waits whose window has an (almost) empty in-flight
    set: the waiting rank starved because the sender had not issued
    the data, i.e. serialization, not bandwidth.

The report is a schema-versioned JSON document
(:data:`REPORT_SCHEMA`); :func:`validate_report` checks the structural
contract CI relies on, and :func:`render_report` produces the terminal
view via :mod:`repro.core.viz`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.timeline import Timeline
from repro.simmpi.collectives import default_algorithm

__all__ = [
    "REPORT_SCHEMA", "REPORT_KIND", "PASSES", "SEVERITIES",
    "THRESHOLDS", "Finding",
    "default_algorithm", "best_known_algorithm",
    "detect_congested_links", "detect_stragglers",
    "detect_alg_mismatch", "detect_stalls",
    "diagnose", "validate_report", "render_report",
]

#: Diagnosis-report JSON schema version (same discipline as the replay
#: trace and metrics snapshot formats).
REPORT_SCHEMA = 1
REPORT_KIND = "repro.obs.diagnosis"

PASSES = ("congested_links", "stragglers", "alg_mismatch", "stalls")
SEVERITIES = ("info", "warning", "critical")


#: Detector thresholds (DESIGN.md §4.6), echoed as the report's
#: ``config`` block.
THRESHOLDS = {
    # congested_links: flag a class whose bytes·latency score is both
    # >= factor x the sibling median and >= min_share of the total.
    "congestion_factor": 4.0,
    "congestion_min_share": 0.5,
    # stragglers: lateness threshold is max(rel*IQR, min_seconds,
    # makespan_frac*makespan); a rank is flagged when it is late at >=
    # late_share of >= min_instances instances it participates in.
    "straggler_rel_iqr": 3.0,
    "straggler_min_seconds": 0.0,
    "straggler_makespan_frac": 0.02,
    "straggler_late_share": 0.5,
    "straggler_min_instances": 2,
    # alg_mismatch: ignore collectives smaller than this (algorithm
    # choice is latency-bound noise below it).
    "alg_min_bytes": 1_000_000,
    # stalls: a wait is a candidate when it lasts >= max(min_seconds,
    # min_fraction*makespan) and its in-flight coverage leaves >=
    # empty_share of the window empty.
    "stall_min_seconds": 0.0,
    "stall_min_fraction": 0.05,
    "stall_empty_share": 0.9,
    "stall_max_findings": 8,
}


@dataclass
class Finding:
    """One structured diagnosis finding."""

    pass_name: str
    severity: str
    subject: str
    summary: str
    t0: float = 0.0
    t1: float = 0.0
    detail: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["pass"] = d.pop("pass_name")
        if d["detail"] is None:
            d.pop("detail")
        return d


# ---------------------------------------------------------------------------
# the fig5 best-known-algorithm grid


def best_known_algorithm(op: str, nbytes: int,
                         comm_size: int) -> Optional[str]:
    """Best-known algorithm for (op, size, world), distilled from the
    Fig. 5 sweep grid.

    The only size-sensitive switch the grid exposes is the reduce: the
    pipelined in-order binary tree (two children per node, more
    pipeline parallelism) overtakes the binomial tree once buffers are
    large enough to keep both subtrees busy (>= ~4 MB at the paper's
    segment size); below that the binomial tree's shallower depth wins.
    Everything else matches the library defaults.  Returns ``None``
    when the grid has no opinion (unknown op).
    """
    if op == "reduce":
        return "binary" if nbytes >= 4_000_000 else "binomial"
    return default_algorithm(op, comm_size)


# ---------------------------------------------------------------------------
# detectors


def detect_congested_links(tl: Timeline) -> List[Finding]:
    classes = tl.link_classes()
    scores: Dict[str, float] = {}
    for cls in classes:
        nbytes = tl.link_bytes(cls)
        alpha = tl.link_alpha.get(cls, 0.0)
        # bytes weighted by per-message latency class: where the wire
        # time (not just the volume) concentrates.
        scores[cls] = nbytes * alpha
    live = {c: s for c, s in scores.items() if s > 0}
    if len(live) < 2:
        return []
    total = sum(live.values())
    out: List[Finding] = []
    for cls, score in sorted(live.items(), key=lambda kv: -kv[1]):
        siblings = [s for c, s in live.items() if c != cls]
        med = float(np.median(siblings))
        share = score / total
        if med <= 0 or score < THRESHOLDS["congestion_factor"] * med:
            continue
        if share < THRESHOLDS["congestion_min_share"]:
            continue
        t0, t1 = tl.counter(f"link:bytes:{cls}").window_of_mass()
        out.append(Finding(
            pass_name="congested_links",
            severity="critical" if share >= 0.8 else "warning",
            subject=cls,
            summary=(f"link class '{cls}' carries "
                     f"{share:.0%} of the bytes*latency cost "
                     f"({score / med:.1f}x the sibling median)"),
            t0=t0, t1=t1,
            detail={"bytes": tl.link_bytes(cls),
                    "alpha_seconds": tl.link_alpha.get(cls, 0.0),
                    "score": score, "sibling_median": med,
                    "share": share},
        ))
    return out


def detect_stragglers(tl: Timeline) -> List[Finding]:
    late_by_rank: Dict[int, int] = {}
    seen_by_rank: Dict[int, int] = {}
    lateness_by_rank: Dict[int, List[float]] = {}
    for inst in tl.collectives:
        arrivals = inst.arrivals
        if len(arrivals) < 2:
            continue
        vals = np.asarray(list(arrivals.values()))
        med = float(np.median(vals))
        iqr = float(np.percentile(vals, 75) - np.percentile(vals, 25))
        thresh = max(THRESHOLDS["straggler_rel_iqr"] * iqr,
                     THRESHOLDS["straggler_min_seconds"],
                     THRESHOLDS["straggler_makespan_frac"] * tl.makespan)
        for rank, arr in arrivals.items():
            seen_by_rank[rank] = seen_by_rank.get(rank, 0) + 1
            if arr - med > thresh:
                late_by_rank[rank] = late_by_rank.get(rank, 0) + 1
                lateness_by_rank.setdefault(rank, []).append(arr - med)
    out: List[Finding] = []
    for rank, n_late in sorted(late_by_rank.items(),
                               key=lambda kv: -kv[1]):
        n_seen = seen_by_rank[rank]
        share = n_late / n_seen
        if n_seen < THRESHOLDS["straggler_min_instances"]:
            continue
        if share < THRESHOLDS["straggler_late_share"]:
            continue
        mean_late = float(np.mean(lateness_by_rank[rank]))
        out.append(Finding(
            pass_name="stragglers",
            severity="critical" if share >= 0.9 else "warning",
            subject=f"rank {rank}",
            summary=(f"rank {rank} arrived late at {n_late}/{n_seen} "
                     f"collectives (mean lateness {mean_late:.3g}s)"),
            t0=0.0, t1=tl.makespan,
            detail={"rank": rank, "late": n_late, "instances": n_seen,
                    "share": share, "mean_lateness_seconds": mean_late},
        ))
    return out


def detect_alg_mismatch(tl: Timeline) -> List[Finding]:
    grouped: Dict[tuple, Dict[str, Any]] = {}
    for inst in tl.collectives:
        if inst.nbytes < THRESHOLDS["alg_min_bytes"]:
            continue
        size = len(inst.ranks) or tl.world_size
        used = inst.alg or default_algorithm(inst.op, size)
        best = best_known_algorithm(inst.op, inst.nbytes, size)
        if used is None or best is None or used == best:
            continue
        key = (inst.op, used, best)
        g = grouped.setdefault(key, {"count": 0, "bytes": 0,
                                     "t0": inst.t_end, "t1": inst.t_end,
                                     "max_nbytes": 0, "comm_size": size})
        g["count"] += 1
        g["bytes"] += inst.nbytes
        g["max_nbytes"] = max(g["max_nbytes"], inst.nbytes)
        first_arrival = min(inst.arrivals.values()) if inst.arrivals else 0.0
        g["t0"] = min(g["t0"], first_arrival)
        g["t1"] = max(g["t1"], inst.t_end)
    out: List[Finding] = []
    for (op, used, best), g in sorted(grouped.items(),
                                      key=lambda kv: -kv[1]["bytes"]):
        out.append(Finding(
            pass_name="alg_mismatch",
            severity="warning",
            subject=op,
            summary=(f"{g['count']} {op} call(s) up to "
                     f"{g['max_nbytes']:,} B ran '{used}' where the "
                     f"fig5 grid prefers '{best}'"),
            t0=g["t0"], t1=g["t1"],
            detail={"op": op, "algorithm": used, "best_known": best,
                    "calls": g["count"], "total_bytes": g["bytes"],
                    "max_nbytes": g["max_nbytes"],
                    "comm_size": g["comm_size"]},
        ))
    return out


def detect_stalls(tl: Timeline) -> List[Finding]:
    if tl.messages is None:
        return []
    min_dur = max(THRESHOLDS["stall_min_seconds"],
                  THRESHOLDS["stall_min_fraction"] * tl.makespan)
    if min_dur <= 0:
        return []
    out: List[Finding] = []
    for w in sorted(tl.waits, key=lambda w: -w.duration):
        if w.duration < min_dur:
            break
        covered = tl.inflight_coverage(w.rank, w.t0, w.t1)
        empty = 1.0 - covered / w.duration
        if empty < THRESHOLDS["stall_empty_share"]:
            continue
        sender = -1
        issued_at = None
        if 0 <= w.seq < len(tl.messages["src"]):
            sender = int(tl.messages["src"][w.seq])
            t_send = float(tl.messages["t_send"][w.seq])
            if not np.isnan(t_send):
                issued_at = t_send
        frac = w.duration / tl.makespan if tl.makespan else 0.0
        blame = (f"; rank {sender} only issued the awaited send at "
                 f"t={issued_at:.4g}s" if sender >= 0 and issued_at
                 is not None else "")
        out.append(Finding(
            pass_name="stalls",
            severity="critical" if frac >= 0.25 else "warning",
            subject=f"rank {w.rank}",
            summary=(f"rank {w.rank} waited {w.duration:.4g}s "
                     f"({frac:.0%} of the makespan) with the in-flight "
                     f"set {empty:.0%} empty{blame}"),
            t0=w.t0, t1=w.t1,
            detail={"rank": w.rank, "seconds": w.duration,
                    "makespan_fraction": frac, "empty_share": empty,
                    "awaited_seq": w.seq, "sender": sender,
                    "sender_issue_time": issued_at},
        ))
        if len(out) >= THRESHOLDS["stall_max_findings"]:
            break
    return out


# ---------------------------------------------------------------------------
# the report


_DETECTORS = {
    "congested_links": detect_congested_links,
    "stragglers": detect_stragglers,
    "alg_mismatch": detect_alg_mismatch,
    "stalls": detect_stalls,
}


def _pass_has_data(tl: Timeline, name: str) -> bool:
    if name == "congested_links":
        return len(tl.link_classes()) >= 2
    if name in ("stragglers", "alg_mismatch"):
        return bool(tl.collectives)
    return bool(tl.waits) and tl.messages is not None


def diagnose(tl: Timeline, meta: Optional[dict] = None) -> Dict[str, Any]:
    """Run every detector pass; returns the report document."""
    findings: List[Finding] = []
    passes: List[Dict[str, Any]] = []
    for name in PASSES:
        ran = _pass_has_data(tl, name)
        found = _DETECTORS[name](tl) if ran else []
        findings.extend(found)
        passes.append({"name": name, "ran": ran, "findings": len(found)})
    sev_rank = {s: i for i, s in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: (-sev_rank[f.severity], f.t0))
    doc: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "kind": REPORT_KIND,
        "source": tl.source,
        "world_size": tl.world_size,
        "makespan_seconds": tl.makespan,
        "layers": tl.layer_summary(),
        "config": dict(THRESHOLDS),
        "passes": passes,
        "findings": [f.to_dict() for f in findings],
    }
    if meta or tl.meta:
        merged = dict(tl.meta)
        merged.update(meta or {})
        doc["meta"] = merged
    return doc


def validate_report(doc: Any) -> List[str]:
    """Structural validation; returns problems (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["report must be a JSON object"]
    if doc.get("kind") != REPORT_KIND:
        errors.append(f"kind must be {REPORT_KIND!r}")
    if doc.get("schema") != REPORT_SCHEMA:
        errors.append(f"schema must be {REPORT_SCHEMA}")
    for key in ("world_size", "makespan_seconds"):
        if not isinstance(doc.get(key), (int, float)):
            errors.append(f"missing numeric {key!r}")
    layers = doc.get("layers")
    if not isinstance(layers, dict) or not (
            {"spans", "counters", "pml", "events"} <= set(layers)):
        errors.append("layers must describe spans/counters/pml/events")
    passes = doc.get("passes")
    if (not isinstance(passes, list)
            or [p.get("name") for p in passes
                if isinstance(p, dict)] != list(PASSES)):
        errors.append(f"passes must list {PASSES} in order")
    else:
        for p in passes:
            if not isinstance(p.get("ran"), bool) or \
                    not isinstance(p.get("findings"), int):
                errors.append(f"pass {p.get('name')!r}: needs bool 'ran' "
                              f"and int 'findings'")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        errors.append("findings must be a list")
        return errors
    for i, f in enumerate(findings):
        if not isinstance(f, dict):
            errors.append(f"finding #{i}: not an object")
            continue
        if f.get("pass") not in PASSES:
            errors.append(f"finding #{i}: unknown pass {f.get('pass')!r}")
        if f.get("severity") not in SEVERITIES:
            errors.append(f"finding #{i}: bad severity "
                          f"{f.get('severity')!r}")
        for key in ("subject", "summary"):
            if not isinstance(f.get(key), str) or not f.get(key):
                errors.append(f"finding #{i}: missing {key!r}")
        t0, t1 = f.get("t0"), f.get("t1")
        if not isinstance(t0, (int, float)) or \
                not isinstance(t1, (int, float)) or t1 < t0:
            errors.append(f"finding #{i}: bad window [{t0!r}, {t1!r}]")
    return errors


def render_report(doc: Dict[str, Any]) -> str:
    """Terminal rendering of a diagnosis report."""
    from repro.core.viz import render_bars, render_findings

    layers = doc["layers"]
    lines = [
        f"why-is-this-slow report ({doc['source']} source, "
        f"{doc['world_size']} ranks, "
        f"makespan {doc['makespan_seconds']:.4g}s)",
        f"  layers: {layers['spans']['rows']} spans | "
        f"{layers['counters']['series']} counter series | "
        f"pml epochs "
        + "/".join(str(layers["pml"].get(c, {}).get("epoch", 0))
                   for c in ("p2p", "coll", "osc"))
        + f" | {layers['events']['messages']} messages, "
        f"{layers['events']['collectives']} collectives",
    ]
    by_cls = {
        f["subject"]: f["detail"]["bytes"]
        for f in doc["findings"]
        if f["pass"] == "congested_links" and "detail" in f
    }
    if by_cls:
        lines.append(render_bars(sorted(by_cls.items(),
                                        key=lambda kv: -kv[1]),
                                 title="  congested link bytes"))
    ran = [p["name"] for p in doc["passes"] if p["ran"]]
    skipped = [p["name"] for p in doc["passes"] if not p["ran"]]
    lines.append("  passes ran: " + (", ".join(ran) or "none")
                 + (f" (skipped: {', '.join(skipped)})" if skipped else ""))
    lines.append(render_findings(doc["findings"]))
    return "\n".join(lines)
