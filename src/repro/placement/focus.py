"""Feed ``repro.obs diagnose`` findings back into placement search.

The diagnosis report (:mod:`repro.obs.diagnose`) names *where* a run
lost time: straggler ranks that arrived late at collectives, and link
classes whose bytes·latency cost dominates.  A :class:`Focus` turns
those findings into a bias on the candidate *generators* of the
what-if search: the communication matrix the matrix-driven strategies
(treematch / greedy / local) optimize is re-weighted so traffic
touching a straggler rank, or crossing a congested link class under
the recorded binding, counts for more.  Scoring is untouched — every
candidate is still judged by its honest replayed makespan on the true
matrix — so a focus can only change which placements get *proposed*,
never how they are *ranked*.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

__all__ = ["Focus", "focus_from_report", "load_focus", "focus_from_args",
           "weighted_matrix"]

#: Default multiplier for focused rows/columns/pairs.  Applied once per
#: matching axis, so a pair that is both straggler-adjacent and on a
#: congested link compounds.
DEFAULT_WEIGHT = 4.0


@dataclass(frozen=True)
class Focus:
    """Optimization targets distilled from a diagnosis report."""

    straggler_ranks: tuple = ()
    congested_classes: tuple = ()
    weight: float = DEFAULT_WEIGHT

    def __bool__(self) -> bool:
        return bool(self.straggler_ranks or self.congested_classes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "straggler_ranks": [int(r) for r in self.straggler_ranks],
            "congested_classes": [str(c) for c in self.congested_classes],
            "weight": float(self.weight),
        }

    @classmethod
    def from_dict(cls, doc: Optional[Dict[str, Any]]) -> "Focus":
        if not doc:
            return cls()
        return cls(
            straggler_ranks=tuple(
                int(r) for r in doc.get("straggler_ranks", ())),
            congested_classes=tuple(
                str(c) for c in doc.get("congested_classes", ())),
            weight=float(doc.get("weight", DEFAULT_WEIGHT)),
        )

    def cache_key(self) -> str:
        """Canonical string for result-cache keying (sorted, compact)."""
        d = self.to_dict()
        d["straggler_ranks"] = sorted(d["straggler_ranks"])
        d["congested_classes"] = sorted(d["congested_classes"])
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def focus_from_report(doc: Dict[str, Any],
                      weight: float = DEFAULT_WEIGHT) -> Focus:
    """Extract a :class:`Focus` from a parsed diagnosis report.

    Reads the ``stragglers`` findings' ranks and the
    ``congested_links`` findings' subjects; every other pass is left to
    its own follow-up (algorithm mismatch feeds ``--substitute``, not
    the placement axis).
    """
    findings = doc.get("findings")
    if not isinstance(findings, list):
        raise ValueError(
            "not a diagnosis report: missing the 'findings' list "
            "(expected the JSON written by `repro.obs diagnose --report`)")
    ranks = []
    classes = []
    for f in findings:
        if f.get("pass") == "stragglers":
            rank = (f.get("detail") or {}).get("rank")
            if rank is not None:
                ranks.append(int(rank))
        elif f.get("pass") == "congested_links":
            cls = f.get("subject")
            # "self" traffic never crosses a wire; re-weighting it
            # could only distract the mappers.
            if cls and cls != "self":
                classes.append(str(cls))
    return Focus(straggler_ranks=tuple(dict.fromkeys(ranks)),
                 congested_classes=tuple(dict.fromkeys(classes)),
                 weight=weight)


def load_focus(path: str, weight: float = DEFAULT_WEIGHT) -> Focus:
    """Load a ``repro.obs diagnose`` JSON report as a :class:`Focus`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return focus_from_report(doc, weight=weight)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def focus_from_args(args) -> Optional[Focus]:
    """The ``--focus-from REPORT.json [--focus-weight W]`` pair of the
    replay and serve CLIs; says on stderr what it will steer by."""
    if not args.focus_from:
        return None
    focus = load_focus(
        args.focus_from,
        weight=DEFAULT_WEIGHT if args.focus_weight is None
        else args.focus_weight)
    print(f"focus from {args.focus_from}: "
          f"stragglers {list(focus.straggler_ranks) or '-'}, "
          f"congested {list(focus.congested_classes) or '-'} "
          f"(weight {focus.weight:g}x on the generator matrix)",
          file=sys.stderr)
    return focus


def weighted_matrix(matrix, topology, binding: Sequence[int],
                    focus: Focus) -> "np.ndarray":
    """Re-weight a communication matrix toward the focus targets.

    Rows and columns of straggler ranks are multiplied by
    ``focus.weight`` (their traffic is what the late arrivals wait
    behind), as are pairs whose *recorded* binding routes them over a
    congested link class — the congestion the report measured existed
    under that binding, so that is the traffic worth relocating.
    Returns a float64 copy; the input is never modified.
    """
    out = np.asarray(matrix, dtype=np.float64).copy()
    if not focus:
        return out
    n = out.shape[0]
    w = float(focus.weight)
    for rank in focus.straggler_ranks:
        if 0 <= rank < n:
            out[rank, :] *= w
            out[:, rank] *= w
    if focus.congested_classes:
        wanted = set(focus.congested_classes)
        for i in range(n):
            for j in range(n):
                if i == j or not out[i, j]:
                    continue
                cls = topology.common_level_name(binding[i], binding[j])
                if cls in wanted:
                    out[i, j] *= w
    return out
