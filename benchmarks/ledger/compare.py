#!/usr/bin/env python3
"""Compare two sets of ledger results by the rules later changes are
judged by.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py A1.json,A2.json B1.json,B2.json

A is the parent, B the change; each side is one results file written by
``run.py -o`` or, better, several, comma-separated: a side's samples
are its runs' reported values, and with one run a side has no spread to
speak of.  One row per (workload, metric), never a combined score:

* a gated metric (one with a bound in ``BENCHMARK.json``) is a
  REGRESSION when B's median is worse than A's by more than the bound;
* it is *unresolved*, not unchanged, when A's own interquartile spread
  exceeds the bound — unless every B run beats every A run;
* per-layer metrics are listed with their ratio and no verdict: they
  say where a difference sits, they do not gate.

Every ratio is printed with its base.  Exit status 1 on any regression
or when a workload's share of failed operations went up.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional


def load_side(arg: str) -> List[Dict[str, Any]]:
    docs = []
    for path in arg.split(","):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def _rows(docs: List[Dict[str, Any]], workload: str, metric: str
          ) -> List[Dict[str, Any]]:
    return [doc["workloads"][workload]["metrics"][metric] for doc in docs
            if metric in doc["workloads"].get(workload, {}).get("metrics", {})]


def summarize(rows: List[Dict[str, Any]]) -> Optional[Dict[str, float]]:
    """Median, quartiles and extremes of one side's runs."""
    if not rows:
        return None
    xs = [r["value"] for r in rows]
    q1, q3 = (xs[0], xs[0]) if len(xs) == 1 \
        else statistics.quantiles(xs, n=4)[::2]
    return {"median": statistics.median(xs), "q1": q1, "q3": q3,
            "min": min(xs), "max": max(xs), "n": len(xs)}


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    """ok / REGRESSION / unresolved, from B's worsening as a share of
    A's median and A's own spread."""
    if a["median"] == 0:
        worse = 0.0 if b["median"] == 0 else float("inf")
    else:
        worse = (b["median"] - a["median"]) / abs(a["median"])
    if better == "higher":
        worse = -worse
        all_better = b["min"] > a["max"]
    else:
        all_better = b["max"] < a["min"]
    spread = (a["q3"] - a["q1"]) / abs(a["median"]) if a["median"] else 0.0
    if spread > bound:
        return ("ok (every B run beats every A run)" if all_better
                else f"unresolved (A's spread {spread:.3f} > bound)")
    return "REGRESSION" if worse > bound else "ok"


def compare(side_a: List[Dict], side_b: List[Dict], out=sys.stdout) -> int:
    status = 0
    workloads = [w for w in side_a[0]["workloads"]
                 if all(w in d["workloads"] for d in side_a + side_b)]
    for workload in workloads:
        metrics = side_a[0]["workloads"][workload]["metrics"]
        for gated in (True, False):
            for metric, spec in metrics.items():
                if ("bound" in spec) != gated:
                    continue
                a = summarize(_rows(side_a, workload, metric))
                b = summarize(_rows(side_b, workload, metric))
                if b is None:
                    print(f"{workload:<10} {metric:<34} missing in B", file=out)
                    status |= gated
                    continue
                ratio = b["median"] / a["median"] if a["median"] else float("nan")
                line = (f"{workload:<10} {metric:<34} B/A = {ratio:7.4f} "
                        f"(base A = {a['median']:.6g} {spec['unit']}, "
                        f"{spec['better']} is better, runs={a['n']}/{b['n']})")
                if gated:
                    word = verdict(a, b, spec["better"], spec["bound"])
                    line += f"  bound {spec['bound']:g}: {word}"
                    status |= word == "REGRESSION"
                print(line, file=out)

        def fail_ratio(docs) -> float:
            recs = [d["workloads"][workload] for d in docs]
            return sum(r["failed"] for r in recs) / \
                max(sum(r["attempted"] for r in recs), 1)

        fa, fb = fail_ratio(side_a), fail_ratio(side_b)
        word = "MORE FAILURES" if fb > fa else "ok"
        print(f"{workload:<10} {'fail_ratio':<34} A = {fa:.6g}, B = {fb:.6g}"
              f"  bound 0: {word}", file=out)
        status |= fb > fa
    return int(status)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_side(args[0]), load_side(args[1]))


if __name__ == "__main__":
    sys.exit(main())
