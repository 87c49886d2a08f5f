"""Capture golden values for the hot-path equivalence tests.

Runs a set of small but representative workloads (Fig. 5- and Fig. 6-
shaped, plus a mixed kernel with monitoring and jitter) and dumps every
per-rank virtual clock, monitoring matrix, and NIC counter to
``tests/golden/hotpath_golden.json``.  Floats are stored in ``float.hex``
form so the comparison in ``tests/simmpi/test_hotpath_equivalence.py``
is bit-exact, not approximate.

The checked-in JSON was produced by the *pre-optimization* (seed)
implementation; the optimized hot path must reproduce it exactly.
Re-run this script only to add new workloads — never to paper over a
regression in the existing ones.

``python scripts/capture_hotpath_golden.py substituted`` writes
``tests/golden/substituted_golden.json`` instead: every substituted
replay of :func:`substituted_cells`.  That file was captured from the
per-rank tuple scheduler (``_replay_derived`` over ``Network.transfer``
and ``_Books``) at the commit before the ready-set kernel replaced it,
which is the only thing it is evidence of — don't re-capture it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
OUT = os.path.join(GOLDEN_DIR, "hotpath_golden.json")
SUBSTITUTED_OUT = os.path.join(GOLDEN_DIR, "substituted_golden.json")


def _matrix_digest(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()


def snapshot_engine(engine) -> dict:
    """Everything the equivalence test compares, in bit-exact form."""
    from repro.simmpi.pml_monitoring import CATEGORIES

    nic = engine.network.nic
    return {
        "clocks": [float.hex(c) for c in engine.clocks()],
        "max_clock": float.hex(engine.max_clock),
        "counts": {c: _matrix_digest(engine.pml.counts[c]) for c in CATEGORIES},
        "sizes": {c: _matrix_digest(engine.pml.sizes[c]) for c in CATEGORIES},
        "totals": {c: list(engine.pml.totals(c)) for c in CATEGORIES},
        "nic_xmit": [nic.total_xmit_bytes(n) for n in range(nic.n_nodes)],
        "switches": engine.switches,
    }


def run_workloads() -> dict:
    from tests.golden.hotpath_workloads import WORKLOADS

    out = {}
    for name, build in WORKLOADS.items():
        engine, results = build()
        snap = snapshot_engine(engine)
        snap["results"] = results
        out[name] = snap
        print(f"{name}: max_clock={engine.max_clock:.6g} "
              f"switches={engine.switches}")
    return out


def substituted_cells(name: str, trace) -> dict:
    """``"<name>|<op=alg,...>|<binding>"`` -> what a substituted replay
    returned, in bit-exact form: every single substitution, one pair,
    each under the recorded, the reversed and one shuffled binding."""
    from repro.replay.engine import replay
    from repro.replay.patterns import SUBSTITUTABLE

    substitutions = [{op: alg} for op, algs in SUBSTITUTABLE.items()
                     for alg in algs]
    substitutions.append({"bcast": "chain", "reduce": "binary"})
    recorded = list(trace.binding)
    bindings = {
        "recorded": recorded,
        "reversed": recorded[::-1],
        "shuffled": [int(p) for p in
                     np.random.default_rng(21).permutation(recorded)],
    }
    out = {}
    for substitute in substitutions:
        spelled = ",".join(f"{op}={alg}" for op, alg in substitute.items())
        for label, binding in bindings.items():
            res = replay(trace, binding=binding, substitute=substitute)
            out[f"{name}|{spelled}|{label}"] = {
                "clocks": [float.hex(c) for c in res.clocks],
                "n_messages": res.n_messages,
                "matrices": {
                    f"{table}.{cat}": _matrix_digest(mat)
                    for table in ("counts", "sizes", "total_counts",
                                  "total_sizes")
                    for cat, mat in sorted(getattr(res, table).items())},
            }
    return out


def _write(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.normpath(path)}")


def main() -> None:
    if sys.argv[1:] == ["substituted"]:
        # The recorded runs timeline_golden.json pins: both committed
        # fixtures (osc: jitter 0.1, put/get; labelled by the schema-1
        # files they were recorded as) and fig5_shaped.
        from tests.golden.timeline_workloads import INPUTS

        data = {}
        for name, build in INPUTS.items():
            data.update(substituted_cells(name, build()))
        _write(SUBSTITUTED_OUT, data)
    else:
        _write(OUT, run_workloads())


if __name__ == "__main__":
    main()
