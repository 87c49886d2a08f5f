"""Cross-layer timelines pinned by ``timeline_golden.json``.

Three recorded runs — the two committed schema-1 fixtures of
``tests/replay/data`` (``osc`` is the put/get path) and a fresh capture
of the hot-path ``fig5_shaped`` workload — each ingested with
:meth:`Timeline.from_trace` and reduced to what the golden pins:
``layer_summary()``, a digest of every layer with each float spelled
``float.hex`` (rows in store order, so ordering is pinned too), and the
``diagnose`` passes and findings in full.

``timeline_golden.json`` was captured from the tuple-walking ingestion
(``_ingest_events``, one python step per recorded event) before the
columnar one replaced it; the columnar ingestion must land on it bit
for bit.  The one series left out (of the digests and of the summary's
series count) is ``nic:issued:node<N>``: the walk charged it every
non-``self`` message, the NIC only sees cross-node ones (pinned against
the live counters in ``tests/obs/test_timeline.py``).
Run ``python -m tests.golden.timeline_workloads`` only to add an input:
it rewrites the golden file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict

from repro.obs.diagnose import diagnose
from repro.obs.timeline import Timeline
from repro.replay import autorecord
from repro.replay.schema import ReplayTrace
from tests.golden.hotpath_workloads import _hx, _hx_all

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "timeline_golden.json")
_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "replay", "data")


def _fixture(name: str) -> Callable[[], ReplayTrace]:
    return lambda: ReplayTrace.load(os.path.join(_DATA, name))


def fig5_shaped_trace() -> ReplayTrace:
    from tests.golden.hotpath_workloads import fig5_shaped

    with autorecord.capture(meta={"workload": "fig5_shaped"}) as traces:
        fig5_shaped()
    return traces[0]


INPUTS: Dict[str, Callable[[], ReplayTrace]] = {
    "fig5.schema1": _fixture("fig5.trace"),
    "osc.schema1": _fixture("osc.trace"),
    "fig5_shaped": fig5_shaped_trace,
}


def _digest(rows) -> Dict[str, Any]:
    blob = json.dumps(rows, separators=(",", ":")).encode("ascii")
    return {"n": len(rows), "sha256": hashlib.sha256(blob).hexdigest()}


def snapshot(trace: ReplayTrace) -> Dict[str, Any]:
    """What the golden pins for one recorded run."""
    tl = Timeline.from_trace(trace)
    sp = tl.spans
    messages = tl.messages or {}
    report = diagnose(tl)
    summary = tl.layer_summary()
    summary["counters"]["series"] -= len(tl.counter_keys("nic:issued:"))
    return {
        "layer_summary": summary,
        "makespan": _hx(tl.makespan),
        "link_alpha": {c: _hx(a) for c, a in sorted(tl.link_alpha.items())},
        "clocks": _digest(_hx_all(tl.clocks)),
        "spans": _digest([
            [int(sp.rank[i]), sp.names[sp.name_id[i]], _hx(sp.t0[i]),
             _hx(sp.t1[i]), int(sp.depth[i])] for i in range(len(sp))]),
        "waits": _digest([[w.rank, _hx(w.t0), _hx(w.t1), w.seq]
                          for w in tl.waits]),
        "gaps": _digest([[r, _hx(t0), _hx(t1)] for r, t0, t1 in tl.gaps]),
        "collectives": _digest([
            [c.comm_id, c.index, c.op, c.alg, c.root, c.nbytes, c.segments,
             list(c.ranks), [[r, _hx(a)] for r, a in c.arrivals.items()],
             _hx(c.t_end)] for c in tl.collectives]),
        "messages": {
            name: dict(_digest(_hx_all(col) if col.dtype.kind == "f"
                               else col.tolist()), dtype=str(col.dtype))
            for name, col in sorted(messages.items())},
        "counters": {
            key: _digest(list(zip(_hx_all(tl.counter(key).times),
                                  _hx_all(tl.counter(key).values))))
            for key in tl.counter_keys()
            if not key.startswith("nic:issued:")},
        "passes": report["passes"],
        "findings": report["findings"],
    }


def main() -> None:
    data = {}
    for name, build in INPUTS.items():
        data[name] = snapshot(build())
        print(f"{name}: {data[name]['layer_summary']['events']}")
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
