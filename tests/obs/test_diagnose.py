"""Each diagnosis pass against hand-built timelines with a planted
defect plus a clean control, then the full report contract E2E."""

import json

import numpy as np
import pytest

from repro.obs.diagnose import (best_known_algorithm, default_algorithm,
                                detect_alg_mismatch, detect_congested_links,
                                detect_stalls, detect_stragglers, diagnose,
                                render_report, validate_report, PASSES,
                                REPORT_KIND, REPORT_SCHEMA)
from repro.obs.timeline import (CollectiveInstance, CounterSeries, Timeline,
                                Wait)


def _series(total):
    return CounterSeries.from_events([(0.1, total * 0.5), (0.9, total * 0.5)])


def _link_timeline(cluster_bytes, node_bytes):
    return Timeline(
        world_size=8, makespan=1.0,
        counters={"link:bytes:cluster": _series(cluster_bytes),
                  "link:bytes:node": _series(node_bytes)},
        link_alpha={"cluster": 1.5e-6, "node": 7e-7},
    )


class TestCongestedLinks:
    def test_planted_hot_class_flagged(self):
        tl = _link_timeline(cluster_bytes=1e9, node_bytes=1e7)
        found = detect_congested_links(tl)
        assert len(found) == 1
        f = found[0]
        assert f.subject == "cluster"
        assert f.severity == "critical"          # share is ~99%
        assert f.detail["bytes"] == pytest.approx(1e9)
        assert 0.0 <= f.t0 < f.t1 <= 1.0

    def test_balanced_classes_clean(self):
        # Equal bytes*latency cost on both classes: nothing stands out.
        tl = _link_timeline(cluster_bytes=7e8, node_bytes=1.5e9)
        assert detect_congested_links(tl) == []

    def test_single_live_class_skipped(self):
        tl = _link_timeline(cluster_bytes=1e9, node_bytes=0.0)
        assert detect_congested_links(tl) == []


def _collectives(arrival_sets, op="reduce", alg="", nbytes=100):
    out = []
    for i, arrivals in enumerate(arrival_sets):
        out.append(CollectiveInstance(
            comm_id=0, index=i, op=op, alg=alg, nbytes=nbytes,
            ranks=tuple(arrivals), arrivals=dict(arrivals),
            t_end=max(arrivals.values()) + 0.1))
    return out


class TestStragglers:
    def test_planted_straggler_flagged(self):
        insts = _collectives([
            {0: 1.00, 1: 1.01, 2: 0.99, 3: 1.80},
            {0: 2.00, 1: 2.02, 2: 1.98, 3: 2.90},
            {0: 3.00, 1: 3.01, 2: 2.99, 3: 3.85},
        ])
        tl = Timeline(world_size=4, makespan=10.0, collectives=insts)
        found = detect_stragglers(tl)
        assert len(found) == 1
        f = found[0]
        assert f.subject == "rank 3"
        assert f.severity == "critical"          # late at 3/3 instances
        assert f.detail["late"] == 3 and f.detail["instances"] == 3

    def test_tight_arrivals_clean(self):
        insts = _collectives([
            {0: 1.00, 1: 1.01, 2: 0.99, 3: 1.02},
            {0: 2.00, 1: 2.02, 2: 1.98, 3: 2.01},
        ])
        tl = Timeline(world_size=4, makespan=10.0, collectives=insts)
        assert detect_stragglers(tl) == []

    def test_one_off_lateness_below_share_clean(self):
        # Late once out of three: below the 50% late-share bar.
        insts = _collectives([
            {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.9},
            {0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0},
            {0: 3.0, 1: 3.0, 2: 3.0, 3: 3.0},
        ])
        tl = Timeline(world_size=4, makespan=10.0, collectives=insts)
        assert detect_stragglers(tl) == []


class TestAlgMismatch:
    def test_grid_tables(self):
        assert default_algorithm("reduce", 8) == "binomial"
        assert default_algorithm("allgather", 8) == "recursive_doubling"
        assert default_algorithm("allgather", 6) == "ring"
        assert best_known_algorithm("reduce", 8_000_000, 8) == "binary"
        assert best_known_algorithm("reduce", 100_000, 8) == "binomial"
        assert best_known_algorithm("barrier", 0, 8) == "dissemination"

    def test_planted_mismatch_flagged(self):
        insts = _collectives([{r: 1.0 for r in range(8)}] * 2,
                             op="reduce", alg="binomial", nbytes=8_000_000)
        tl = Timeline(world_size=8, makespan=10.0, collectives=insts)
        found = detect_alg_mismatch(tl)
        assert len(found) == 1
        f = found[0]
        assert f.detail["algorithm"] == "binomial"
        assert f.detail["best_known"] == "binary"
        assert f.detail["calls"] == 2

    def test_default_alg_resolved_before_compare(self):
        # alg="" means "library default" — binomial for reduce — which
        # still mismatches the grid's large-message preference.
        insts = _collectives([{r: 1.0 for r in range(8)}],
                             op="reduce", alg="", nbytes=8_000_000)
        tl = Timeline(world_size=8, makespan=10.0, collectives=insts)
        found = detect_alg_mismatch(tl)
        assert len(found) == 1 and found[0].detail["algorithm"] == "binomial"

    def test_best_choice_clean(self):
        insts = _collectives([{r: 1.0 for r in range(8)}],
                             op="reduce", alg="binary", nbytes=8_000_000)
        tl = Timeline(world_size=8, makespan=10.0, collectives=insts)
        assert detect_alg_mismatch(tl) == []

    def test_small_messages_ignored(self):
        insts = _collectives([{r: 1.0 for r in range(8)}],
                             op="reduce", alg="flat", nbytes=50_000)
        tl = Timeline(world_size=8, makespan=10.0, collectives=insts)
        assert detect_alg_mismatch(tl) == []


def _stall_timeline(t_send, t_recv=None):
    """Rank 1 waits [1, 6] of a 10s run for seq 0 sent by rank 2."""
    messages = {
        "src": np.array([2], dtype=np.int32),
        "dst": np.array([1], dtype=np.int32),
        "nbytes": np.array([1024], dtype=np.int64),
        "t_send": np.array([t_send]),
        "t_recv": np.array([t_send + 0.05 if t_recv is None else t_recv]),
    }
    return Timeline(world_size=4, makespan=10.0,
                    waits=[Wait(rank=1, t0=1.0, t1=6.0, seq=0)],
                    messages=messages)


class TestStalls:
    def test_planted_serialization_stall_flagged(self):
        tl = _stall_timeline(t_send=5.9)     # wire empty for 98% of wait
        found = detect_stalls(tl)
        assert len(found) == 1
        f = found[0]
        assert f.subject == "rank 1"
        assert f.severity == "critical"      # 5s of a 10s makespan
        assert f.detail["sender"] == 2
        assert f.detail["sender_issue_time"] == pytest.approx(5.9)
        assert "rank 2" in f.summary

    def test_bandwidth_bound_wait_clean(self):
        # Sender issued early and the transfer spans the window: the
        # data was on the wire nearly the whole wait, so this is a
        # transfer-time (bandwidth) wait, not serialization.
        tl = _stall_timeline(t_send=1.1, t_recv=5.95)
        assert detect_stalls(tl) == []

    def test_short_waits_clean(self):
        messages = {
            "src": np.array([2], dtype=np.int32),
            "dst": np.array([1], dtype=np.int32),
            "nbytes": np.array([8], dtype=np.int64),
            "t_send": np.array([0.09]),
            "t_recv": np.array([0.10]),
        }
        tl = Timeline(world_size=4, makespan=10.0,
                      waits=[Wait(rank=1, t0=0.0, t1=0.1, seq=0)],
                      messages=messages)
        assert detect_stalls(tl) == []


class TestReport:
    def _combined(self):
        return Timeline(
            world_size=8, makespan=10.0,
            counters={"link:bytes:cluster": _series(1e9),
                      "link:bytes:node": _series(1e7)},
            link_alpha={"cluster": 1.5e-6, "node": 7e-7},
            collectives=_collectives(
                [{r: 1.0 + (0.8 if r == 3 else 0.0) for r in range(8)}] * 2,
                op="reduce", alg="binomial", nbytes=8_000_000),
            waits=[Wait(rank=1, t0=1.0, t1=6.0, seq=0)],
            messages={
                "src": np.array([2], dtype=np.int32),
                "dst": np.array([1], dtype=np.int32),
                "nbytes": np.array([1024], dtype=np.int64),
                "t_send": np.array([5.9]),
                "t_recv": np.array([5.95]),
            },
        )

    def test_all_passes_fire_on_combined_defects(self):
        doc = diagnose(self._combined())
        assert validate_report(doc) == []
        assert doc["schema"] == REPORT_SCHEMA and doc["kind"] == REPORT_KIND
        assert [p["name"] for p in doc["passes"]] == list(PASSES)
        assert all(p["ran"] for p in doc["passes"])
        fired = {f["pass"] for f in doc["findings"]}
        assert fired == set(PASSES)
        # Sorted most-severe first.
        sev = [f["severity"] for f in doc["findings"]]
        order = {"critical": 0, "warning": 1, "info": 2}
        assert sev == sorted(sev, key=order.__getitem__)
        # Round-trips through JSON.
        assert validate_report(json.loads(json.dumps(doc))) == []

    def test_empty_timeline_skips_passes(self):
        doc = diagnose(Timeline(world_size=4, makespan=1.0))
        assert validate_report(doc) == []
        assert not any(p["ran"] for p in doc["passes"])
        assert doc["findings"] == []

    def test_meta_merged(self):
        tl = Timeline(world_size=4, makespan=1.0, meta={"a": 1, "b": 1})
        doc = diagnose(tl, meta={"b": 2})
        assert doc["meta"] == {"a": 1, "b": 2}

    def test_render_report_is_readable(self):
        text = render_report(diagnose(self._combined()))
        assert "why-is-this-slow" in text
        assert "passes ran:" in text
        assert "rank 3" in text and "cluster" in text

    def test_render_clean_report(self):
        text = render_report(diagnose(Timeline(world_size=4, makespan=1.0)))
        assert "no findings" in text

    def test_validate_rejects_garbage(self):
        assert validate_report([]) != []
        assert validate_report({"schema": 99, "kind": REPORT_KIND}) != []
        doc = diagnose(Timeline(world_size=4, makespan=1.0))
        doc["passes"] = doc["passes"][:-1]
        assert any("passes" in e for e in validate_report(doc))


class TestEndToEnd:
    def test_diagnose_fig5_trace_timeline(self, fig5_timelines):
        _, tl = fig5_timelines
        doc = diagnose(tl, meta={"suite": "tests"})
        assert validate_report(doc) == []
        assert doc["source"] == "trace"
        assert all(p["ran"] for p in doc["passes"])
        # The shaped fig5 cell is deliberately healthy at the paper's
        # defaults: no critical congestion or algorithm complaints.
        assert not any(f["pass"] == "alg_mismatch" for f in doc["findings"])
        assert isinstance(render_report(doc), str)

    def test_diagnose_fig5_run_timeline(self, fig5_timelines):
        tl, _ = fig5_timelines
        doc = diagnose(tl)
        assert validate_report(doc) == []
        assert doc["source"] == "run"
