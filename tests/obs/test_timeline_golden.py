"""``Timeline.from_trace`` against the snapshots captured from the
tuple-walking ingestion it replaced: every layer and the diagnosis
findings, bit for bit, on three recorded runs."""

from __future__ import annotations

import json

import pytest

from tests.golden.timeline_workloads import GOLDEN_PATH, INPUTS, snapshot


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_matches_golden(name, golden, instrumented_fig5):
    # The session's instrumented run is the same program under the same
    # recorder: no need to simulate fig5_shaped a second time.
    trace = instrumented_fig5[2] if name == "fig5_shaped" else INPUTS[name]()
    snap = json.loads(json.dumps(snapshot(trace)))
    expected = golden[name]
    assert sorted(snap) == sorted(expected)
    for key in expected:
        assert snap[key] == expected[key], f"{name}: {key} diverged"
