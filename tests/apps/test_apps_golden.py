"""CG, stencil, Fig. 2/4/6 cells, MPI-IO and windows against the
snapshots captured from the thread-per-rank engine: results bit for
bit, plus every engine's switch and message counts."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import fig7_cg
from repro.replay import autorecord
from tests.golden.apps_workloads import (GOLDEN_PATH, WORKLOADS,
                                         WORKLOADS_CO, snapshot)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def _check(name, build, golden):
    snap = snapshot(*build())
    expected = golden[name]
    assert sorted(snap) == sorted(expected)
    for key in expected:
        assert snap[key] == expected[key], f"{name}: {key} diverged"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_matches_golden(name, golden):
    _check(name, WORKLOADS[name], golden)


@pytest.mark.parametrize("name", sorted(WORKLOADS_CO))
def test_generator_spelling_matches_golden(name, golden):
    """The same program written against ``co_*`` runs without threads
    and lands on the same snapshot as its blocking twin."""
    _check(name, WORKLOADS_CO[name], golden)


#: sha256 of the two recordings (baseline, reordered) of
#: ``fig7_cg.run_one("S", 16, "rr")``, dumped; captured before the user
#: point-to-point entry points handed back ``co_wait`` themselves.
FIG7_CG_RECORDINGS = (
    "254a06012c99f8c7ab6e5a822132aa7953f523225e0f075586cf4cbffcb25eb1",
    "ece286120c857e79b86290dd448eef8962454fe6109b92ee002727c99316cb69",
)


def test_fig7_cg_recordings_are_the_pinned_bytes(tmp_path):
    """The recorder sees every user point-to-point message of NAS CG in
    the same order, with the same clocks and gaps."""
    with autorecord.capture() as traces:
        fig7_cg.run_one("S", 16, "rr")
    digests = []
    for i, trace in enumerate(traces):
        path = tmp_path / f"cg{i}.trace"
        trace.dump(str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == FIG7_CG_RECORDINGS
