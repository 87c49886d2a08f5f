"""CG, stencil, Fig. 2/4/6 cells, MPI-IO and windows against the
snapshots captured from the thread-per-rank engine: results bit for
bit, plus every engine's switch and message counts."""

from __future__ import annotations

import json

import pytest

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
