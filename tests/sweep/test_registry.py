"""Scenario registry: grids enumerate, cells are picklable, payloads
round-trip through the cache's canonical JSON."""

import json
import pickle

import pytest

from repro.sweep.cache import canonical_dumps
from repro.sweep.registry import (SCENARIOS, SweepConfig, cell_id,
                                  compute_cell, get_scenario, scenario_names)

VISIBLE = ["fig2", "fig4", "fig5", "fig6", "fig7", "table1", "whatif"]


class TestNames:
    def test_visible_scenarios(self):
        assert scenario_names() == VISIBLE

    def test_hidden_included_on_request(self):
        assert "selftest" in scenario_names(include_hidden=True)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown sweep scenario"):
            get_scenario("fig99")


@pytest.mark.parametrize("name", VISIBLE + ["selftest"])
class TestEnumeration:
    def test_smoke_cells_are_plain_data(self, name):
        cells = SCENARIOS[name].enumerate_cells(SweepConfig(smoke=True))
        assert cells
        for params in cells:
            # Must survive a pipe to a worker and a trip through JSON.
            pickle.dumps(params)
            assert json.loads(canonical_dumps(params)) == params
            assert cell_id(name, params).startswith(f"{name}[")

    def test_smoke_grid_not_larger_than_default(self, name):
        smoke = SCENARIOS[name].enumerate_cells(SweepConfig(smoke=True))
        full = SCENARIOS[name].enumerate_cells(SweepConfig())
        assert len(smoke) <= len(full)

    def test_seed_threads_through(self, name):
        cells = SCENARIOS[name].enumerate_cells(SweepConfig(seed=7, smoke=True))
        for params in cells:
            if "seed" in params:
                assert params["seed"] == 7


class TestComputeRoundTrip:
    """Compute → encode → canonical JSON → decode, field by field, on
    two cheap cells (every visible scenario's first smoke cell makes the
    trip in ``tests/experiments/test_front_doors.py``)."""

    def test_selftest(self):
        payload = compute_cell("selftest", {"x": 5})
        assert payload == {"x": 5, "y": 25}

    def test_fig4_cell(self):
        spec = get_scenario("fig4")
        params = {"n_nodes": 2, "size_bytes": 1000, "reps": 5, "seed": 0}
        payload = compute_cell("fig4", params)
        # Encoded payload is JSON-pure and stable through a round-trip.
        rehydrated = json.loads(canonical_dumps(payload))
        assert rehydrated == payload
        point = spec.decode(rehydrated)
        assert point.np_ranks == 48  # 2 nodes x 24 cores
        assert point.n_reps == 5
        # decode(encode(x)) is the identity on the payload.
        assert spec.encode(point) == payload

    def test_table1_cell(self):
        spec = get_scenario("table1")
        payload = compute_cell("table1", {"order": 128, "seed": 0})
        timing = spec.decode(json.loads(canonical_dumps(payload)))
        assert timing.order == 128
        assert timing.seconds > 0.0
        assert "TreeMatch" in spec.report([timing])

    def test_selftest_report_renders(self):
        spec = get_scenario("selftest")
        text = spec.report([{"x": 2, "y": 4}, {"x": 3, "y": 9}])
        assert "selftest" in text


class TestDeterminism:
    def test_same_params_same_payload(self):
        params = {"n_nodes": 2, "size_bytes": 100, "reps": 4, "seed": 1}
        a = compute_cell("fig4", params)
        b = compute_cell("fig4", dict(params))
        assert canonical_dumps(a) == canonical_dumps(b)
