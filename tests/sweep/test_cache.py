"""The content-addressed result cache: keys, round-trips, invalidation."""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import runner
from repro.sweep.cache import ResultCache, canonical_dumps, cell_key
from repro.sweep.registry import SweepConfig

FP = "f" * 64
PARAMS = {"n_nodes": 2, "size_bytes": 1000, "seed": 0}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path / "cache"), fingerprint=FP)


class TestKeys:
    def test_deterministic(self):
        assert cell_key("fig4", PARAMS, FP) == cell_key("fig4", dict(PARAMS), FP)

    def test_key_order_independent(self):
        reordered = {k: PARAMS[k] for k in reversed(list(PARAMS))}
        assert cell_key("fig4", PARAMS, FP) == cell_key("fig4", reordered, FP)

    def test_param_sensitivity(self):
        other = dict(PARAMS, seed=1)
        assert cell_key("fig4", PARAMS, FP) != cell_key("fig4", other, FP)

    def test_scenario_sensitivity(self):
        assert cell_key("fig4", PARAMS, FP) != cell_key("fig5", PARAMS, FP)

    def test_fingerprint_sensitivity(self):
        assert cell_key("fig4", PARAMS, FP) != cell_key("fig4", PARAMS, "0" * 64)


class TestRoundTrip:
    def test_put_get(self, cache):
        result = {"points": [1, 2, 3], "mean": 2.0}
        cache.put("fig4", PARAMS, result, elapsed_s=0.5)
        entry = cache.get("fig4", PARAMS)
        assert entry is not None
        assert entry.result == result
        assert entry.elapsed_s == 0.5
        assert entry.fingerprint == FP

    def test_miss(self, cache):
        assert cache.get("fig4", PARAMS) is None

    def test_cached_result_is_byte_identical(self, cache):
        """The acceptance criterion: cached vs freshly computed results
        serialize to the same canonical JSON bytes."""
        fresh = {"b": [1.5, 2.0], "a": {"z": 1, "y": None}}
        cache.put("fig4", PARAMS, fresh)
        cached = cache.get("fig4", PARAMS).result
        assert canonical_dumps(cached) == canonical_dumps(fresh)

    def test_atomic_file_is_valid_json(self, cache):
        cache.put("fig4", PARAMS, {"x": 1})
        entry = cache.get("fig4", PARAMS)
        with open(entry.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == 1
        assert doc["key"] == cache.key_for("fig4", PARAMS)
        # No tempfile debris next to the entry.
        assert not [n for n in os.listdir(cache.root) if n.endswith(".tmp")]


class TestInvalidation:
    def test_fingerprint_change_orphans_entries(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root=root, fingerprint=FP).put("fig4", PARAMS, {"x": 1})
        # Same params, different code fingerprint: a miss.
        assert ResultCache(root=root, fingerprint="0" * 64).get(
            "fig4", PARAMS) is None
        # The original fingerprint still hits.
        assert ResultCache(root=root, fingerprint=FP).get(
            "fig4", PARAMS) is not None

    def test_corrupt_entry_is_a_miss(self, cache):
        entry = cache.put("fig4", PARAMS, {"x": 1})
        with open(entry.path, "w", encoding="utf-8") as fh:
            fh.write("{ truncated")
        assert cache.get("fig4", PARAMS) is None

    def test_wrong_schema_is_a_miss(self, cache):
        entry = cache.put("fig4", PARAMS, {"x": 1})
        with open(entry.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["schema"] = 99
        with open(entry.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cache.get("fig4", PARAMS) is None

    @pytest.mark.parametrize("body", [
        b"\xff\xfe not utf-8",            # UnicodeDecodeError
        b'[{"schema": 1}]',               # a JSON array, not an object
        b"[" * 200_000,                   # past the parser's depth
    ])
    def test_unreadable_entry_is_a_miss_everywhere(self, cache, body):
        entry = cache.put("fig4", PARAMS, {"x": 1})
        with open(entry.path, "wb") as fh:
            fh.write(body)
        assert cache.get("fig4", PARAMS) is None
        assert list(cache.entries()) == []
        assert cache.clean() == 0


def _selftest_cells():
    return runner.select_cells("selftest", SweepConfig(smoke=True))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.one_of(st.binary(max_size=256),
                      st.text(max_size=64).map(str.encode)))
def test_any_bytes_in_an_entry_give_a_miss_and_a_recompute(tmp_path, body):
    """Whatever an entry file holds, reading it gives None or an entry,
    and a sweep over that cell recomputes it rather than crashing."""
    cache = ResultCache(root=tempfile.mkdtemp(dir=tmp_path))
    cell = _selftest_cells()[0]
    path = cache.put(cell["scenario"], cell["params"], {"x": -1}).path
    with open(path, "wb") as fh:
        fh.write(body)
    got = cache.get(cell["scenario"], cell["params"])
    assert got is None or got.key == cache.key_for(cell["scenario"],
                                                   cell["params"])
    assert all(e.path == path for e in cache.entries())
    report = runner.run_sweep(filter_expr="selftest",
                              config=SweepConfig(smoke=True), jobs=1,
                              cache=cache)
    assert report.totals["failed"] == 0
    assert report.totals["computed"] >= 1
    assert report.cells[0].result == {"x": cell["params"]["x"],
                                      "y": cell["params"]["x"] ** 2}


class TestMaintenance:
    def test_entries_and_clean_by_scenario(self, cache):
        cache.put("fig4", PARAMS, {"x": 1})
        cache.put("fig5", PARAMS, {"x": 2})
        assert {e.scenario for e in cache.entries()} == {"fig4", "fig5"}
        assert cache.clean(scenarios=["fig4"]) == 1
        assert {e.scenario for e in cache.entries()} == {"fig5"}

    def test_clean_stale_only(self, tmp_path):
        root = str(tmp_path / "c")
        ResultCache(root=root, fingerprint="0" * 64).put(
            "fig4", PARAMS, {"old": True})
        new = ResultCache(root=root, fingerprint=FP)
        new.put("fig4", dict(PARAMS, seed=9), {"new": True})
        assert new.clean(stale_only=True) == 1
        remaining = list(new.entries())
        assert len(remaining) == 1
        assert remaining[0].fingerprint == FP

    def test_clean_missing_dir(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "never-created"),
                            fingerprint=FP)
        assert cache.clean() == 0


class TestCanonicalDumps:
    def test_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": [1.0, 2]}) == '{"a":[1.0,2],"b":1}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})
