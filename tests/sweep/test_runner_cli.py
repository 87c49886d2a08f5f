"""End-to-end sweep orchestration: run → resume from cache → CLI."""

import json

import pytest

from repro.sweep import cli, runner
from repro.sweep.cache import ResultCache, canonical_dumps
from repro.sweep.registry import SweepConfig


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path / "cache"))


def _selftest_sweep(cache, **kw):
    kw.setdefault("config", SweepConfig(smoke=True))
    kw.setdefault("jobs", 2)
    return runner.run_sweep(filter_expr="selftest", cache=cache, **kw)


class TestRunSweep:
    def test_fresh_then_cached(self, cache):
        fresh = _selftest_sweep(cache)
        t = fresh.totals
        assert t["failed"] == 0
        assert t["cache_hits"] == 0
        assert t["computed"] == t["cells"] == 4

        again = _selftest_sweep(cache)
        t2 = again.totals
        assert t2["cache_hit_rate"] == 1.0
        assert t2["computed"] == 0
        # Cached payloads are byte-identical to the fresh ones.
        for a, b in zip(fresh.cells, again.cells):
            assert canonical_dumps(a.result) == canonical_dumps(b.result)
            assert b.from_cache

    def test_refresh_recomputes_but_still_caches(self, cache):
        _selftest_sweep(cache)
        report = _selftest_sweep(cache, refresh=True)
        assert report.totals["computed"] == 4
        assert report.totals["cache_hits"] == 0
        assert _selftest_sweep(cache).totals["cache_hit_rate"] == 1.0

    def test_no_cache_leaves_disk_untouched(self, cache):
        report = _selftest_sweep(cache, use_cache=False)
        assert report.totals["computed"] == 4
        assert list(cache.entries()) == []

    def test_hidden_scenario_needs_explicit_filter(self):
        assert runner.select_cells(None, SweepConfig(smoke=True)) == [
            c for c in runner.select_cells("fig|table|whatif",
                                           SweepConfig(smoke=True))
        ]
        assert all(c["scenario"] != "selftest"
                   for c in runner.select_cells(None, SweepConfig(smoke=True)))

    def test_filter_selects_subset(self):
        cells = runner.select_cells("fig4|table1", SweepConfig(smoke=True))
        assert {c["scenario"] for c in cells} == {"fig4", "table1"}

    def test_results_by_scenario_decodes(self, cache):
        report = _selftest_sweep(cache)
        decoded = runner.results_by_scenario(report)
        assert sorted(r["y"] for r in decoded["selftest"]) == [0, 1, 4, 9]
        rendered = runner.render_reports(report)
        assert "selftest" in rendered["selftest"]


class TestArtifacts:
    def test_run_report_json(self, cache, tmp_path):
        report = _selftest_sweep(cache)
        path = tmp_path / "report.json"
        runner.write_run_report(report, str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == runner.REPORT_SCHEMA
        assert doc["totals"]["ok"] == 4
        assert len(doc["cells"]) == 4
        assert doc["fingerprint"] == cache.fingerprint
        for cell in doc["cells"]:
            tel = cell["telemetry"]
            assert tel["queue_wait_s"] >= 0.0
            assert tel["backoff_s"] >= 0.0
            assert tel["peak_rss_kb"] >= 0


class TestCli:
    def test_run_ls_clean(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        common = ["--filter", "selftest", "--smoke", "--cache-dir", cache_dir]

        rc = cli.main(["run", *common, "--jobs", "2",
                       "--report", str(tmp_path / "run.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4/4 ok" in out
        assert json.loads((tmp_path / "run.json").read_text())["totals"]["ok"] == 4

        rc = cli.main(["ls", *common])
        assert rc == 0
        assert "4/4 cells cached" in capsys.readouterr().out

        rc = cli.main(["clean", *common])
        assert rc == 0
        assert "removed 4" in capsys.readouterr().out

        rc = cli.main(["ls", *common])
        assert rc == 0
        assert "0/4 cells cached" in capsys.readouterr().out

    def test_filter_matching_no_scenario_runs_nothing(self, tmp_path, capsys):
        """It used to print "0/0 ok" and exit 0, so a typo in a CI filter
        passed; now it names the scenarios and touches no cache."""
        cache_dir = tmp_path / "c"
        for command in ("run", "ls", "clean"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--filter", "fig55", "--smoke",
                          "--cache-dir", str(cache_dir)])
            assert exc.value.code == 2
            said = capsys.readouterr()
            assert "'fig55' matches no scenario; have fig2, fig4, fig5" \
                in said.err
            assert said.out == ""
        assert not cache_dir.exists()

    def test_run_reports_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # A cell that always fails must fail the run (exit 1).
        from repro.sweep.registry import SCENARIOS

        spec = SCENARIOS["selftest"]
        monkeypatch.setitem(
            SCENARIOS, "selftest",
            type(spec)(
                spec.name, spec.title,
                lambda cfg: [{"x": 1, "fail": True}],
                spec.compute, spec.encode, spec.decode, spec.report,
                hidden=True,
            ),
        )
        rc = cli.main(["run", "--filter", "selftest", "--smoke",
                       "--cache-dir", str(tmp_path / "c"),
                       "--retries", "0", "--backoff", "0.01", "--quiet"])
        assert rc == 1
        assert "FAILED" not in capsys.readouterr().out  # quiet suppresses
