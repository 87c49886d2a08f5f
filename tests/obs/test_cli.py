"""The ``python -m repro.obs`` surface, end to end on a tiny cell."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import cli


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """One tiny instrumented fig5 run shared by every CLI test."""
    d = tmp_path_factory.mktemp("obs")
    paths = {
        "trace": str(d / "trace.json"),
        "metrics": str(d / "metrics.json"),
        "cell": str(d / "cell.trace"),
    }
    rc = cli.main([
        "export", "--nodes", "1", "--sizes", "50_000,100_000",
        "--out", paths["trace"],
        "--metrics", paths["metrics"],
        "--trace-out", paths["cell"],
    ])
    assert rc == 0
    return paths


class TestExport:
    def test_leaves_layer_disabled(self, exported):
        assert not obs.is_enabled()

    def test_trace_is_valid_chrome_json(self, exported):
        from repro.obs.export import validate_chrome_trace

        with open(exported["trace"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # One PlaFRIM node = 24 ranks.
        assert validate_chrome_trace(doc, n_ranks=24) == []
        x = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(x) > 24  # collectives on every rank + wall spans
        assert any(e["name"] == "fig5.run_cell" for e in x)
        assert doc["otherData"]["sizes"] == [50_000, 100_000]

    def test_metrics_snapshot_written(self, exported):
        with open(exported["metrics"], "r", encoding="utf-8") as fh:
            snap = json.load(fh)
        assert snap["counters"]["repro_engine_runs_total"] == 1
        assert any(k.startswith("repro_net_link_bytes_total")
                   for k in snap["counters"])

    def test_messages_dumped(self, exported):
        """``--trace-out`` writes the run's replay trace: the one file
        ``top`` / ``heatmap`` / ``--trace-in`` / ``repro.replay`` read."""
        from repro.replay import ReplayTrace, replay

        trace = ReplayTrace.load(exported["cell"])
        assert trace.world_size == 24
        assert trace.meta["workload"] == "fig5_cell"
        with open(exported["metrics"], "r", encoding="utf-8") as fh:
            snap = json.load(fh)
        res = replay(trace, verify=True)
        assert res.exact
        assert res.n_messages == snap["counters"][
            "repro_engine_messages_total"]


class TestReaders:
    def test_validate_ok(self, exported, capsys):
        assert cli.main(["validate", exported["trace"],
                         "--ranks", "24"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert cli.main(["validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_top(self, exported, capsys):
        assert cli.main(["top", exported["cell"],
                         "-k", "3", "--metrics", exported["metrics"]]) == 0
        out = capsys.readouterr().out
        assert "top 3 rank pairs by bytes (all, 1285 messages):" in out
        # The hottest pair of this cell, as the message-trace dump of
        # the same run reported it before the replay trace replaced it.
        assert out.splitlines()[2].split() == ["2", "0", "1,400,768", "6"]
        assert "per-link-class bytes:" in out

    def test_top_category_filter(self, exported, capsys):
        assert cli.main(["top", exported["cell"],
                         "--category", "coll"]) == 0
        assert "(coll," in capsys.readouterr().out

    def test_top_matches_the_compiled_books(self, exported, capsys):
        from repro.replay import ReplayTrace, compile_trace

        book = compile_trace(ReplayTrace.load(exported["cell"]))
        for cat in ("p2p", "coll", "osc"):
            assert cli.main(["top", exported["cell"], "-k", "1000",
                             "--category", cat]) == 0
            rows = [line.split() for line in
                    capsys.readouterr().out.splitlines()[2:]]
            sizes, counts = book.total_sizes[cat], book.total_counts[cat]
            assert len(rows) == np.count_nonzero(sizes)
            for src, dst, nbytes, msgs in rows:
                at = int(src), int(dst)
                assert int(nbytes.replace(",", "")) == sizes[at]
                assert int(msgs.replace(",", "")) == counts[at]

    def test_heatmap(self, exported, capsys):
        assert cli.main(["heatmap", exported["cell"]]) == 0
        out = capsys.readouterr().out
        assert "byte heatmap" in out
        assert "24 ranks" in out


@pytest.fixture(scope="module")
def diagnosed(tmp_path_factory):
    """One tiny live ``diagnose`` run shared by the report tests."""
    d = tmp_path_factory.mktemp("diag")
    paths = {
        "report": str(d / "report.json"),
        "chrome": str(d / "diag.trace.json"),
        "dir": d,
    }
    rc = cli.main([
        "diagnose", "--nodes", "1", "--sizes", "50_000,100_000",
        "--report", paths["report"], "--chrome", paths["chrome"],
    ])
    assert rc == 0
    return paths


class TestDiagnose:
    def test_leaves_layer_disabled(self, diagnosed):
        assert not obs.is_enabled()

    def test_report_validates(self, diagnosed):
        from repro.obs.diagnose import validate_report, PASSES

        with open(diagnosed["report"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_report(doc) == []
        assert doc["source"] == "run"
        assert doc["world_size"] == 24
        assert all(p["ran"] for p in doc["passes"])
        assert [p["name"] for p in doc["passes"]] == list(PASSES)
        # All three layers made it into the joined store.
        assert doc["layers"]["spans"]["rows"] > 0
        assert doc["layers"]["counters"]["series"] > 0
        assert doc["layers"]["events"]["messages"] > 0

    def test_chrome_trace_has_counter_and_findings_lanes(self, diagnosed):
        from repro.obs.export import validate_chrome_trace

        with open(diagnosed["chrome"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc, n_ranks=24) == []
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert any(e["name"].startswith("link bytes") for e in counters)

    def test_terminal_rendering(self, capsys):
        rc = cli.main(["diagnose", "--nodes", "1", "--sizes", "50_000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "why-is-this-slow report" in out
        assert "passes ran:" in out

    def test_json_to_stdout(self, capsys):
        from repro.obs.diagnose import validate_report

        rc = cli.main(["diagnose", "--nodes", "1", "--sizes", "50_000",
                       "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_report(doc) == []

    def test_json_report_to_stdout_logs_to_stderr(self, capsys, tmp_path):
        """The shared CLI convention (also covered for `repro.serve`
        stats/query in tests/serve): stdout carries nothing but the
        machine-readable report, every log line goes to stderr."""
        from repro.obs.diagnose import validate_report

        report = str(tmp_path / "r.json")
        rc = cli.main(["diagnose", "--nodes", "1", "--sizes", "50_000",
                       "--json", "--report", report])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # strict parse: pure JSON stdout
        assert validate_report(doc) == []
        assert f"{report}: diagnosis report" in captured.err


class TestTraceIn:
    @pytest.fixture(scope="class")
    def trace_path(self, instrumented_fig5, tmp_path_factory):
        _, _, trace, _ = instrumented_fig5
        path = str(tmp_path_factory.mktemp("tin") / "fig5.trace")
        trace.dump(path)
        return path

    def test_diagnose_from_trace(self, trace_path, tmp_path, capsys):
        from repro.obs.diagnose import validate_report

        report = str(tmp_path / "r.json")
        rc = cli.main(["diagnose", "--trace-in", trace_path,
                       "--report", report])
        assert rc == 0
        assert "no re-simulation" in capsys.readouterr().err
        with open(report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_report(doc) == []
        assert doc["source"] == "trace"
        assert doc["meta"]["trace"] == trace_path

    def test_tuple_view_never_materialised(self, trace_path, monkeypatch):
        """Diagnosis and export read a loaded trace's columns; the
        recorder's tuple form is never rebuilt for them."""
        from repro.obs.diagnose import diagnose
        from repro.obs.export import chrome_trace_from_timeline
        from repro.obs.timeline import Timeline
        from repro.replay import ReplayTrace
        from tests.replay.test_columnar import forbid_tuples

        forbid_tuples(monkeypatch)
        trace = ReplayTrace.load(trace_path)
        tl = Timeline.from_trace(trace)
        report = diagnose(tl)
        chrome_trace_from_timeline(tl, findings=report["findings"])

    def test_export_from_trace(self, trace_path, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        out = str(tmp_path / "t.json")
        rc = cli.main(["export", "--trace-in", trace_path, "--out", out])
        assert rc == 0
        assert "no re-simulation" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        x = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert x  # collective spans reconstructed from the trace


class TestBadInputs:
    """A corrupt trace or snapshot is the parser's one-line error (exit
    2), the way ``python -m repro.replay`` reports it — no traceback."""

    @staticmethod
    def _refused(argv, path, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(lines) == 1 and path in lines[0], err

    @pytest.mark.parametrize("command", ["top", "heatmap", "diagnose",
                                         "export"])
    def test_truncated_trace(self, exported, command, tmp_path, capsys):
        with open(exported["cell"], "rb") as fh:
            raw = fh.read()
        cut = str(tmp_path / "cut.trace")
        with open(cut, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        argv = {"top": ["top", cut], "heatmap": ["heatmap", cut],
                "diagnose": ["diagnose", "--trace-in", cut],
                "export": ["export", "--trace-in", cut,
                           "--out", str(tmp_path / "t.json")]}[command]
        self._refused(argv, cut, capsys)

    @pytest.mark.parametrize("body", ["{nope", '{"counters": [1, 2]}',
                                      '{"counters": {"x": "1"}}'])
    def test_malformed_snapshot(self, exported, body, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(body)
        self._refused(["top", exported["cell"], "--metrics", str(bad)],
                      str(bad), capsys)

    @pytest.mark.parametrize("body", [b"{nope", b"\x80"])
    def test_validate_not_json(self, body, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_bytes(body)
        self._refused(["validate", str(bad)], str(bad), capsys)
