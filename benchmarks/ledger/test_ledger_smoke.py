"""Self-test of the ledger benchmark (tiny ``--quick`` sizes).

Outside tier-1's ``testpaths``; run with ``pytest benchmarks/ledger``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHARES = ("engine.switch_share", "match.share", "network.transfer_share",
          "pml.share", "sim.unattributed_share")


def _run(workload, trace, out_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--quick",
         "--seconds", "1", "--trace", str(trace), "-o", str(out_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), doc


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return {w: _run(w, 1, tmp / f"{w}.json") + (tmp / f"{w}.json",)
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_name_once(traced, workload):
    line, doc, _ = traced[workload]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    # json.loads keeps the last duplicate, so compare against the raw
    # count of names too: exactly once each.
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        got = line["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])
    record = doc["workloads"][workload]
    for spec in SPEC["end_to_end"]:
        row = record["metrics"][spec["name"]]
        assert math.isfinite(row["value"]) and row["value"] > 0
        assert row["bound"] == spec["bound"]
    assert doc["claim"] is None and list(doc)[-1] == "claim"
    assert doc["host"]["nproc"] and doc["host"]["python"]


def test_every_per_layer_name_is_measured_somewhere(traced):
    measured = set()
    for _, doc, _ in traced.values():
        for record in doc["workloads"].values():
            measured.update(record["metrics"])
    missing = [m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]
               if m["name"] not in measured]
    assert not missing


@pytest.mark.parametrize("workload", ["sim_coll", "sim_p2p", "sim_scale"])
def test_ledger_shares_sum_to_one(traced, workload):
    line, _, _ = traced[workload]
    total = sum(line["metrics"][name]["value"] for name in SHARES)
    assert abs(total - 1.0) <= 0.02


def test_untraced_run_reports_exactly_the_end_to_end_metrics(tmp_path):
    line, _ = _run("sim_scale", 0, tmp_path / "r.json")
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_compare_of_a_file_against_itself_reports_no_regression(traced):
    for _, _, path in traced.values():
        proc = subprocess.run([sys.executable, COMPARE, str(path), str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout
        assert "REGRESSION" not in proc.stdout


def test_compare_flags_a_regression_beyond_the_bound(traced, tmp_path):
    _, doc, path = traced["sim_scale"]
    worse = json.loads(json.dumps(doc))
    row = worse["workloads"]["sim_scale"]["metrics"]["peak_rss_mb"]
    for key in ("value", "q1", "q3", "min", "max"):
        row[key] *= 1.0 + 2 * row["bound"]
    worse_path = tmp_path / "worse.json"
    worse_path.write_text(json.dumps(worse))
    proc = subprocess.run([sys.executable, COMPARE, str(path), str(worse_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and "REGRESSION" in proc.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_coll",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
