"""``python -m repro.experiments`` and ``python -m repro.sweep`` are two
loops over one registry: same cells, same numbers, same tables — and no
flag either parser advertises is ignored."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

from repro.experiments.__main__ import main
from repro.replay.engine import replay
from repro.replay.schema import ReplayTrace
from repro.sweep.cache import canonical_dumps
from repro.sweep.registry import SweepConfig, get_scenario, scenario_names
from repro.sweep.runner import render_reports, run_sweep

SMOKE = SweepConfig(smoke=True)


def _same(a, b):
    """Equality that looks inside dataclass fields (Fig. 2's are arrays)."""
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            np.array_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("name", scenario_names())
def test_result_survives_the_cache_codec(name, computed):
    """decode(encode(x)) == x through the cache's canonical JSON, so a
    cached cell renders what a fresh one does."""
    spec = get_scenario(name)
    result = computed(name, spec.enumerate_cells(SMOKE)[0])
    payload = spec.encode(result)
    assert json.loads(canonical_dumps(payload)) == payload
    assert _same(spec.decode(json.loads(canonical_dumps(payload))), result)


@pytest.fixture(scope="module")
def sweep_tables():
    report = run_sweep(None, jobs=1, use_cache=False, config=SMOKE)
    assert report.totals["failed"] == 0
    return render_reports(report)


# table1 is wall-clock: two runs never print the same seconds.
@pytest.mark.parametrize("name, scenario", [
    *((n, n) for n in scenario_names() if n != "table1"), ("fig3", "fig2")])
def test_cli_prints_the_sweeps_table(name, scenario, sweep_tables, capsys):
    assert main([name, "--smoke"]) == 0
    assert capsys.readouterr().out == sweep_tables[scenario] + "\n"


def test_trace_out_records_a_verifiable_trace(tmp_path, capsys):
    path = str(tmp_path / "fig2.trace")
    assert main(["fig2", "--smoke", "--trace-out", path]) == 0
    trace = ReplayTrace.load(path)
    assert trace.meta["workload"] == "fig2"
    assert replay(trace, verify=True).n_messages > 0


@pytest.mark.parametrize("name", ["table1", "whatif", "all"])
def test_trace_out_refused_where_it_cannot_record(name, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--smoke", "--trace-out", str(tmp_path / "x.trace")])
    assert exc.value.code != 0
    assert "--trace-out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("app", ["cg", "stencil", "microbench"])
@pytest.mark.parametrize("flag", ["--trace-out", "--trace-in"])
def test_demo_mains_do_not_advertise_trace_flags(app, flag, tmp_path, capsys):
    app_main = importlib.import_module(f"repro.apps.{app}").main
    with pytest.raises(SystemExit) as exc:
        app_main([flag, str(tmp_path / "x.trace")])
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err
