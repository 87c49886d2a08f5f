"""The import rule (DESIGN.md): an entry point's import closure is what
it runs.  ``scipy.stats`` (0.65 s, 47 MB) serves one call in
``fig4_overhead.run_point`` and ``scipy.sparse`` the code that builds a
sparse matrix, so neither may be loaded by importing an entry point that
does not get that far — and both must still load when the function that
needs them is called from a cold interpreter.

Module names in a fresh interpreter's ``sys.modules``, not wall-clock:
this cannot flake, and the next stray module-level import fails here
instead of surfacing as ``setup_s`` in the ledger.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
HEAVY = ("scipy.stats", "scipy.sparse")

#: entry point -> the heavy modules importing it must not load
BUDGET = {
    "repro.simmpi": HEAVY,
    "repro.sweep": HEAVY,
    "repro.sweep.cli": HEAVY,
    "repro.replay.cli": HEAVY,
    "repro.serve.cli": HEAVY,
    "repro.serve.server": HEAVY,
    "repro.serve.workers": HEAVY,
    "repro.obs.cli": HEAVY,
    "repro.experiments.fig5_collectives": HEAVY,
    "repro.experiments.__main__": ("scipy.stats",),
}


def _cold(body: str, result: str = "None") -> dict:
    """Run ``body`` in a fresh interpreter; returns which of ``HEAVY`` it
    left in ``sys.modules`` and the value of the expression ``result``."""
    code = (f"import json, sys\n{body}\n"
            f"print(json.dumps({{'result': {result}, 'loaded': "
            f"[m for m in {HEAVY!r} if m in sys.modules]}}))")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(BUDGET))
def test_entry_point_closure_has_no_heavy_import(entry):
    stray = sorted(set(_cold(f"import {entry}")["loaded"])
                   & set(BUDGET[entry]))
    assert not stray, (
        f"importing {entry} loads {stray}: import it in the function that "
        f"calls it (DESIGN.md, Import rule)")


def test_lazy_package_still_exposes_every_figure():
    got = _cold(
        "import repro.experiments as e\n"
        "early = [m for m in sys.modules if m.startswith(e.__name__ + '.fig')]\n"
        "named = {name: getattr(e, name).__name__ for name in e.__all__}",
        result="[early, named]")
    early, named = got["result"]
    assert early == []
    assert named == {
        "full_scale": "full_scale", "render_table": "render_table",
        **{n: f"repro.experiments.{n}" for n in (
            "fig2_counters", "fig4_overhead", "fig5_collectives",
            "fig6_allgather", "fig7_cg", "table1_treematch")}}
    assert got["loaded"] == []  # naming a figure still computes nothing


def test_fig4_welch_ci_from_cold_is_bit_equal_to_the_golden():
    """The lazy import must not change which ``t.ppf`` runs: the cell
    ``tests/golden/apps_workloads.fig4_cell`` pins, computed where
    nothing had imported scipy before ``run_point`` did."""
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "apps_golden.json"), encoding="utf-8") as fh:
        want = json.load(fh)["fig4_cell"]["results"]
    got = _cold(
        "from repro.experiments import fig4_overhead\n"
        "cold = 'scipy.stats' not in sys.modules\n"
        "p = fig4_overhead.run_point(2, 100, reps=4, seed=0)",
        result="[cold, p.ci95_us.hex(), p.mean_diff_us.hex()]")
    assert got["result"] == [True, want["ci95_us"], want["mean_diff_us"]]
    assert "scipy.stats" in got["loaded"]


def test_treematch_builds_its_sparse_matrices_from_cold():
    """Dense input never loads scipy; sparse input (Table 1) still works
    from a cold interpreter, where only its caller imported scipy."""
    got = _cold(
        "import numpy as np\n"
        "from repro.placement.treematch import treematch\n"
        "from repro.simmpi.topology import Topology\n"
        "m = np.arange(64.0).reshape(8, 8)\n"
        "topo = Topology([('node', 2), ('socket', 2), ('core', 2)])\n"
        "dense = [sorted(treematch(m, topo)),\n"
        "         sorted(treematch(m[:6, :6], topo, allowed_pus=range(6)))]\n"
        "after_dense = [h for h in ('scipy.stats', 'scipy.sparse')\n"
        "               if h in sys.modules]\n"
        "import scipy.sparse as sp\n"
        "s = sp.csr_matrix(m)\n"
        "sparse = [sorted(treematch(s, topo)),\n"
        "          sorted(treematch(s[:6, :6], topo, allowed_pus=range(6)))]",
        result="[dense, after_dense, sparse]")
    placed = [list(range(8)), list(range(6))]
    assert got["result"] == [placed, [], placed]
    assert got["loaded"] == ["scipy.sparse"]


@pytest.mark.parametrize("cell", [
    "from repro.experiments import fig5_collectives\n"
    "fig5_collectives.run_cell('reduce', 1, sizes=(1000,), reps=1)",
    "from repro.experiments import fig7_cg\n"
    "fig7_cg.run_one('S', 32, 'rr')",
], ids=["fig5_reduce", "fig7_cg"])
def test_reordering_cell_from_cold_loads_no_scipy(cell):
    """Monitor, TreeMatch on the dense matrix, re-run: no heavy module."""
    assert _cold(cell)["loaded"] == []


_NUMPY_EXTRAS = "[m for m in ('numpy.random', 'numpy.ma') if m in sys.modules]"


def test_a_cell_without_jitter_loads_no_numpy_random_or_ma():
    """Without jitter the network never builds its generator, and route
    construction counts sharing depths with sets, not ``np.unique``."""
    got = _cold(
        "from repro.experiments import fig5_collectives\n"
        "fig5_collectives.run_cell('reduce', 1, sizes=(1000,), reps=1)",
        result=_NUMPY_EXTRAS)
    assert got["result"] == []


@pytest.mark.parametrize("kwargs", ["jitter=0.1", "binding='random', seed=4"])
def test_jittered_and_randomly_bound_clusters_still_run_from_cold(kwargs):
    got = _cold(
        "import numpy as np\n"
        "from repro.simmpi import SUM, Cluster, Engine\n"
        "def program(comm):\n"
        "    yield from comm.co_barrier()\n"
        "    return (yield from comm.co_allreduce(np.float64(1.0), SUM))\n"
        f"engine = Engine(Cluster.plafrim(2, n_ranks=8, {kwargs}), seed=3)\n"
        "out = [float(x) for x in engine.run(program)]",
        result=f"[out, {_NUMPY_EXTRAS}]")
    out, loaded = got["result"]
    assert out == [8.0] * 8
    assert "numpy.random" in loaded
