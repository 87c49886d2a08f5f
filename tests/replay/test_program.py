"""A trace's per-rank program view: ``ReplayTrace.program()`` is each
rank's rows in recorded order, rank after rank — the one place a trace
is regrouped by rank."""

import numpy as np
import pytest

from repro.replay import ReplayTrace
from repro.replay.patterns import apply_substitution
from tests.replay.conftest import columns_of
from tests.replay.test_columnar import DATA, FIXTURES, _hand_built

TRACES = {
    **{name: lambda name=name: ReplayTrace.load(str(DATA / name))
       for name in FIXTURES},
    "hand-built": _hand_built,
    "substituted": lambda: apply_substitution(
        ReplayTrace.load(str(DATA / "fig5.trace")), {"reduce": "binomial"}),
    "no rows": lambda: _hand_built()._with_columns(columns_of([])),
}


@pytest.mark.parametrize("name", TRACES)
def test_program_is_the_stable_rank_sort_cut_per_rank(name):
    trace = TRACES[name]()
    rank = trace.columns().rank
    order, cut = trace.program()
    assert np.array_equal(order, np.argsort(rank, kind="stable"))
    assert np.array_equal(np.diff(cut),
                          np.bincount(rank, minlength=trace.world_size))
    assert cut[0] == 0 and cut[-1] == trace.n_events
    for r in range(trace.world_size):
        mine = order[cut[r]:cut[r + 1]]
        assert (rank[mine] == r).all() and (np.diff(mine) > 0).all()
