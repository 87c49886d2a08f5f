"""Hot-path equivalence tests, blocking spelling.

The optimized engine (precomputed route tables, batched monitoring,
fused send materialization) must be *bit-exact* against the golden
snapshots captured from the seed implementation: every per-rank virtual
clock, monitoring matrix digest, NIC counter, and switch count.  The
workloads here are plain-callable programs, so they also pin the thread
adapter: ``tests/simmpi/test_engine_eventloop.py`` runs the same
programs written as generators against the same file.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.simmpi import Cluster, Engine

from scripts.capture_hotpath_golden import snapshot_engine
from tests.golden.hotpath_workloads import WORKLOADS

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "hotpath_golden.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_matches_seed_golden(name, golden):
    """Clocks, matrices, NIC counters, and switches match the seed
    implementation bit-for-bit (floats compared in hex form)."""
    engine, results = WORKLOADS[name]()
    snap = snapshot_engine(engine)
    snap["results"] = results
    expected = golden[name]
    # Compare field by field for a readable diff on failure.
    assert sorted(snap) == sorted(expected)
    for key in expected:
        assert snap[key] == expected[key], f"{name}: {key} diverged from seed"


def test_messages_counter():
    """``engine.messages`` counts injected messages: one sendrecv per
    rank on a pure point-to-point program is exactly ``n_ranks``."""
    cluster = Cluster.plafrim(1, binding="packed")
    engine = Engine(cluster, seed=0)

    def program(comm):
        comm.sendrecv(None, dest=(comm.rank + 1) % comm.size,
                      source=(comm.rank - 1) % comm.size, nbytes=100)

    assert engine.messages == 0
    engine.run(program)
    assert engine.messages == cluster.n_ranks
    assert engine.switches > 0
