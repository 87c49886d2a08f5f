"""Unit tests for batched monitoring (record_batch / PeerBatch).

The acceptance property: a ``record_batch`` of N messages must be
indistinguishable — matrices, totals, epochs — from N individual
``record`` calls.  Plus the regressions the batching refactor guards:
category validation fires even at mode 0, per-segment gating evaluates
the mode at each materialization (a session can open or close mid-
batch), and mode 1 remaps collective-internal traffic to p2p.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi.pml_monitoring import CATEGORIES, PeerBatch, PmlMonitoring


def _assert_same_state(a: PmlMonitoring, b: PmlMonitoring) -> None:
    for cat in CATEGORIES:
        assert a.totals(cat) == b.totals(cat)
        assert np.array_equal(a.counts[cat], b.counts[cat])
        assert np.array_equal(a.sizes[cat], b.sizes[cat])


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("category", CATEGORIES)
def test_batch_matches_individual_records(mode, category):
    """record_batch(src, dst, N, total) == N record(src, dst, ...) calls."""
    individual = PmlMonitoring(4)
    batched = PmlMonitoring(4)
    individual.set_mode(mode)
    batched.set_mode(mode)

    sizes = [0, 17, 1024, 17, 5]  # includes a zero-length message
    for nbytes in sizes:
        assert individual.record(1, 3, nbytes, category)
    assert batched.record_batch(1, 3, len(sizes), sum(sizes), category)

    _assert_same_state(individual, batched)


def test_peer_batch_matches_individual_records():
    """The full PeerBatch protocol (open, gate each segment, close)
    lands the same state as individually recorded segments."""
    individual = PmlMonitoring(4)
    batched = PmlMonitoring(4)
    individual.set_mode(2)
    batched.set_mode(2)

    batch = PeerBatch(0, 2, "coll")
    for nbytes in (100, 200, 300):
        individual.record(0, 2, nbytes, "coll")
        assert batched.note_batched(batch, nbytes)
    batched.close_batch(batch)

    _assert_same_state(individual, batched)
    assert batch.tallies == [0, 0, 0, 0]  # close resets


def test_unknown_category_rejected_even_when_disabled():
    """Regression: the category check is unconditional — a typo in a
    collective's category must fail fast even while monitoring is off
    (mode 0), not silently pass until someone enables a session."""
    pml = PmlMonitoring(2)
    assert pml.mode == 0
    with pytest.raises(ValueError, match="unknown category"):
        pml.record(0, 1, 10, "bogus")
    with pytest.raises(ValueError, match="unknown category"):
        pml.record_batch(0, 1, 2, 20, "bogus")
    with pytest.raises(ValueError, match="unknown category"):
        PeerBatch(0, 1, "bogus")


def test_negative_values_rejected():
    pml = PmlMonitoring(2)
    with pytest.raises(ValueError):
        pml.record(0, 1, -1, "p2p")
    with pytest.raises(ValueError):
        pml.record_batch(0, 1, -1, 10, "p2p")
    with pytest.raises(ValueError):
        pml.record_batch(0, 1, 1, -10, "p2p")


def test_mode0_records_nothing():
    pml = PmlMonitoring(2)
    assert not pml.record(0, 1, 10, "p2p")
    assert not pml.record_batch(0, 1, 3, 30, "coll")
    batch = PeerBatch(0, 1, "coll")
    assert not pml.note_batched(batch, 10)
    assert batch.tallies == [0, 0, 0, 0]
    for cat in CATEGORIES:
        assert pml.totals(cat) == (0, 0)


def test_empty_batch_records_nothing():
    pml = PmlMonitoring(2)
    pml.set_mode(2)
    assert not pml.record_batch(0, 1, 0, 0, "p2p")
    assert pml.totals("p2p") == (0, 0)


def test_mode1_remaps_coll_to_p2p():
    """Mode 1 draws no internal/external distinction: collective-
    internal traffic lands in the p2p matrices."""
    pml = PmlMonitoring(4)
    pml.set_mode(1)
    pml.record_batch(2, 0, 4, 400, "coll")
    assert pml.totals("coll") == (0, 0)
    assert pml.totals("p2p") == (4, 400)
    assert pml.counts["p2p"][2, 0] == 4
    assert pml.sizes["p2p"][2, 0] == 400


def test_mid_batch_mode_flip():
    """Each batched segment is gated at its own materialization point:
    segments sent while a session is suspended (mode 0) vanish, and
    mode-1 segments of a coll batch are remapped — all within one
    batch."""
    pml = PmlMonitoring(4)
    batch = PeerBatch(1, 2, "coll")

    pml.set_mode(2)
    assert pml.note_batched(batch, 100)  # -> coll
    pml.set_mode(1)
    assert pml.note_batched(batch, 200)  # -> remapped to p2p
    pml.set_mode(0)
    assert not pml.note_batched(batch, 400)  # dropped
    pml.close_batch(batch)

    assert pml.totals("coll") == (1, 100)
    assert pml.totals("p2p") == (1, 200)
    assert pml.totals("osc") == (0, 0)


def test_epochs_move_only_for_written_categories():
    """Snapshot layers rely on per-category epochs to skip unchanged
    matrices; records in one category must not bump the others."""
    pml = PmlMonitoring(4)
    pml.set_mode(2)
    before = {c: pml.epoch(c) for c in CATEGORIES}
    pml.record(0, 1, 10, "p2p")
    pml.record_batch(0, 1, 2, 20, "p2p")
    assert pml.epoch("p2p") > before["p2p"]
    assert pml.epoch("coll") == before["coll"]
    assert pml.epoch("osc") == before["osc"]


def test_trace_hook_sees_multiplicity_and_mode0_traffic():
    """The trace hook fires before the mode gate (tracers see disabled
    traffic) and a batch is one event carrying its count."""
    pml = PmlMonitoring(4)
    events = []
    pml.trace_hook = lambda t, src, dst, nbytes, cat, count: events.append(
        (t, src, dst, nbytes, cat, count)
    )

    pml.record(0, 1, 10, "p2p", t=1.5)  # mode 0: dropped but traced
    pml.set_mode(2)
    pml.record_batch(0, 2, 3, 300, "coll", t=2.5)
    batch = PeerBatch(0, 3, "coll")
    pml.note_batched(batch, 50, t=3.5)

    assert events == [
        (1.5, 0, 1, 10, "p2p", 1),
        (2.5, 0, 2, 300, "coll", 3),
        (3.5, 0, 3, 50, "coll", 1),
    ]
    assert pml.totals("p2p") == (0, 0)


@pytest.mark.parametrize("monitored", [False, True])
def test_segmented_bcast_records_every_segment_or_nothing(monitored):
    """Engine level: with monitoring on, each decomposed segment of a
    tree broadcast is one record; with it off, nothing is recorded."""
    from repro.simmpi import Cluster, Engine

    engine = Engine(Cluster.plafrim(2, binding="rr"), seed=0)

    def program(comm):
        if monitored:
            comm.engine.pml.set_mode(2)
        for _ in range(2):
            comm.bcast(None, root=0,
                       nbytes=8_000_000 if comm.rank == 0 else None)

    engine.run(program)
    assert engine.messages > engine.n_ranks   # segmented, not one per rank
    n_msgs, n_bytes = engine.pml.totals("coll")
    if monitored:
        assert n_msgs == engine.messages and n_bytes > 0
    else:
        assert (n_msgs, n_bytes) == (0, 0)
