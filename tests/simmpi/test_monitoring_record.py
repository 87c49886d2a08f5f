"""Unit tests for the one monitoring path: ``PmlMonitoring.record``.

Every message — a user point-to-point send, a one-sided transfer, each
segment of a pipelined collective — is one ``record`` call at the
moment ``Engine._materialize`` sends it.  So the live state must equal
what a recording of the run says was monitored: per-category matrices
and epochs alike, however the monitoring mode moves during the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.replay import autorecord
from repro.replay.schema import CAT_CODE, CATS, K_G, K_P, K_S
from repro.simmpi import SUM, Cluster, Engine
from repro.simmpi.pml_monitoring import CATEGORIES, PmlMonitoring
from tests.golden.hotpath_workloads import WORKLOADS


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("category", CATEGORIES)
def test_records_accumulate_per_peer(mode, category):
    """N records to one peer land in one matrix cell — N messages,
    their summed bytes — and move the epoch N times."""
    pml = PmlMonitoring(4)
    pml.set_mode(mode)
    landed = "p2p" if mode == 1 and category == "coll" else category
    before = pml.epoch(landed)
    sizes = [0, 17, 1024, 17, 5]  # includes a zero-length message
    for nbytes in sizes:
        assert pml.record(1, 3, nbytes, category)
    assert pml.totals(landed) == (len(sizes), sum(sizes))
    assert pml.counts[landed][1, 3] == len(sizes)
    assert pml.sizes[landed][1, 3] == sum(sizes)
    assert pml.epoch(landed) == before + len(sizes)


def test_unknown_category_rejected_even_when_disabled():
    """Regression: the category check is unconditional — a typo in a
    collective's category must fail fast even while monitoring is off
    (mode 0), not silently pass until someone enables a session."""
    pml = PmlMonitoring(2)
    assert pml.mode == 0
    with pytest.raises(ValueError, match="unknown category"):
        pml.record(0, 1, 10, "bogus")


def test_negative_values_rejected():
    """A negative size is refused at every mode, 0 included."""
    for mode in (0, 2):
        pml = PmlMonitoring(2)
        pml.set_mode(mode)
        with pytest.raises(ValueError, match="nbytes"):
            pml.record(0, 1, -1, "p2p")


def test_mode0_records_nothing():
    pml = PmlMonitoring(2)
    assert not pml.record(0, 1, 10, "p2p")
    assert not pml.record(0, 1, 30, "coll")
    for cat in CATEGORIES:
        assert pml.totals(cat) == (0, 0)
        assert pml.epoch(cat) == 0


def test_mode1_remaps_coll_to_p2p():
    """Mode 1 draws no internal/external distinction: collective-
    internal traffic lands in the p2p matrices."""
    pml = PmlMonitoring(4)
    pml.set_mode(1)
    for _ in range(4):
        assert pml.record(2, 0, 100, "coll")
    assert pml.totals("coll") == (0, 0)
    assert pml.totals("p2p") == (4, 400)
    assert pml.counts["p2p"][2, 0] == 4
    assert pml.sizes["p2p"][2, 0] == 400
    assert (pml.epoch("p2p"), pml.epoch("coll")) == (4, 0)


def test_mid_stream_mode_flip():
    """Each message is gated by the mode in force when it is recorded:
    a mode-0 message vanishes and a mode-1 collective message is
    remapped, even between two segments to the same peer."""
    pml = PmlMonitoring(4)
    pml.set_mode(2)
    assert pml.record(1, 2, 100, "coll")  # -> coll
    pml.set_mode(1)
    assert pml.record(1, 2, 200, "coll")  # -> remapped to p2p
    pml.set_mode(0)
    assert not pml.record(1, 2, 400, "coll")  # dropped

    assert pml.totals("coll") == (1, 100)
    assert pml.totals("p2p") == (1, 200)
    assert pml.totals("osc") == (0, 0)


def test_epochs_move_only_for_written_categories():
    """Snapshot layers rely on per-category epochs to skip unchanged
    matrices; records in one category must not bump the others, and
    each record bumps its own once."""
    pml = PmlMonitoring(4)
    pml.set_mode(2)
    before = {c: pml.epoch(c) for c in CATEGORIES}
    pml.record(0, 1, 10, "p2p")
    pml.record(0, 1, 20, "p2p")
    assert pml.epoch("p2p") == before["p2p"] + 2
    assert pml.epoch("coll") == before["coll"]
    assert pml.epoch("osc") == before["osc"]


@pytest.mark.parametrize("mode, booked", [
    (0, {"p2p": 0, "coll": 0, "osc": 0}),
    (1, {"p2p": 1, "coll": 1, "osc": 3}),
    (2, {"p2p": 1, "coll": 2, "osc": 3}),
])
def test_record_returns_the_booked_code(mode, booked):
    """``record`` answers the code of the matrix it booked the message
    in — 0 for none, else its index in ``schema.CATS`` — with mode 1's
    ``coll -> p2p`` remap applied."""
    pml = PmlMonitoring(4)
    pml.set_mode(mode)
    for category, code in booked.items():
        assert pml.record(0, 1, 10, category) == code
        assert CATS[code] == ("" if mode == 0 else
                              "p2p" if mode == 1 and category == "coll"
                              else category)


def test_category_codes_have_one_definition():
    assert CATS == ("",) + CATEGORIES
    for code, category in enumerate(CATEGORIES, start=1):
        assert CATS[code] == category and CAT_CODE[category] == code


def test_observer_slot_sees_mode0_traffic():
    """The engine's observer slot sees every message, monitored or not,
    once, after its transfer: mode-0 traffic arrives with mcat 0 and
    the sender's clock before the send."""
    engine = Engine(Cluster.plafrim(1, n_ranks=4, binding="packed"), seed=0)
    assert engine._observe is None
    events = []
    engine._observe = lambda kind, proc, peer, nbytes, cat, mcat, t_pre, \
        msg: events.append((kind, proc.rank, peer, nbytes, cat, mcat, t_pre,
                            proc.clock > t_pre, msg is not None))

    def program(comm):
        if comm.rank == 0:
            yield from comm.co_compute(1.5)
            yield from comm.co_send(None, dest=1, nbytes=10)    # mode 0
            yield from comm.co_sync()
            comm.engine.pml.set_mode(2)
            yield from comm.co_send(None, dest=2, nbytes=300)
        elif comm.rank in (1, 2):
            yield from comm.co_recv(source=0)

    engine.run(program)
    assert events == [
        ("S", 0, 1, 10, "p2p", 0, 1.5, True, True),
        ("S", 0, 2, 300, "p2p", CAT_CODE["p2p"], events[1][6], True, True),
    ]
    assert events[1][6] > 1.5
    assert engine.pml.totals("p2p") == (1, 300)


@pytest.mark.parametrize("monitored", [False, True])
def test_segmented_bcast_records_every_segment_or_nothing(monitored):
    """Engine level: with monitoring on, each decomposed segment of a
    tree broadcast is one record; with it off, nothing is recorded."""
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
        assert engine.pml.epoch("coll") == engine.messages
    else:
        assert (n_msgs, n_bytes) == (0, 0)


# -- the live state equals the recording -------------------------------------

def _recorded_matrices(trace, n):
    """Per category, the (count, bytes) matrices of the rows the
    recording says were monitored in it.  Bytes flow origin -> target,
    except that a get's flow target -> origin (as monitored)."""
    c = trace.columns()
    moved = (c.kind == K_S) | (c.kind == K_P) | (c.kind == K_G)
    is_get = c.kind[moved] == K_G
    src = np.where(is_get, c.peer[moved], c.rank[moved])
    dst = np.where(is_get, c.rank[moved], c.peer[moved])
    nbytes = c.nbytes[moved].astype(np.uint64)
    mcat = c.mcat[moved]
    out = {}
    for cat in CATEGORIES:
        on = mcat == CAT_CODE[cat]
        counts = np.zeros((n, n), dtype=np.uint64)
        sizes = np.zeros((n, n), dtype=np.uint64)
        np.add.at(counts, (src[on], dst[on]), 1)
        np.add.at(sizes, (src[on], dst[on]), nbytes[on])
        out[cat] = counts, sizes
    return out


#: 40 MB cuts into 10 segments of 4 MB (at most 4 MiB each).
_SEGMENT = 4_000_000


def _flip_mid_collective(op, t1, t2):
    """Ranks 1..7 run one segmented ``op`` on their own communicator
    while rank 0, outside it, flips the mode 2 -> 1 at ``t1`` and
    1 -> 0 at ``t2`` (virtual seconds, giving way first so each flip
    lands at its point in the global order)."""

    def program(comm):
        me = comm.rank
        sub = yield from comm.co_split(0 if me else -1, me)
        if me == 0:
            proc = yield from comm.co_sync()
            for mode, t in ((1, t1), (0, t2)):
                yield from comm.co_compute(t - proc.clock)
                yield from comm.engine.co_give_way(proc)
                comm.engine.pml.set_mode(mode)
        elif op == "bcast":
            yield from sub.co_bcast(
                None, root=0, nbytes=40_000_000 if sub.rank == 0 else None)
        else:
            yield from sub.co_reduce(None, SUM, root=0, nbytes=40_000_000)

    with autorecord.capture() as traces:
        engine = Engine(Cluster.plafrim(2, n_ranks=8, binding="rr"), seed=0)
        engine.pml.set_mode(2)
        engine.run(program)
    return engine, traces[0]


#: Flip times (virtual seconds) that fall inside each collective.
_FLIPS = {"bcast": (0.02, 0.035), "reduce": (0.015, 0.028)}


@pytest.mark.parametrize("op", sorted(_FLIPS))
def test_mode_flip_mid_collective_matches_recording(op):
    """A mode flip in the middle of a segmented collective splits its
    segments between ``coll``, remapped ``p2p`` and unmonitored, and
    the live matrices and epochs say exactly what the recording does."""
    engine, trace = _flip_mid_collective(op, *_FLIPS[op])
    c = trace.columns()
    segments = (c.kind == K_S) & (c.cat == CAT_CODE["coll"]) & \
        (c.nbytes == _SEGMENT)
    # The flips fell inside the collective: its segments were charged
    # under all three modes.
    assert set(c.mcat[segments].tolist()) == {0, CAT_CODE["p2p"],
                                               CAT_CODE["coll"]}
    recorded = _recorded_matrices(trace, engine.n_ranks)
    for cat in CATEGORIES:
        counts, sizes = recorded[cat]
        assert np.array_equal(engine.pml.counts[cat], counts), cat
        assert np.array_equal(engine.pml.sizes[cat], sizes), cat
        assert engine.pml.epoch(cat) == int(counts.sum()), cat


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_live_epochs_equal_recorded_rows(name):
    """Over the hot-path workloads (no ``pml.reset()``), a category's
    live epoch is the number of rows the recording monitored in it."""
    with autorecord.capture() as traces:
        engine, _ = WORKLOADS[name]()
    assert len(traces) == 1
    recorded = _recorded_matrices(traces[0], engine.n_ranks)
    for cat in CATEGORIES:
        assert engine.pml.epoch(cat) == int(recorded[cat][0].sum()), cat
