"""The columnar event store: schema-2 round-trips, the committed
fixtures, compile/replay straight from the columns, and truncation.

The digests below were captured with the last text-format build (the
parent of the columnar change): they pin the interpreter's clocks on a
permuted binding, which no other golden reaches.  The two fixtures were
recorded as schema-1 text and converted to schema 2 once, by a build
that still read both; their clocks are those of the text files.
"""

import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import TraceSchemaError
from repro.replay import autorecord, schema
from repro.replay.engine import CATEGORIES, compile_trace, replay
from repro.replay.schema import COLUMN_LAYOUT, K_B, ReplayTrace
from tests.replay.conftest import columns_of
from tests.replay.reference import reference_replay

DATA = pathlib.Path(__file__).resolve().parent / "data"
FIXTURES = ("fig5.trace", "osc.trace")
#: sha256[:16] over the hex clocks: (exact replay, interpreter under
#: ``default_rng(5).permutation(binding)``), from the parent build.
PARENT_CLOCKS = {
    "fig5.trace": ("8a76ef4832125efd", "02698e3dd1b8f232"),
    "osc.trace": ("8969fba3f64ad84a", "ce81bae7b45b98d9"),
    "fig5_shaped": ("463d7313d157b7dd", "c598ff45323bf3ab"),
    "osc_and_overhead": ("ee40938a7f2fbd6d", "d863e753f1fb97e8"),
}


def _digest(clocks) -> str:
    text = " ".join(float(c).hex() for c in clocks)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _permuted(trace):
    return [int(p) for p in np.random.default_rng(5).permutation(trace.binding)]


def _through_schema_2(trace, tmp_path) -> ReplayTrace:
    path = str(tmp_path / "roundtrip.trace")
    trace.dump(path)
    return ReplayTrace.load(path)


def _hand_built() -> ReplayTrace:
    """Every event kind, and the floats a text format gets wrong."""
    tiny = 5e-324                       # smallest subnormal
    events = [
        ("B", 0, 7, "bcast", "binomial", 0, 4096, 2),
        ("B", 1, 7, "bcast", "binomial", 0, -1, 2),
        ("S", 0, 1, 4096, "coll", "", 0, 0.0, -0.0),
        ("R", 1, 0, 1.5e-300, tiny),
        ("E", 0),
        ("E", 1),
        ("B", 2, 0, "barrier", "", -1, -1, 0),
        ("P", 2, 3, 2 ** 40, "osc", 0.25, 0.25),
        ("G", 3, 2, 0, "", 0.1 + 0.2, -tiny),
        ("S", 3, 0, 0, "p2p", "p2p", 1, 1e300, 3.0),
        ("S", 1, 2, 17, "coll", "p2p", 2, float.fromhex("0x1.fffffffffffffp-1"),
         0.0),
        ("R", 0, 1, 2.0, 0.0),
        ("E", 2),
        ("F", 0, 2.5, 0.5), ("F", 1, 1.0, 0.0), ("F", 2, -0.0, -0.0),
        ("F", 3, 1e300, 0.0),
    ]
    return ReplayTrace(
        world_size=4, topology=[["node", 2], ["core", 2]],
        binding=[0, 1, 2, 3],
        params={"links": {"cluster": [1e-6, 1e9], "node": [1e-7, 1e10],
                          "self": [1e-8, 1e11]},
                "send_overhead": 1e-7, "recv_overhead": 1e-7,
                "nic_serialize": True, "mem_bandwidth": None,
                "jitter": 0.0, "lanes": 1},
        seed=3, monitoring_overhead=1e-6, comms={7: [0, 1], 0: [0, 1, 2, 3]},
        clocks=[2.5, 1.0, -0.0, 1e300], columns=columns_of(events),
        meta={"workload": "hand-built", "note": "µ"})


def _bits(events):
    """Events with floats replaced by their hex (-0.0 != 0.0 here)."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in ev)
            for ev in events]


def assert_same_columns(got: ReplayTrace, want: ReplayTrace) -> None:
    """The two event streams are the same columns, array for array: same
    dtype, same bytes (so ``t``/``gap`` by bit pattern: -0.0 != 0.0
    here), same table of collective signatures."""
    a, b = got.columns(), want.columns()
    assert a.colls == b.colls
    for name, dtype in COLUMN_LAYOUT:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.dtype(dtype), name
        assert x.tobytes() == y.tobytes(), name


def forbid_tuples(monkeypatch) -> None:
    """From here on, building an event tuple (``trace.events``) fails
    the test: the code under test reads the columns."""
    def built(row, colls):
        raise AssertionError("an event tuple was built")
    monkeypatch.setattr(schema, "_decode", built)


# ---------------------------------------------------------------------------
# round trips


def test_schema_2_roundtrip_is_bit_exact(tmp_path):
    trace = _hand_built()
    back = _through_schema_2(trace, tmp_path)
    assert back.n_events == len(back.events) == len(trace.events)
    assert _bits(back.events) == _bits(trace.events)
    assert_same_columns(back, trace)
    assert [c.hex() for c in back.clocks] == [c.hex() for c in trace.clocks]
    assert back.comms == trace.comms and back.meta == trace.meta
    # ... and dumping the loaded trace reproduces the file byte for byte.
    again = str(tmp_path / "again.trace")
    back.dump(again)
    assert open(again, "rb").read() == \
        open(str(tmp_path / "roundtrip.trace"), "rb").read()


def test_recorded_trace_roundtrip(fig5_trace, tmp_path):
    back = _through_schema_2(fig5_trace, tmp_path)
    assert_same_columns(back, fig5_trace)
    assert back.clocks == fig5_trace.clocks
    assert back.n_events == fig5_trace.n_events == len(fig5_trace.events)


def test_empty_trace_roundtrip(tmp_path):
    trace = _hand_built()
    empty = ReplayTrace(
        world_size=4, topology=trace.topology, binding=trace.binding,
        params=trace.params, seed=0, monitoring_overhead=0.0, comms={},
        clocks=[0.0] * 4, columns=columns_of([]))
    back = _through_schema_2(empty, tmp_path)
    assert back.n_events == 0 and len(back.columns().kind) == 0
    assert list(back.events) == []
    assert replay(back).clocks == [0.0] * 4


def test_unknown_kind_or_category_cannot_be_dumped():
    """A hand-built event the columns cannot spell never becomes a
    trace: the encoder refuses it."""
    for bad in (("X", 0), ("S", 0, 1, 8, "rdma", "", 9, 0.0, 0.0)):
        with pytest.raises(ValueError, match="unknown"):
            columns_of([bad])


# ---------------------------------------------------------------------------
# the committed fixtures


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_loads_and_verifies(name, tmp_path):
    trace = ReplayTrace.load(str(DATA / name))
    assert trace.n_events == len(trace.events) > 0
    if name.startswith("osc"):
        assert {ev[0] for ev in trace.events} == set("SRPGBEF")
    # Dumping the loaded file writes it back byte for byte.
    again = str(tmp_path / "again.trace")
    trace.dump(again)
    assert open(again, "rb").read() == (DATA / name).read_bytes()
    exact, permuted = PARENT_CLOCKS[name]
    slow, _ = reference_replay(trace, binding=_permuted(trace))
    assert _digest(slow) == permuted
    res = replay(trace, verify=True)
    assert res.clocks == trace.clocks
    assert _digest(res.clocks) == exact
    assert replay(trace, binding=_permuted(trace)).clocks == slow


# ---------------------------------------------------------------------------
# compile and the interpreter, from the columns


def _compile_from_tuples(trace):
    """The per-event compile (reference): for every timed event its
    rank, its operand *resolved* — a message's cost class spelled out, a
    receive's message ordinal — its gap and its ``t``; and the books."""
    n, ovh = trace.world_size, trace.monitoring_overhead
    zeros = lambda: {c: np.zeros((n, n), dtype=np.uint64) for c in CATEGORIES}
    counts, sizes, total_counts, total_sizes = zeros(), zeros(), zeros(), zeros()

    def book(cat, mcat, src, dst, nb):
        total_counts[cat][src, dst] += np.uint64(1)
        total_sizes[cat][src, dst] += np.uint64(nb)
        if mcat:
            counts[mcat][src, dst] += np.uint64(1)
            sizes[mcat][src, dst] += np.uint64(nb)

    messages = [ev for ev in trace.events if ev[0] in "SPG"]
    ordinal = {ev[6]: i for i, ev in enumerate(messages) if ev[0] == "S"}
    timed = []
    for ev in trace.events:
        kind = ev[0]
        if kind in "BE":
            continue
        if kind == "S":
            _, r, dst, nb, cat, mcat, _seq, _t, _gap = ev
            what = ("send", r, dst, nb, bool(mcat and ovh > 0.0))
            book(cat, mcat, r, dst, nb)
        elif kind in "PG":
            _, r, peer, nb, mcat, _t, _gap = ev
            src, dst = (r, peer) if kind == "P" else (peer, r)
            what = ("send" if kind == "P" else "get", src, dst, nb,
                    bool(mcat and ovh > 0.0))
            book("osc", mcat, src, dst, nb)
        elif kind == "R":
            what = ("wait", ordinal.get(ev[2], len(messages)))
        else:
            what = ("finish",)
        timed.append((ev[1], what, ev[-1], ev[-2]))
    return timed, counts, sizes, total_counts, total_sizes, len(messages)


def _resolved(book, trace):
    """A book's timed events in the reference's spelling, with the
    recorded issue times ``trace``'s columns hold."""
    classes = list(zip(*book.classes.tolist()))
    assert len(set(classes)) == len(classes)        # a class appears once

    def what(x):
        if x >= 0:
            return ("wait", x)
        if x < -len(classes):
            return ("finish",)
        src, dst, nb, charged = classes[x]
        get = x + len(classes) < book.n_get         # the get classes lead
        return ("get" if get else "send", src, dst, nb, bool(charged))

    c = trace.columns()
    return [(r, what(x), gap, t) for r, x, gap, t in
            zip(book.rank, book.operand, book.gap, c.t[c.kind < K_B].tolist())]


def _one_sided_recording():
    from tests.golden.hotpath_workloads import osc_and_overhead

    with autorecord.capture() as traces:
        osc_and_overhead()
    return traces[0]


@pytest.mark.parametrize("source", ["fig5_shaped", "osc_and_overhead",
                                    "osc.trace", "hand-built"])
def test_compile_from_columns_equals_per_event_compile(source, fig5_trace,
                                                       tmp_path):
    recorded = {"fig5_shaped": lambda: fig5_trace,
                "osc_and_overhead": _one_sided_recording,
                "osc.trace": lambda: ReplayTrace.load(str(DATA / "osc.trace")),
                "hand-built": _hand_built}[source]()
    timed, counts, sizes, total_counts, total_sizes, n_messages = \
        _compile_from_tuples(recorded)
    for trace in (recorded, _through_schema_2(recorded, tmp_path)):
        trace._compiled = None
        book = compile_trace(trace)
        assert _bits(_resolved(book, trace)) == _bits(timed)
        # The loop reads python scalars, not numpy ones.
        assert {type(v) for col in (book.rank, book.operand) for v in col} \
            <= {int}
        assert {type(v) for v in book.gap} <= {float}
        assert book.classes.dtype == np.int64
        assert book.n_messages == n_messages
        for got, want in ((book.counts, counts), (book.sizes, sizes),
                          (book.total_counts, total_counts),
                          (book.total_sizes, total_sizes)):
            assert list(got) == list(CATEGORIES)
            for c in CATEGORIES:
                assert got[c].dtype == np.uint64
                assert np.array_equal(got[c], want[c])
        assert np.array_equal(trace.byte_matrix(),
                              sum(total_sizes.values()))
        assert np.array_equal(trace.byte_matrix(monitored_only=True),
                              sum(sizes.values()))


def test_shared_gaps_keep_every_bit(tmp_path):
    """Only a gap whose bits are +0.0's reads the shared box: a -0.0
    keeps its sign, a subnormal its value, in both in-memory forms."""
    recorded = _hand_built()
    for trace in (recorded, _through_schema_2(recorded, tmp_path)):
        c = trace.columns()
        gap = c.gap[c.kind < K_B].tolist()
        book = compile_trace(trace)
        assert _bits([book.gap]) == _bits([gap])
        assert {"-0x0.0p+0", "-0x0.0000000000001p-1022"} <= \
            {g.hex() for g in book.gap}
        assert len({id(g) for g in book.gap if g.hex() == "0x0.0p+0"}) == 1


def test_byte_sums_do_not_round_through_float():
    """2**53 + 1 bytes on one pair: a float64-weighted bincount loses
    the last bit."""
    trace = _hand_built()
    big = 2 ** 53
    heavy = ReplayTrace(
        world_size=4, topology=trace.topology, binding=trace.binding,
        params=trace.params, seed=0, monitoring_overhead=0.0, comms={},
        clocks=[0.0] * 4,
        columns=columns_of([("S", 0, 1, big, "p2p", "p2p", 0, 0.0, 0.0),
                            ("S", 0, 1, 1, "p2p", "p2p", 1, 0.0, 0.0)]))
    assert int(heavy.byte_matrix()[0, 1]) == big + 1


@pytest.mark.parametrize("workload", ["fig5_shaped", "osc_and_overhead"])
def test_interpreter_clocks_unchanged_from_the_text_format_build(
        workload, fig5_trace, tmp_path):
    recorded = fig5_trace if workload == "fig5_shaped" \
        else _one_sided_recording()
    exact, permuted = PARENT_CLOCKS[workload]
    perm = _permuted(recorded)
    # The oracle steps the recorder's tuples.
    assert _digest(reference_replay(recorded, exact=True)[0]) == exact
    slow, _ = reference_replay(recorded, binding=perm)
    assert _digest(slow) == permuted
    for trace in (recorded, _through_schema_2(recorded, tmp_path)):
        assert _digest(replay(trace).clocks) == exact
        assert _digest(replay(trace, verify=True).clocks) == exact
        fast = replay(trace, binding=perm)
        assert not fast.exact
        assert fast.clocks == slow
        for c in CATEGORIES:
            assert fast.total_sizes[c] is compile_trace(trace).total_sizes[c]


def test_verify_audits_every_timed_event(fig5_trace):
    """A zero-gap event whose recorded ``t`` is off by one ulp fails."""
    events = list(fig5_trace.events)
    idx = next(i for i, ev in enumerate(events)
               if ev[0] == "R" and ev[-1] == 0.0 and ev[-2] > 0.0)
    ev = events[idx]
    events[idx] = ev[:3] + (np.nextafter(ev[3], 1.0).item(), 0.0)
    from repro.replay.engine import ReplayVerifyError

    tampered = ReplayTrace(
        world_size=fig5_trace.world_size, topology=fig5_trace.topology,
        binding=fig5_trace.binding, params=fig5_trace.params,
        seed=fig5_trace.seed,
        monitoring_overhead=fig5_trace.monitoring_overhead,
        comms=fig5_trace.comms, clocks=fig5_trace.clocks,
        columns=columns_of(events))
    with pytest.raises(ReplayVerifyError, match="1 clock divergences"):
        replay(tampered, verify=True)


# ---------------------------------------------------------------------------
# truncation: explicit error, never a wrong answer


@pytest.fixture(scope="module")
def whole_file():
    """The bytes of the one-sided fixture."""
    return (DATA / "osc.trace").read_bytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_file_cut_anywhere_raises_schema_error(whole_file, tmp_path, data):
    raw = whole_file
    header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    # Bias toward the interesting places: inside the two text lines and
    # just around the header/data boundary, as well as anywhere at all.
    cut = data.draw(st.one_of(
        st.integers(0, len(raw) - 1),
        st.integers(0, header_end + 64).filter(lambda c: c < len(raw))))
    path = str(tmp_path / "cut.trace")
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    with pytest.raises(TraceSchemaError, match="cut.trace"):
        ReplayTrace.load(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flipped_bytes_are_an_error_or_a_finite_answer(whole_file, tmp_path,
                                                       data):
    """1-8 bytes of the column section XORed: the file is refused, or
    every replay and search of it either answers with finite makespans
    or says the trace is inconsistent — no other exception."""
    raw = bytearray(whole_file)
    start = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    n = (len(raw) - start) // 39
    # Anywhere, or in the two sign/exponent bytes of a `t` or `gap` (the
    # two leading float64 columns), which turn a time into NaN, inf,
    # 1e300 or a subnormal.
    where = st.one_of(st.integers(start, len(raw) - 1),
                      st.integers(0, 4 * n - 1).map(
                          lambda i: start + 8 * (i // 2) + 6 + i % 2))
    flips = data.draw(st.lists(st.tuples(where, st.integers(1, 255)),
                               min_size=1, max_size=8))
    for at, mask in flips:
        raw[at] ^= mask
    path = str(tmp_path / "flipped.trace")
    with open(path, "wb") as fh:
        fh.write(raw)
    try:
        trace = ReplayTrace.load(path)
    except TraceSchemaError as exc:
        assert "flipped.trace" in str(exc)
        return
    from repro.replay import what_if_search
    from repro.replay.engine import ReplayError

    try:
        assert np.isfinite(replay(trace).max_clock)
        res = what_if_search(trace, seed=0)
        assert all(np.isfinite(c.makespan) for c in res.candidates)
    except ReplayError:
        pass
