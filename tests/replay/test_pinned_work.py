"""How much work a replay does, pinned: an exact replay reads the
recording instead of walking it (and builds no network to walk it on),
a search walks once per re-placed placement, a substituted search
builds its ready-set program order once, and only the substituted
paths cut a trace into per-rank programs."""

import pytest

from repro.replay import ReplayTrace, engine, replay, what_if_search
from repro.replay.engine import ReplayError
from repro.replay.schema import K_F
from tests.replay.reference import reference_replay
from tests.replay.test_columnar import DATA, FIXTURES
from tests.replay.test_engine import _without_first_send


@pytest.fixture(scope="module")
def fig5_fixture():
    return ReplayTrace.load(str(DATA / "fig5.trace"))


def test_a_search_walks_only_the_re_placed_candidates(fig5_fixture,
                                                      monkeypatch):
    walks = []
    real = engine._replay_in_order

    def counted(trace, *args):
        walks.append(trace)
        return real(trace, *args)

    monkeypatch.setattr(engine, "_replay_in_order", counted)
    res = what_if_search(fig5_fixture)
    moved = {tuple(c.placement) for c in res.candidates} \
        - {tuple(fig5_fixture.binding)}
    assert len(walks) == len(moved) == 4
    by_name = {c.strategy: c for c in res.candidates}
    assert by_name["identity"].makespan == res.recorded_makespan
    del walks[:]
    replay(fig5_fixture)
    assert walks == []
    replay(fig5_fixture, verify=True)
    assert len(walks) == 1


def test_a_substituted_search_orders_its_program_once(fig5_fixture,
                                                      monkeypatch):
    built = []
    real = engine._program_order

    def counted(trace, *args):
        if trace._program is None:
            built.append(trace)
        return real(trace, *args)

    monkeypatch.setattr(engine, "_program_order", counted)
    res = what_if_search(fig5_fixture, substitute={"reduce": "binomial"})
    assert len(res.candidates) == 6
    assert len(built) == 1
    # A trace scored only in recorded order never builds one.
    what_if_search(fig5_fixture)
    assert len(built) == 1 and fig5_fixture._program is None


def _count_programs(monkeypatch) -> list:
    """The traces ``ReplayTrace.program()`` is called on from here on."""
    calls = []
    real = ReplayTrace.program

    def counted(trace):
        calls.append(trace)
        return real(trace)

    monkeypatch.setattr(ReplayTrace, "program", counted)
    return calls


def test_the_recorded_order_paths_cut_no_program(monkeypatch):
    """Compiling, an exact replay and a search in recorded order never
    sort a trace by rank."""
    calls = _count_programs(monkeypatch)
    trace = ReplayTrace.load(str(DATA / "fig5.trace"))
    engine.compile_trace(trace)
    replay(trace)
    what_if_search(trace)
    assert calls == []


def test_a_substituted_search_cuts_two_programs(monkeypatch):
    """One on the recording, for the substitution; one on the run it
    makes, for the ready-set order all six candidates share."""
    calls = _count_programs(monkeypatch)
    trace = ReplayTrace.load(str(DATA / "fig5.trace"))
    res = what_if_search(trace, substitute={"reduce": "binomial"})
    assert len(res.candidates) == 6
    assert len(calls) == 2 and calls[0] is trace
    assert calls[1] is not trace and calls[1]._program is not None


def test_an_exact_replay_builds_no_network(fig5_fixture, monkeypatch):
    from repro.simmpi import network

    built = []
    real = network.Network

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(network, "Network", counted)
    replay(fig5_fixture)
    replay(fig5_fixture, binding=list(fig5_fixture.binding))
    assert built == []
    replay(fig5_fixture, verify=True)
    assert len(built) == 1


@pytest.mark.parametrize("source", FIXTURES)
def test_reading_the_recording_equals_walking_it(source):
    """The no-walk clocks are the verified walk's, to the bit — on the
    one-sided fixture (jitter 0.1, puts and gets) too."""
    trace = ReplayTrace.load(str(DATA / source))
    read = replay(trace)
    walked = replay(trace, verify=True)
    assert read.exact and walked.exact
    assert [c.hex() for c in read.clocks] == \
        [c.hex() for c in walked.clocks]
    assert read.n_messages == walked.n_messages
    assert read.total_sizes is walked.total_sizes


def test_a_rank_that_does_not_end_on_its_finish_is_walked(fig5_fixture):
    c = fig5_fixture.columns()
    keep = c.kind != K_F
    cut = fig5_fixture._with_columns(c._replace(**{
        name: getattr(c, name)[keep] for name in c._fields[:-1]}))
    assert engine.compile_trace(cut).finish is None
    clocks, _ = reference_replay(cut, exact=True)
    for kwargs in ({}, {"verify": True}):
        assert [x.hex() for x in replay(cut, **kwargs).clocks] == \
            [x.hex() for x in clocks]


def test_an_unsent_message_reads_the_same_on_every_path(fig5_fixture):
    trace = _without_first_send(fig5_fixture)
    errors = []
    for kwargs in ({}, {"verify": True},
                   {"binding": list(reversed(trace.binding))},
                   {"substitute": {"reduce": "binomial"}}):
        with pytest.raises(ReplayError) as err:
            replay(trace, **kwargs)
        errors.append(str(err.value))
    assert errors == ["receive references unsent message #0"] * 4
