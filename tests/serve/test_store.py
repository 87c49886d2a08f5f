"""Unit tests for the compiled-book LRU (eviction by real bytes)."""

import pytest

from repro.core.errors import TraceSchemaError
from repro.serve.store import BookEntry, BookStore, file_identity
from tests.replay.test_schema import SHORT_HEADERS, _split


def _entry(fp: str, nbytes: int) -> BookEntry:
    return BookEntry(fingerprint=fp, path=f"/t/{fp}.trace", trace=None,
                     compiled=None, nbytes=nbytes)


def test_eviction_is_by_bytes_coldest_first():
    store = BookStore(max_bytes=100)
    assert store.put(_entry("a", 40)) == []
    assert store.put(_entry("b", 40)) == []
    assert store.put(_entry("c", 40)) == ["a"]       # 120 > 100: drop coldest
    assert store.fingerprints() == ["b", "c"]
    assert store.total_bytes == 80
    assert store.evictions == 1


def test_get_refreshes_recency():
    store = BookStore(max_bytes=100)
    store.put(_entry("a", 40))
    store.put(_entry("b", 40))
    assert store.get("a").fingerprint == "a"          # a is now hottest
    assert store.put(_entry("c", 40)) == ["b"]
    assert store.fingerprints() == ["a", "c"]


def test_newest_entry_survives_even_over_budget():
    store = BookStore(max_bytes=10)
    store.put(_entry("a", 5))
    evicted = store.put(_entry("huge", 50))
    assert evicted == ["a"]
    assert store.fingerprints() == ["huge"]           # over budget but held
    assert store.total_bytes == 50


def test_put_refresh_replaces_bytes():
    store = BookStore(max_bytes=100)
    store.put(_entry("a", 40))
    store.put(_entry("a", 60))                        # re-ingest, new size
    assert len(store) == 1
    assert store.total_bytes == 60


def test_hit_miss_counters_and_peek():
    store = BookStore(max_bytes=100)
    store.put(_entry("a", 10))
    assert store.get("missing") is None
    assert store.get("a") is not None
    stats = store.stats()
    assert stats == {"entries": 1, "bytes": 10, "max_bytes": 100,
                     "hits": 1, "misses": 1, "evictions": 0}


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        BookStore(max_bytes=0)


def test_built_entries_account_the_compiled_book(serve_traces):
    """A book is its compiled form: ``nbytes`` is the book's real size,
    and the event columns it was compiled from are gone."""
    from repro.replay import replay
    from repro.replay.schema import ReplayTrace

    direct = ReplayTrace.load(serve_traces[0])
    trace = ReplayTrace.load(serve_traces[0])
    entry = BookEntry.build("f" * 64, serve_traces[0], trace)
    assert entry.compiled.finish is not None
    assert entry.nbytes == entry.compiled.nbytes()
    assert entry.compiled.nbytes() > entry.compiled.op_bytes > 0
    assert entry.nbytes < entry.compiled.nbytes() \
        + direct.columns().footprint()
    # ... and what a worker reports of it to a daemon that holds none.
    assert entry.facts() == {
        "binding": list(direct.binding),
        "recorded_makespan": replay(direct).max_clock,
        "world_size": direct.world_size,
        "n_events": direct.n_events,
        "nbytes": entry.nbytes,
    }


def test_a_built_entry_holds_no_event_columns(serve_traces):
    """Every read of a released trace's columns raises the named error;
    what a served book is asked for reads the book."""
    from repro.replay import replay
    from repro.replay.schema import ColumnsReleasedError, ReplayTrace

    trace = ReplayTrace.load(serve_traces[0])
    exact = replay(trace).clocks
    entry = BookEntry.build("f" * 64, serve_traces[0], trace)
    assert trace._columns is None
    for read in (trace.columns, lambda: trace.n_events,
                 lambda: trace.events, trace.program,
                 lambda: trace.dump(serve_traces[0] + ".copy")):
        with pytest.raises(ColumnsReleasedError, match="released"):
            read()
    assert replay(trace).clocks == exact
    assert replay(trace, binding=list(reversed(trace.binding))).clocks
    assert entry.trace is trace


def test_a_book_whose_exact_replay_walks_keeps_its_columns(serve_traces):
    """A rank that does not end on its finish has no finish clock in the
    book: its exact replay walks the columns, so they stay and count."""
    from repro.replay import replay
    from repro.replay.schema import K_F, ReplayTrace

    loaded = ReplayTrace.load(serve_traces[0])
    c = loaded.columns()
    keep = c.kind != K_F
    trace = loaded._with_columns(c._replace(**{
        name: getattr(c, name)[keep] for name in c._fields[:-1]}))
    entry = BookEntry.build("f" * 64, serve_traces[0], trace)
    assert entry.compiled.finish is None
    assert entry.nbytes == entry.compiled.nbytes() \
        + trace.columns().footprint()
    assert replay(trace).max_clock == entry.recorded["recorded_makespan"]


def test_entry_bytes_are_the_book_plus_its_runs(serve_traces):
    """A memoised run enters its entry's bytes and the store's total,
    and leaves with the entry when the LRU drops it."""
    from repro.replay.engine import ready_nbytes

    path = serve_traces[0]
    entry = BookEntry.load("a" * 64, path, file_identity(path))
    book = entry.nbytes
    store = BookStore(max_bytes=1 << 30)
    store.put(entry)
    binomial = store.run(entry, path, file_identity(path),
                         {"reduce": "binomial"})
    flat = store.run(entry, path, file_identity(path), {"reduce": "flat"})
    assert binomial is not flat
    assert entry.nbytes == book + ready_nbytes(binomial) + ready_nbytes(flat)
    assert ready_nbytes(flat) > flat.columns().footprint() \
        + flat._compiled.nbytes()
    assert store.total_bytes == entry.nbytes
    assert store.run(entry, path, file_identity(path),
                     {"reduce": "binomial"}) is binomial
    assert store.total_bytes == entry.nbytes

    other = BookEntry.load("b" * 64, serve_traces[1],
                           file_identity(serve_traces[1]))
    store.max_bytes = other.nbytes + 1
    assert store.put(other) == ["a" * 64]
    assert store.total_bytes == other.nbytes
    assert store.stats()["evictions"] == 1


def test_a_runs_bytes_are_what_keeping_it_holds():
    """``ready_nbytes`` — the columns, the book and the program order —
    is what building a run and keeping it costs, by tracemalloc."""
    import gc
    import tracemalloc

    from repro.replay.engine import ready_nbytes
    from repro.replay.patterns import apply_substitution
    from repro.replay.schema import ReplayTrace
    from tests.replay.test_columnar import DATA

    trace = ReplayTrace.load(str(DATA / "fig5.trace"))
    ready_nbytes(apply_substitution(trace, {"reduce": "flat"}))  # warm
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = apply_substitution(trace, {"reduce": "binomial"})
        claimed = ready_nbytes(run)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.9 < held / claimed < 1.1, (held, claimed)


def test_serving_a_trace_never_builds_the_tuple_view(serve_traces,
                                                     monkeypatch):
    """load -> compile -> search -> book -> a substituted query, which
    is what a worker runs per cell: all on the columns."""
    from repro.replay import compile_trace, score_candidate, what_if_search
    from repro.replay.schema import ReplayTrace
    from tests.replay.test_columnar import forbid_tuples

    forbid_tuples(monkeypatch)
    path = serve_traces[0]
    trace = ReplayTrace.load(path)
    compile_trace(trace)
    res = what_if_search(trace)
    assert res.meta["n_events"] == trace.n_events > 0
    direct = score_candidate(trace, "random", seed=1,
                             substitute={"reduce": "binomial"})
    entry = BookEntry.build("f" * 64, path, trace)
    assert entry.nbytes > 0
    run = BookStore().run(entry, path, file_identity(path),
                          {"reduce": "binomial"})
    cand = score_candidate(trace, "random", seed=1,
                           substitute={"reduce": "binomial"}, run=run)
    assert cand.makespan == direct.makespan > 0.0


@pytest.mark.parametrize("what", sorted(SHORT_HEADERS))
def test_a_header_short_of_its_world_is_refused_at_load(what, serve_traces,
                                                        tmp_path):
    """A worker refuses the file the way it refuses any non-trace, so the
    ingest is answered and no query is served from a bad book."""
    path = str(tmp_path / "short.trace")
    with open(serve_traces[0], "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(SHORT_HEADERS[what](*_split(raw)))
    with pytest.raises(TraceSchemaError, match="world_size"):
        BookEntry.load("f" * 64, path, file_identity(path))
