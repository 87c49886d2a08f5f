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


def test_built_entries_account_compiled_plus_events(serve_traces):
    """A book is the compiled form plus the event columns — their real
    numpy sizes, not an estimate of tuples nobody built."""
    from repro.replay import replay
    from repro.replay.schema import ReplayTrace

    trace = ReplayTrace.load(serve_traces[0])
    entry = BookEntry.build("f" * 64, serve_traces[0], trace)
    cols = trace.columns()
    assert cols.footprint() == sum(
        getattr(cols, name).nbytes for name in cols._fields
        if name != "colls")
    assert cols.footprint() == 39 * trace.n_events    # the on-disk row
    assert entry.nbytes == entry.compiled.nbytes() + cols.footprint()
    assert entry.compiled.nbytes() > entry.compiled.op_bytes > 0
    # ... and what a worker reports of it to a daemon that holds none.
    assert entry.facts() == {
        "binding": list(trace.binding),
        "recorded_makespan": replay(trace).max_clock,
        "world_size": trace.world_size,
        "n_events": trace.n_events,
        "nbytes": entry.nbytes,
    }


def test_serving_a_trace_never_builds_the_tuple_view(serve_traces,
                                                     monkeypatch):
    """load -> compile -> search -> book -> a substituted query, which
    is what a worker runs per cell: all on the columns."""
    from repro.replay import compile_trace, score_candidate, what_if_search
    from repro.replay.schema import ReplayTrace
    from tests.replay.test_columnar import forbid_tuples

    forbid_tuples(monkeypatch)
    trace = ReplayTrace.load(serve_traces[0])
    compile_trace(trace)
    res = what_if_search(trace)
    entry = BookEntry.build("f" * 64, serve_traces[0], trace)
    assert res.meta["n_events"] == trace.n_events > 0
    assert entry.nbytes > 0
    cand = score_candidate(trace, "random", seed=1,
                           substitute={"reduce": "binomial"})
    assert cand.makespan > 0.0


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
