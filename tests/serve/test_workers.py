"""The daemon's view of its workers (``WorkerPool``), driven directly:
what a reply reports, and whose stores ``store_stats`` counts."""

import asyncio
import os
import signal

import pytest

from repro.core.errors import TraceSchemaError
from repro.serve.store import TraceChangedError, file_identity
from repro.serve.workers import (BookRef, ScoreTask, WorkerPool,
                                 WorkerScoreError)


def _run(scenario, **pool_kwargs):
    loads = []

    async def main():
        pool = WorkerPool(jobs=1, backoff_s=0.01, chaos={},
                          on_load=lambda fp, facts: loads.append(fp),
                          **pool_kwargs)
        await pool.start()
        try:
            await asyncio.wait_for(scenario(pool), timeout=120)
        finally:
            await pool.stop()

    asyncio.run(main())
    return loads


def test_store_stats_cover_live_workers_only(serve_traces):
    """A killed worker's book went with it: after its replacement has
    reloaded, one book is resident, not two — and both loads were
    reported."""
    path = serve_traces[0]
    ref = BookRef("f" * 64, path, file_identity(path))

    async def scenario(pool):
        assert await pool.submit(ref) is None       # a bare ref scores nothing
        before = pool.store_stats()
        assert before["entries"] == 1 and before["misses"] == 1
        assert before["max_bytes"] == pool.book_bytes

        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        result = await pool.submit(
            ScoreTask(ref.fingerprint, ref.path, ref.identity, "identity"))
        assert result.strategy == "identity"
        assert pool.stats()["replaced"] == 1
        after = pool.store_stats()
        assert after["entries"] == 1 and after["bytes"] == before["bytes"]
        assert after["hits"] == 0 and after["misses"] == 1

    assert _run(scenario) == [ref.fingerprint] * 2


def test_a_refused_load_is_an_answer_not_a_retry(serve_traces):
    path = serve_traces[0]
    size, mtime_ns, inode = file_identity(path)
    stale = BookRef("f" * 64, path, (size, mtime_ns - 1, inode))

    async def scenario(pool):
        with pytest.raises(TraceChangedError, match="changed on disk"):
            await pool.submit(stale)
        stats = pool.stats()
        assert stats["tasks_ok"] == 1 and stats["retries"] == 0
        assert pool.store_stats()["entries"] == 0

    assert _run(scenario) == []


def test_a_file_that_is_no_trace_is_an_answer_not_a_retry(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("not a trace\n")
    ref = BookRef("f" * 64, str(path), file_identity(str(path)))

    async def scenario(pool):
        with pytest.raises(TraceSchemaError, match="not a repro.replay trace"):
            await pool.submit(ref)
        stats = pool.stats()
        assert stats["retries"] == 0 and stats["tasks_failed"] == 0
        assert pool.store_stats()["entries"] == 0

    assert _run(scenario) == []


def test_a_vanished_file_is_refused_as_changed(serve_traces, tmp_path):
    path = tmp_path / "gone.trace"
    path.write_bytes(open(serve_traces[0], "rb").read())
    ref = BookRef("f" * 64, str(path), file_identity(str(path)))
    path.unlink()

    async def scenario(pool):
        with pytest.raises(TraceChangedError, match="changed on disk"):
            await pool.submit(ref)
        assert pool.stats()["retries"] == 0

    assert _run(scenario) == []


def test_a_load_is_reported_even_if_the_scoring_after_it_raises(
        serve_traces):
    """The book stays resident in the worker, so the daemon must hear
    of it — the next task on it is a store hit that reports nothing."""
    path = serve_traces[0]
    ref = BookRef("f" * 64, path, file_identity(path))
    bad = ScoreTask(ref.fingerprint, ref.path, ref.identity, "identity",
                    substitute={"bcast": "bogus"})

    async def scenario(pool):
        with pytest.raises(WorkerScoreError, match="unknown bcast algorithm"):
            await pool.submit(bad)
        stats = pool.stats()
        assert stats["retries"] == 0 and stats["tasks_failed"] == 0
        store = pool.store_stats()
        assert store["entries"] == 1 and store["misses"] == 1

        good = await pool.submit(
            ScoreTask(ref.fingerprint, ref.path, ref.identity, "identity"))
        assert good.strategy == "identity"
        assert pool.store_stats()["hits"] == 1

    assert _run(scenario) == [ref.fingerprint]


# -- what a worker holds and builds, driven in-process ----------------------

def test_a_worker_entry_holds_no_event_columns_after_ingest(serve_traces):
    from repro.replay.schema import ColumnsReleasedError
    from repro.serve.store import BookStore
    from repro.serve.workers import _serve_one

    path = serve_traces[0]
    store = BookStore()
    reply = _serve_one(store, BookRef("f" * 64, path, file_identity(path)))
    entry = store.get("f" * 64)
    assert reply["loaded"]["nbytes"] == entry.nbytes \
        == entry.compiled.nbytes()
    with pytest.raises(ColumnsReleasedError):
        entry.trace.columns()


SIX = ["identity", "treematch", "round_robin", "random", "greedy", "local"]


def test_a_substituted_query_builds_its_run_once(serve_traces, monkeypatch):
    """Six strategies on one substitution: one re-read, one transform,
    one compile and program order; the same query again builds nothing
    and adds no bytes.  Every candidate is the library's, to the bit."""
    from repro.replay import patterns
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search
    from repro.serve.store import BookStore
    from repro.serve.workers import _serve_one

    calls = []
    real = patterns.apply_substitution

    def counted(trace, substitute):
        calls.append(substitute)
        return real(trace, substitute)

    monkeypatch.setattr(patterns, "apply_substitution", counted)
    path = serve_traces[0]
    sub = {"reduce": "binomial"}
    direct = what_if_search(ReplayTrace.load(path), strategies=SIX, seed=2,
                            substitute=sub)
    assert len(calls) == 1
    by_name = {c.strategy: c for c in direct.candidates}
    store = BookStore()
    ref = BookRef("f" * 64, path, file_identity(path))
    _serve_one(store, ref)
    book = store.total_bytes
    for round_ in (1, 2):
        for strategy in SIX:
            reply = _serve_one(store, ScoreTask(
                ref.fingerprint, ref.path, ref.identity, strategy, seed=2,
                substitute=dict(sub)))
            assert reply["error"] is None and reply["refused"] is None
            cand, ref_cand = reply["result"], by_name[strategy]
            assert cand.makespan.hex() == ref_cand.makespan.hex()
            assert cand.placement == ref_cand.placement
        assert len(calls) == 2              # the library's, and one here
        assert len(store.get(ref.fingerprint).runs) == 1
        if round_ == 1:
            grown = store.total_bytes
            assert grown > book
        assert store.total_bytes == grown == reply["store"]["bytes"]


def test_a_substituted_query_on_a_rewritten_file_is_refused(serve_traces,
                                                            tmp_path):
    """The resident book cannot make the run; the file it would be made
    from is no longer the fingerprinted one: refused, nothing kept, and
    the book still answers unsubstituted queries."""
    import shutil

    from repro.serve.store import BookStore
    from repro.serve.workers import _serve_one

    path = str(tmp_path / "live.trace")
    shutil.copyfile(serve_traces[0], path)
    store = BookStore()
    ref = BookRef("f" * 64, path, file_identity(path))
    _serve_one(store, ref)
    book = store.total_bytes
    shutil.copyfile(serve_traces[1], path)
    reply = _serve_one(store, ScoreTask(
        ref.fingerprint, ref.path, ref.identity, "greedy",
        substitute={"reduce": "binomial"}))
    assert isinstance(reply["refused"], TraceChangedError)
    assert reply["result"] is None and reply["error"] is None
    assert store.get(ref.fingerprint).runs == {}
    assert store.total_bytes == book == reply["store"]["bytes"]
    plain = _serve_one(store, ScoreTask(
        ref.fingerprint, ref.path, ref.identity, "greedy"))
    assert plain["result"].makespan > 0.0
