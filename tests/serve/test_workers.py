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
