"""Contract of the one supervised pool (``repro.core.pool``).

The worker is trivial — square an int; raise, sleep or hard-exit on
demand — so every supervision rule is exercised without simulator cost.
``tests/sweep/test_executor.py`` and the chaos cases of
``tests/serve/test_server.py`` check the two façades on top of it.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro.core.pool import PoolTaskError, SupervisedPool, parse_chaos


def _init():
    return 2   # the worker's state: the exponent


def _square(power, payload):
    if payload.get("fail"):
        raise RuntimeError("injected failure")
    if payload.get("exit"):
        os._exit(7)
    time.sleep(payload.get("delay", 0.0))
    return payload["x"] ** power


def run_pool(payloads, linger_s=0.0, **kwargs):
    """One pool lifetime: submit everything, wait, stop.  Returns
    ``(tasks, results, stats, events)``; a failed task's result is its
    :class:`PoolTaskError`."""
    events = []

    async def main():
        pool = SupervisedPool(_init, _square, on_event=events.append,
                              **kwargs)
        await pool.start()
        try:
            tasks = [pool.submit(p, index=i) for i, p in enumerate(payloads)]
            results = await asyncio.gather(*(t.future for t in tasks),
                                           return_exceptions=True)
            await asyncio.sleep(linger_s)
            return tasks, results, pool.stats(), events
        finally:
            await pool.stop()
            assert multiprocessing.active_children() == []

    return asyncio.run(main())


@pytest.mark.parametrize("jobs,batch", [(1, 1), (2, 1), (3, 4), (8, 2)])
def test_results_in_task_order(jobs, batch):
    tasks, results, stats, events = run_pool(
        [{"x": i} for i in range(7)], jobs=jobs, batch=batch)
    assert results == [i * i for i in range(7)]
    assert [t.attempts for t in tasks] == [1] * 7
    assert all(t.elapsed_s >= 0 and t.queue_wait_s >= 0 for t in tasks)
    assert all(t.peak_rss_kb > 0 for t in tasks)
    assert stats["workers"] == stats["spawned"] == jobs
    assert stats["tasks_ok"] == 7 and stats["tasks_failed"] == 0
    assert stats["replaced"] == stats["retries"] == 0
    assert stats["batches"] <= 7 if batch > 1 else stats["batches"] == 7
    assert 0.0 < stats["utilization"] <= 1.0
    for kind in ("start", "ok"):
        assert sorted(e["index"] for e in events
                      if e["type"] == kind) == list(range(7))


@pytest.mark.parametrize("retries", [0, 2])
def test_error_exhausts_attempts_with_doubling_backoff(retries):
    tasks, results, stats, events = run_pool(
        [{"x": 1, "fail": True}, {"x": 2}], jobs=1, retries=retries,
        backoff_s=0.01)
    bad, good = results
    assert isinstance(bad, PoolTaskError)
    assert "injected failure" in bad.reason
    assert f"after {retries + 1} attempt(s)" in str(bad)
    assert tasks[0].attempts == retries + 1
    assert len(tasks[0].retry_log) == retries
    backoffs = [e["backoff_s"] for e in events if e["type"] == "retry"]
    assert backoffs == [0.01 * 2 ** k for k in range(retries)]
    assert tasks[0].backoff_s == pytest.approx(sum(backoffs))
    assert good == 4 and tasks[1].attempts == 1   # unaffected neighbour
    assert stats["retries"] == retries
    assert stats["tasks_failed"] == 1 and stats["replaced"] == 0
    assert [e["type"] for e in events if e["index"] == 0][-1] == "failed"


def test_deadline_kills_and_replaces_the_worker():
    tasks, results, stats, _ = run_pool(
        [{"x": 1, "delay": 30.0}, {"x": 3}], jobs=1, timeout_s=0.3,
        retries=0)
    assert isinstance(results[0], PoolTaskError)
    assert "timeout after 0.3s" in results[0].reason
    assert results[1] == 9   # served by the replacement
    assert stats["spawned"] == 2 and stats["replaced"] == 1


def test_deadline_scales_with_the_batch():
    # Four 0.2 s tasks in one batch outlive timeout_s but not 4 x timeout_s.
    _, results, stats, _ = run_pool(
        [{"x": i, "delay": 0.2} for i in range(4)], jobs=1, batch=4,
        timeout_s=0.5, retries=0)
    assert results == [0, 1, 4, 9]
    assert stats["batches"] == 1 and stats["replaced"] == 0


def test_dead_worker_is_replaced_until_attempts_run_out():
    tasks, results, stats, _ = run_pool(
        [{"x": 1, "exit": True}], jobs=1, retries=1, backoff_s=0.01)
    assert isinstance(results[0], PoolTaskError)
    assert "worker crashed (exit 7)" in results[0].reason
    assert tasks[0].attempts == 2
    assert stats["replaced"] == 2 and stats["spawned"] == 3


@pytest.mark.parametrize("chaos,needle", [
    ("crash=1", "crashed"), ("timeout=1", "timeout"), ("crash=1,timeout=1", ""),
])
def test_injected_faults_are_invisible_in_results(chaos, needle):
    budget = parse_chaos(chaos)
    tasks, results, stats, _ = run_pool(
        [{"x": i} for i in range(5)], jobs=2, timeout_s=1.0, retries=2,
        backoff_s=0.01, chaos=budget)
    assert results == [0, 1, 4, 9, 16]
    faults = sum(budget.values())
    assert stats["replaced"] == stats["retries"] == faults
    assert sum(t.attempts - 1 for t in tasks) == faults
    assert all(needle in reason for t in tasks for reason in t.retry_log)


def test_injected_stall_delays_every_batch():
    t0 = time.monotonic()
    _, results, stats, _ = run_pool(
        [{"x": 2}, {"x": 3}], jobs=1, chaos=parse_chaos("stall=0.2"))
    assert results == [4, 9]
    assert time.monotonic() - t0 >= 0.4   # two batches, each stalled
    assert stats["replaced"] == 0


def test_utilisation_belongs_to_one_pool_lifetime():
    _, _, busy, _ = run_pool([{"x": 1, "delay": 0.3}], jobs=1)
    _, _, idle, _ = run_pool([{"x": 1}], jobs=1, linger_s=0.3)
    assert 0.5 < busy["utilization"] <= 1.0
    assert 0.0 < idle["utilization"] < 0.5


def test_parse_chaos_accepts_the_union_of_kinds():
    # (the unknown-kind error is checked in tests/sweep/test_executor.py)
    assert parse_chaos("crash=2, timeout=1,stall=0.5") == {
        "crash": 2, "timeout": 1, "stall": 0.5}
    assert parse_chaos("stall") == {"stall": 1.0}
