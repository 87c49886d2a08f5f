"""The one supervised worker pool behind ``repro.sweep`` and ``repro.serve``.

``SupervisedPool(worker_init, worker_call, ...)`` runs ``jobs`` worker
processes; each calls ``state = worker_init()`` once and then
``worker_call(state, payload)`` for every payload it is handed.  The
parent side is asyncio — the serve daemon must never block, and a batch
run simply wraps it in ``asyncio.run`` — and supervises the workers:

* **batched dispatch** — an idle worker drains up to ``batch`` queued
  tasks into one pipe message (one round trip for many small tasks);
* **deadlines** — a worker that holds a batch longer than
  ``timeout_s x batch size`` is killed and replaced;
* **crash replacement** — a worker that dies mid-batch (segfault,
  ``os._exit``, OOM kill) closes its pipe end; it is replaced and its
  tasks are requeued;
* **bounded retries with backoff** — a crash, a timeout or an exception
  inside ``worker_call`` each count as an attempt; a task is retried up
  to ``retries`` times after ``backoff_s * 2**k`` before its future
  raises :class:`PoolTaskError`.

Telemetry: every :class:`PoolTask` carries its attempts, worker-measured
elapsed time, queue wait, backoff and the worker's peak RSS;
:meth:`SupervisedPool.stats` has the pool's counters and utilisation.

Chaos injection (tests and CI; the callers read ``REPRO_SWEEP_CHAOS`` /
``REPRO_SERVE_CHAOS`` and pass the parsed dict): ``crash=N`` makes N
batches hard-exit their worker, ``timeout=N`` makes N batches stall past
their deadline, ``stall=SECONDS`` makes every batch sleep first.  All of
it must be invisible in the results.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None

__all__ = ["SupervisedPool", "PoolTask", "PoolTaskError", "parse_chaos"]

_CHAOS_KINDS = {"crash": int, "timeout": int, "stall": float}


def parse_chaos(text: Optional[str]) -> Dict[str, float]:
    """``"crash=1,stall=0.5"`` → ``{"crash": 1, "stall": 0.5}``."""
    out: Dict[str, float] = {}
    for token in (text or "").split(","):
        kind, _, value = token.strip().partition("=")
        if not kind:
            continue
        if kind not in _CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r} (expected "
                             "crash=N, timeout=N or stall=SECONDS)")
        out[kind] = _CHAOS_KINDS[kind](value or 1)
    return out


class PoolTaskError(RuntimeError):
    """A task failed terminally (all attempts exhausted)."""

    def __init__(self, index, attempts: int, reason: str):
        super().__init__(f"task {index} failed after {attempts} "
                         f"attempt(s): {reason}")
        self.reason = reason


@dataclass
class PoolTask:
    """One submitted payload: its future and what its attempts cost."""

    payload: Any
    index: Any
    future: "asyncio.Future"
    attempts: int = 0  # finished attempts, the successful one included
    elapsed_s: float = 0.0  # worker-measured time of the last attempt
    queue_wait_s: float = 0.0  # runnable but unassigned, over all attempts
    backoff_s: float = 0.0  # retry delays, over all attempts
    peak_rss_kb: int = 0  # worker peak RSS, max over attempts
    retry_log: List[str] = field(default_factory=list)
    enqueued_at: float = 0.0  # monotonic instant it last became runnable


# ---------------------------------------------------------------------------
# worker process


def _peak_rss_kb() -> int:
    """The calling process's peak RSS in KiB (0 where unavailable).

    ``ru_maxrss`` is KiB on Linux but bytes on macOS."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":  # pragma: no cover - macOS only
        peak //= 1024
    return int(peak)


def _take(budget) -> bool:
    """Consume one unit of a chaos budget shared by all workers."""
    if budget is None:
        return False
    with budget.get_lock():
        if budget.value <= 0:
            return False
        budget.value -= 1
        return True


def _worker_main(conn, worker_init, worker_call, timeout_s: float,
                 stall_s: float, crash_budget, timeout_budget) -> None:
    """One worker: receive payload batches, reply one result per payload."""
    state = worker_init()
    while True:
        try:
            payloads = conn.recv()
        except (EOFError, OSError):
            return
        if payloads is None:  # the exit token
            return
        if stall_s > 0.0:
            time.sleep(stall_s)
        if _take(crash_budget):
            os._exit(42)  # simulated hard crash mid-batch
        if _take(timeout_budget):
            time.sleep(timeout_s * len(payloads) + 5.0)  # past the deadline
        results = []
        for payload in payloads:
            t0 = time.perf_counter()
            try:
                value = ("ok", worker_call(state, payload))
            except Exception:
                value = ("err", traceback.format_exc(limit=30))
            results.append(value + (time.perf_counter() - t0,))
        try:
            conn.send((results, _peak_rss_kb()))
        except (BrokenPipeError, OSError):
            return


class _Slot:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, ctx, worker_id: int, worker_args: tuple):
        self.id = worker_id
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,) + worker_args,
            daemon=True, name=f"pool-worker-{worker_id}")
        self.proc.start()
        child_conn.close()

    def close(self, graceful: bool) -> None:
        if graceful:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.proc.join(timeout=5.0)
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        self.conn.close()


# ---------------------------------------------------------------------------
# the pool


class SupervisedPool:
    """See the module docstring.  ``on_event`` receives one dict per
    ``start | ok | retry | failed`` transition, keyed by the ``index``
    given to :meth:`submit`."""

    def __init__(
        self,
        worker_init: Callable[[], Any],
        worker_call: Callable[[Any, Any], Any],
        jobs: int = 2,
        timeout_s: float = 600.0,
        retries: int = 2,
        backoff_s: float = 0.25,
        batch: int = 1,
        chaos: Optional[Dict[str, float]] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout_s = float(timeout_s)
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.batch = max(1, int(batch))
        self.on_event = on_event
        self.spawned = self.replaced = self.batches = 0
        self.tasks_ok = self.tasks_failed = self.retried = 0
        self.busy_s = 0.0
        self.started_at = time.monotonic()
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._slots: List[_Slot] = []
        self._loops: List[asyncio.Task] = []
        self._stopping = False
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        chaos = chaos or {}
        budgets = [self._ctx.Value("i", int(chaos[kind]))
                   if chaos.get(kind) else None
                   for kind in ("crash", "timeout")]
        self._worker_args = (worker_init, worker_call, self.timeout_s,
                             float(chaos.get("stall", 0.0)), *budgets)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self.started_at = time.monotonic()
        self._slots = [self._spawn() for _ in range(self.jobs)]
        self._loops = [asyncio.create_task(self._slot_loop(i))
                       for i in range(self.jobs)]

    def _spawn(self) -> _Slot:
        slot = _Slot(self._ctx, self.spawned, self._worker_args)
        self.spawned += 1
        return slot

    async def stop(self) -> None:
        """Stop the loops once queued work is handed out, then the
        workers.  Callers await the futures they care about first."""
        self._stopping = True
        for _ in self._loops:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._loops, return_exceptions=True)
        for slot in self._slots:
            slot.close(graceful=True)
        self._slots = []
        self._loops = []

    def worker_pids(self) -> List[int]:
        """Process ids of the live workers (a replaced worker's is gone)."""
        return [slot.proc.pid for slot in self._slots]

    def stats(self) -> Dict[str, Any]:
        wall = max(time.monotonic() - self.started_at, 1e-9)
        return {
            "workers": self.jobs,
            "spawned": self.spawned,
            "replaced": self.replaced,
            "batches": self.batches,
            "tasks_ok": self.tasks_ok,
            "tasks_failed": self.tasks_failed,
            "retries": self.retried,
            "utilization": round(
                min(1.0, self.busy_s / (wall * self.jobs)), 4),
        }

    # -- dispatch ------------------------------------------------------

    def submit(self, payload: Any, index: Any = None) -> PoolTask:
        """Queue one payload; ``task.future`` resolves to the value
        ``worker_call`` returned or raises :class:`PoolTaskError`."""
        task = PoolTask(payload, index,
                        asyncio.get_running_loop().create_future())
        self._enqueue(task)
        return task

    def _enqueue(self, task: PoolTask) -> None:
        task.enqueued_at = time.monotonic()
        self._queue.put_nowait(task)

    def _event(self, kind: str, task: PoolTask, **info) -> None:
        if self.on_event is not None:
            self.on_event({"type": kind, "index": task.index, **info})

    async def _slot_loop(self, i: int) -> None:
        while True:
            task = await self._queue.get()
            if task is None:
                return
            batch = [task]
            while len(batch) < self.batch:
                try:
                    task = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if task is None:  # propagate the stop token
                    self._queue.put_nowait(None)
                    break
                batch.append(task)
            await self._run_batch(i, batch)

    async def _recv(self, slot: _Slot, timeout: float):
        """The worker's reply, without blocking the loop while it
        computes: wait for the pipe to turn readable (a message, or EOF
        from a dead worker — then ``recv`` raises)."""
        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = slot.conn.fileno()
        loop.add_reader(
            fd, lambda: readable.done() or readable.set_result(None))
        try:
            await asyncio.wait_for(readable, timeout)
        finally:
            loop.remove_reader(fd)
        return slot.conn.recv()

    async def _run_batch(self, i: int, batch: List[PoolTask]) -> None:
        slot = self._slots[i]
        t0 = time.monotonic()
        for task in batch:
            task.queue_wait_s += t0 - task.enqueued_at
            self._event("start", task, attempt=task.attempts + 1,
                        worker=slot.id)
        deadline = self.timeout_s * len(batch)
        failure = None
        try:
            slot.conn.send([task.payload for task in batch])
            results, rss_kb = await self._recv(slot, deadline)
        except asyncio.TimeoutError:
            failure = f"worker timeout after {deadline:.1f}s"
        except (EOFError, OSError):
            slot.proc.join(timeout=5.0)
            failure = f"worker crashed (exit {slot.proc.exitcode})"
        finally:
            self.busy_s += time.monotonic() - t0
        if failure is not None:
            slot.close(graceful=False)
            self._slots[i] = self._spawn()
            self.replaced += 1
            for task in batch:
                self._retry_or_fail(task, failure)
            return
        self.batches += 1
        for task, (status, value, elapsed) in zip(batch, results):
            task.elapsed_s = elapsed
            task.peak_rss_kb = max(task.peak_rss_kb, rss_kb)
            if status != "ok":
                self._retry_or_fail(task, f"error in worker:\n{value}")
                continue
            task.attempts += 1
            self.tasks_ok += 1
            self._event("ok", task, elapsed_s=elapsed,
                        attempt=task.attempts, worker=slot.id)
            if not task.future.done():
                task.future.set_result(value)

    def _retry_or_fail(self, task: PoolTask, reason: str) -> None:
        task.attempts += 1
        if task.attempts <= self.retries and not self._stopping:
            delay = self.backoff_s * 2.0 ** (task.attempts - 1)
            task.backoff_s += delay
            task.retry_log.append(reason)
            self.retried += 1
            self._event("retry", task, reason=reason,
                        attempt=task.attempts, backoff_s=delay)
            asyncio.get_running_loop().call_later(
                delay, self._enqueue, task)
            return
        self.tasks_failed += 1
        self._event("failed", task, reason=reason)
        if not task.future.done():
            task.future.set_exception(
                PoolTaskError(task.index, task.attempts, reason))
