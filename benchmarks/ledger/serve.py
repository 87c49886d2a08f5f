"""The ``serve`` workload: the advisory daemon under a closed loop.

A real ``python -m repro.serve start --jobs 1`` daemon runs pinned to
a CPU of its own (its worker inherits the pin).  Callers wait for
their answer before asking again, so the loop is closed: one
load-generating process, at most ``nproc`` connections, no threads.

(a) first answer   ``ingest`` sent → first ``query`` reply, per fresh
                   trace: the daemon's load + compile and the worker's.
(b) cold           unique ``random`` seeds: every query is scored by
                   the pool (the scoring path).
(c) hot            one query repeated: every answer comes from the
                   response cache (protocol + asyncio only).
(d) parity         a served answer against a direct ``what_if_search``.

(b) and (c) use the same layers in opposite ways; BENCH_serve.json only
ever reported (c).

(a), (b) and (c) run as laps, one per trace: first answer, cold
sub-phase, hot sub-phase.  Each metric's samples are thereby spread
over the whole run, so a stall of the host that lasts a few seconds
spoils one lap's sample and not all of them.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.ledger.harness import (SRC, Ctx, Outcome, percentile, timed,
                                       unit_cost_us)

HOT_STRATEGIES = ["identity", "treematch", "greedy"]
#: Laps: each ingests a fresh trace (one first-answer sample) and runs
#: one cold and one hot sub-phase (one rate sample each; a single short
#: phase varied 14 % run to run).
N_TRACES = 3

_HITS = "repro_serve_result_cache_hits_total"
_MISSES = "repro_serve_result_cache_misses_total"


def _hit_rate(tally: Dict[str, float]) -> float:
    looked_up = tally.get(_HITS, 0) + tally.get(_MISSES, 0)
    # -1: nothing was looked up at all, which no check accepts.
    return tally.get(_HITS, 0) / looked_up if looked_up else -1.0


class Serve:
    name = "serve"

    def __init__(self) -> None:
        self.daemon: Optional[subprocess.Popen] = None
        self.generation = 0

    def imports(self) -> None:
        import repro.experiments.fig5_collectives  # noqa: F401
        import repro.replay.search  # noqa: F401
        import repro.serve.client  # noqa: F401
        import repro.serve.protocol  # noqa: F401

    # -- set-up -----------------------------------------------------------

    def setup(self, ctx: Ctx) -> None:
        """Record one big-shaped trace, write it under N_TRACES content
        fingerprints, start the daemon, wait for its ``pong`` and warm
        its worker with a small trace of the same shape."""
        from repro.experiments import fig5_collectives
        from repro.replay import autorecord
        from repro.serve.client import ServeClient

        self.generation += 1
        self.rundir = os.path.join(ctx.tmpdir, f"serve-{self.generation}")
        os.mkdir(self.rundir)
        sizes = {"sizes": (100_000, 200_000)} if ctx.quick else {}
        with autorecord.capture() as traces:
            for reps in (1, 2 if ctx.quick else 10):
                fig5_collectives.run_cell("reduce", 2, reps=reps,
                                          seed=ctx.seed, **sizes)
        warm, big = traces
        self.paths = []
        for i in range(1 if ctx.quick else N_TRACES):
            # The fingerprint is a digest of the file, header included.
            big.meta = {"workload": "ledger.serve", "variant": i}
            path = os.path.join(self.rundir, f"big-{i}.trace")
            big.dump(path)
            self.paths.append(path)
        warm_path = os.path.join(self.rundir, "warm.trace")
        warm.dump(warm_path)
        self.connections = 2 if ctx.cpus["daemon"] != ctx.cpus["harness"] else 1
        self._start_daemon(ctx)
        # A daemon pays its worker's lazy imports once in its life, not
        # once per trace: pay them before the first measured answer.
        with ServeClient(path=self.sock, timeout_s=60.0) as client:
            client.query(client.ingest(warm_path)["fingerprint"],
                         strategies=["treematch"], seed=ctx.seed)

    def _start_daemon(self, ctx: Ctx) -> None:
        from repro.serve.client import ServeClient

        # A relative socket path: AF_UNIX paths are capped near 100 bytes
        # and the checkout may sit anywhere.
        self.sock = os.path.relpath(os.path.join(self.rundir, "s.sock"))
        self.log_path = os.path.join(self.rundir, "daemon.log")
        cpu = ctx.cpus["daemon"]
        with open(self.log_path, "wb") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "start",
                 "--socket", "s.sock", "--jobs", "1"],
                cwd=self.rundir, stdout=log, stderr=log,
                env=dict(os.environ, PYTHONPATH=SRC),
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                break
            if os.path.exists(self.sock):
                try:
                    with ServeClient(path=self.sock, timeout_s=5.0) as client:
                        client.ping()
                    return
                except OSError:
                    pass
            time.sleep(0.02)
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        self.teardown(ctx, None)
        raise RuntimeError(f"serve daemon did not come up:\n{tail}")

    def teardown(self, ctx: Ctx, out: Optional[Outcome]) -> None:
        """Graceful ``shutdown``; with ``out``, exit code 0 is an operation."""
        from repro.serve.client import ServeClient

        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                with ServeClient(path=self.sock, timeout_s=10.0) as client:
                    client.shutdown()
            code = daemon.wait(timeout=30.0)
        except Exception:
            daemon.kill()
            code = daemon.wait()
        if out is not None:
            out.op(code == 0, f"daemon exit code {code}")

    # -- the closed loop ---------------------------------------------------

    async def _client(self, make_query: Callable[[], Dict[str, Any]],
                      deadline: float, check: Callable[[Any], None],
                      stamps: List[Tuple[float, float]]) -> None:
        from repro.serve import protocol

        reader, writer = await asyncio.open_unix_connection(self.sock)
        try:
            while time.perf_counter() < deadline:
                query = make_query()
                t0 = time.perf_counter()
                await protocol.write_frame_async(writer, query)
                reply = await protocol.read_frame_async(reader)
                stamps.append((t0, time.perf_counter()))
                check(reply)
        finally:
            writer.close()
            await writer.wait_closed()

    def _phase(self, seconds: float, make_query, check
               ) -> Tuple[float, List[Tuple[float, float]]]:
        """``connections`` callers, each waiting for its answer before
        asking again, for ``seconds``.  Returns the wall and the
        (sent, answered) stamps of every request."""
        stamps: List[Tuple[float, float]] = []

        async def run() -> None:
            deadline = time.perf_counter() + seconds
            await asyncio.gather(*[
                self._client(make_query, deadline, check, stamps)
                for _ in range(self.connections)])

        wall, _ = timed(asyncio.run, run())
        return wall, stamps

    def _counted_phase(self, client, tally: Dict[str, float], seconds: float,
                       make_query, check):
        """One closed-loop sub-phase; adds to ``tally`` how many of its
        candidate look-ups the daemon answered from its result cache."""
        def counters() -> Dict[str, float]:
            return client.stats()["metrics"]["counters"]

        before = counters()
        phase = self._phase(seconds, make_query, check)
        after = counters()
        for key in (_HITS, _MISSES):
            tally[key] = (tally.get(key, 0)
                          + after.get(key, 0) - before.get(key, 0))
        return phase

    # -- measurement ------------------------------------------------------

    def _first_answer(self, ctx: Ctx, out: Outcome, client, path: str):
        """(a) a fresh trace: ``ingest`` sent → first answer received.
        Returns (fingerprint, ingest seconds, query seconds) or None."""
        with ctx.spans.span("serve.ingest"):
            t_ingest, ing = timed(out.guarded, "ingest", client.ingest,
                                  path, check=lambda r: r["compiled"])
        if ing is None:
            return None
        with ctx.spans.span("serve.first_query"):
            t_query, _ = timed(
                out.guarded, "first query", client.query,
                ing["fingerprint"], strategies=["treematch"],
                seed=ctx.seed, check=lambda r: r["best"] == "treematch")
        return ing["fingerprint"], t_ingest, t_query

    def measure(self, ctx: Ctx, out: Outcome) -> None:
        from repro.serve.client import ServeClient

        fps, ingests, queries = [], [], []
        cold, hot = [], []
        cold_tally: Dict[str, float] = {}
        hot_tally: Dict[str, float] = {}
        refused: List[str] = []
        # (b) cold: unique seeds, so every query reaches the pool
        seeds = itertools.count(ctx.seed + 1)

        def cold_query() -> Dict[str, Any]:
            return {"type": "query", "fingerprint": fps[0],
                    "strategies": ["random"], "seed": next(seeds)}

        def cold_check(reply) -> None:
            out.op(reply is not None and reply.get("type") == "result"
                   and reply["candidates"][0]["makespan"] > 0.0,
                   f"cold query refused or wrong: {str(reply)[:200]}")

        def hot_check(reply) -> None:
            if reply is None or reply.get("type") != "result":
                refused.append(f"hot query refused: {str(reply)[:200]}")

        lap_s = ctx.measure_seconds / len(self.paths)
        with ServeClient(path=self.sock, timeout_s=120.0) as client:
            for path in self.paths:
                t_lap = time.perf_counter()
                first = self._first_answer(ctx, out, client, path)
                if first is not None:
                    fps.append(first[0])
                    ingests.append(first[1])
                    queries.append(first[2])
                if not fps:
                    return
                if not hot:
                    # (c) hot: one query, primed once, then repeated
                    self.hot_query = {"type": "query", "fingerprint": fps[0],
                                      "strategies": HOT_STRATEGIES,
                                      "seed": ctx.seed}
                    self.hot_reply = client.request(self.hot_query)
                left = max(lap_s - (time.perf_counter() - t_lap), 0)
                cold_s = 0.2 if ctx.quick else max(0.6 * left, 1.0)
                self.hot_s = 0.1 if ctx.quick else max(0.4 * left, 0.5)
                with ctx.spans.span("serve.cold"):
                    cold.append(self._counted_phase(
                        client, cold_tally, cold_s, cold_query, cold_check))
                with ctx.spans.span("serve.hot"):
                    hot.append(self._counted_phase(
                        client, hot_tally, self.hot_s,
                        lambda: self.hot_query, hot_check))
            out.ops(sum(len(stamps) for _, stamps in hot), refused)
            cold_hit_rate = _hit_rate(cold_tally)
            hot_hit_rate = _hit_rate(hot_tally)

            # (d) parity, and the workload's own validity
            out.guarded("served == direct what_if_search", self._parity, ctx,
                        client.request(self.hot_query),
                        check=lambda differing: not differing)
            stats = client.stats()
        counters = stats["metrics"]["counters"]
        compiles = counters.get("repro_serve_compiles_total", 0)
        out.op(cold_hit_rate == 0.0,
               f"cold phase: result-cache hit rate {cold_hit_rate}, not 0")
        out.op(hot_hit_rate == 1.0,
               f"hot phase: result-cache hit rate {hot_hit_rate}, not 1")
        out.op(compiles == len(fps) + 1,
               f"{compiles} compiles for the warm-up trace + {len(fps)} ingested")

        firsts = [a + b for a, b in zip(ingests, queries)]
        self.cold_stamps = [stamp for _, stamps in cold for stamp in stamps]
        cold_ms = [(b - a) * 1e3 for a, b in self.cold_stamps]
        cold_qps = [len(stamps) / wall for wall, stamps in cold]
        hot_ms = [(b - a) * 1e3 for _, stamps in hot for a, b in stamps]
        out.put("serve_first_s", firsts, pick=min)
        out.put("serve_cold_qps", cold_qps, pick=max)
        out.put("serve_cold_p95_ms", percentile(cold_ms, 0.95))
        out.put("serve_hot_qps",
                [len(stamps) / wall for wall, stamps in hot], pick=max)
        out.put("serve_hot_p50_ms", percentile(hot_ms, 0.50))
        out.put("result_s", firsts, pick=min)
        out.put("ops_per_s", cold_qps, pick=max)

        # The per-layer numbers that fall out of the same requests.
        pool = stats["pool"]
        out.put("serve.cold_p50_ms", percentile(cold_ms, 0.50))
        out.put("serve.cold_p99_ms", percentile(cold_ms, 0.99))
        out.put("serve.hot_p99_ms", percentile(hot_ms, 0.99))
        out.put("serve.ingest_s", ingests)
        # What the worker pays the first time it sees a fingerprint: its
        # own load + compile, on top of a scored query on a resident book.
        out.put("serve.worker_first_touch_ms",
                min(queries) * 1e3 - out.value("serve.cold_p50_ms"))
        out.put("serve.compiles", compiles)
        out.put("serve.store.bytes", stats["store"]["bytes"])
        out.put("serve.cache.hit_rate.cold", cold_hit_rate)
        out.put("serve.cache.hit_rate.hot", hot_hit_rate)
        out.put("serve.rejections",
                sum(v for k, v in counters.items()
                    if k.startswith("repro_serve_rejected_total")))
        out.put("serve.pool.utilization", pool["utilization"])
        out.put("serve.pool.batches", pool["batches"])
        out.put("serve.pool.retries", pool["retries"])
        out.put("serve.pool.replaced", pool["replaced"])
        out.info["requests"] = {"cold": len(cold_ms), "hot": len(hot_ms),
                                "connections": self.connections}

    def _parity(self, ctx: Ctx, served: Dict[str, Any]) -> List[str]:
        """Every field on which a served answer differs from the library's."""
        from repro.replay import ReplayTrace, what_if_search

        direct = what_if_search(ReplayTrace.load(self.paths[0]),
                                strategies=HOT_STRATEGIES, seed=ctx.seed)
        by_name = {c.strategy: c for c in direct.candidates}
        bad = []
        for cand in served["candidates"]:
            ref = by_name[cand["strategy"]]
            if cand["makespan"] != ref.makespan:
                bad.append(f"{cand['strategy']}: makespan")
            if list(cand["placement"]) != [int(p) for p in ref.placement]:
                bad.append(f"{cand['strategy']}: placement")
        if served["best"] != direct.best.strategy:
            bad.append("best")
        if list(served["k"]) != [int(v) for v in direct.k]:
            bad.append("k")
        return bad

    # -- the traced phase and the per-layer numbers ------------------------

    def trace(self, ctx: Ctx, out: Outcome) -> None:
        from repro.serve import protocol

        # Request spans are built from the stamps the load generator
        # takes anyway, so tracing adds nothing inside the loop; a traced
        # hot phase against the untraced ones shows it.
        with ctx.spans.span("serve.hot.traced"):
            wall, stamps = self._phase(self.hot_s, lambda: self.hot_query,
                                       lambda reply: None)
        parent = len(ctx.spans.rows) - 1
        for name, rows in (("serve.query.cold", self.cold_stamps),
                           ("serve.query.hot", stamps[:200])):
            ctx.spans.rows.extend(
                {"name": name, "workload": self.name, "parent": parent,
                 "start": a, "end": b} for a, b in rows)
        out.put("ledger.trace_overhead_ratio",
                out.value("serve_hot_qps") / (len(stamps) / wall))

        payload = protocol.encode_frame(self.hot_reply)[4:]
        calls = 200 if ctx.quick else 2000

        def encode(_) -> int:
            for _i in range(calls):
                protocol.encode_frame(self.hot_reply)
            return calls

        def decode(_) -> int:
            for _i in range(calls):
                protocol.decode_payload(payload)
            return calls

        out.put("serve.protocol.encode_us", unit_cost_us(encode))
        out.put("serve.protocol.decode_us", unit_cost_us(decode))


WORKLOADS = (Serve(),)
