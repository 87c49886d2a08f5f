"""Integration tests against a live daemon subprocess.

Each test spawns its own ``python -m repro.serve start`` with the
config it needs (tiny cache, chaos stalls, bounded queue) and talks to
it with the real client over the real socket — compile deduplication,
LRU eviction, backpressure, and SIGTERM drain are all observed from
the outside, the way an operator would.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError


def _counters(client) -> dict:
    return client.stats()["metrics"]["counters"]


def test_parallel_clients_same_fingerprint_compile_once(
        serve_traces, serve_daemon):
    """N racing clients on one cold fingerprint: exactly one compile,
    exactly one scoring task — everyone shares the single flight."""
    with serve_daemon(jobs=2) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0],
                               compile=False)["fingerprint"]
        results = []
        errors = []

        def ask():
            try:
                with ServeClient(path=sock) as c:
                    results.append(
                        c.query(fp, strategies=["identity"], seed=0))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 6
        makespans = {r["candidates"][0]["makespan"] for r in results}
        assert len(makespans) == 1

        with ServeClient(path=sock) as client:
            stats = client.stats()
        assert stats["metrics"]["counters"][
            "repro_serve_compiles_total"] == 1
        assert stats["pool"]["tasks_ok"] == 1


def test_served_results_bit_identical_to_direct_search(
        serve_traces, serve_daemon):
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search

    strategies = ["identity", "treematch", "greedy", "random"]
    with serve_daemon(jobs=2) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]
            served = client.query(fp, strategies=strategies, seed=3)

    trace = ReplayTrace.load(serve_traces[0])
    direct = what_if_search(trace, strategies=strategies, seed=3)
    by_strategy = {c.strategy: c for c in direct.candidates}
    for cand in served["candidates"]:
        ref = by_strategy[cand["strategy"]]
        assert cand["makespan"] == ref.makespan
        assert cand["placement"] == [int(p) for p in ref.placement]
        assert cand["hop_bytes"] == ref.hop_bytes
        assert cand["inter_node_bytes"] == ref.inter_node_bytes
        assert cand["modeled_cost"] == ref.modeled_cost
    assert served["best"] == direct.best.strategy
    assert served["k"] == [int(v) for v in direct.k]
    assert served["recorded_makespan"] == direct.recorded_makespan


def test_lru_evicts_by_bytes_and_recompiles_transparently(
        serve_traces, serve_daemon):
    """A 1 MiB budget can't hold two multi-MiB books: the second
    ingest evicts the first, and querying the evicted book recompiles
    it (counted) instead of failing."""
    with serve_daemon(jobs=1, cache_mb=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp0 = client.ingest(serve_traces[0])["fingerprint"]
            fp1 = client.ingest(serve_traces[1])["fingerprint"]
            assert fp0 != fp1
            stats = client.stats()
            assert stats["store"]["entries"] == 1
            assert stats["store"]["evictions"] == 1
            assert _counters(client)["repro_serve_compiles_total"] == 2

            res = client.query(fp0, strategies=["identity"])
            assert res["best"] == "identity"
            assert _counters(client)["repro_serve_compiles_total"] == 3
            stats = client.stats()
            assert stats["store"]["entries"] == 1
            assert stats["store"]["evictions"] == 2


def test_backpressure_rejects_before_enqueue(serve_traces, serve_daemon):
    """With the queue bound at 1 and a worker stalled mid-batch, a
    second cold query is refused with ``overloaded`` — but answers the
    server already has (ping, hot cells) keep flowing."""
    chaos = {"REPRO_SERVE_CHAOS": "stall=2.0"}
    with serve_daemon(jobs=1, max_queue=1, env_extra=chaos) as (sock, _p):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]

        slow_result = {}

        def slow():
            with ServeClient(path=sock) as c:
                slow_result["r"] = c.query(fp, strategies=["identity"])

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.7)  # admitted and stalling in the worker
        with ServeClient(path=sock) as client:
            with pytest.raises(ServeError) as excinfo:
                client.query(fp, strategies=["greedy"])
            assert excinfo.value.code == "overloaded"
            client.ping()  # the daemon itself is responsive throughout
            assert _counters(client)[
                "repro_serve_rejected_total{code=overloaded}"] == 1
        t.join(timeout=120)
        assert slow_result["r"]["best"] == "identity"

        # Queue drained: the same query is admitted now, and the
        # stalled cell it raced is a cache hit.
        with ServeClient(path=sock) as client:
            res = client.query(fp, strategies=["identity", "greedy"])
            assert res["cache"]["hits"] >= 1


def test_sigterm_drains_inflight_queries_then_exits_zero(
        serve_traces, serve_daemon):
    """SIGTERM mid-query: the in-flight query still gets its answer,
    new work is refused, and the daemon exits 0."""
    chaos = {"REPRO_SERVE_CHAOS": "stall=2.0"}
    with serve_daemon(jobs=1, env_extra=chaos) as (sock, proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]

        inflight = {}

        def slow():
            with ServeClient(path=sock) as c:
                inflight["r"] = c.query(fp, strategies=["identity"],
                                        seed=7)

        # Open the bystander connection before the listener closes.
        bystander = ServeClient(path=sock)
        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.7)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)

        with pytest.raises(ServeError) as excinfo:
            bystander.query(fp, strategies=["greedy"])
        assert excinfo.value.code == "shutting-down"
        bystander.close()

        t.join(timeout=120)
        assert inflight["r"]["best"] == "identity"
        assert proc.wait(timeout=60) == 0


def test_crashed_worker_is_replaced_and_query_retried(
        serve_traces, serve_daemon):
    """A worker that hard-exits mid-batch is replaced; the query is
    retried on the fresh worker and still answers correctly."""
    chaos = {"REPRO_SERVE_CHAOS": "crash=1"}
    with serve_daemon(jobs=1, backoff="0.01", env_extra=chaos) \
            as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]
            res = client.query(fp, strategies=["identity"])
            assert res["best"] == "identity"
            stats = client.stats()
            assert stats["pool"]["replaced"] == 1
            assert stats["pool"]["retries"] == 1


@pytest.mark.parametrize("reloader", ["worker", "daemon"])
def test_replaced_trace_file_is_an_error_not_a_wrong_answer(
        serve_traces, serve_daemon, tmp_path, reloader):
    """A trace file overwritten after ingest must never be scored under
    its old fingerprint: whoever (re)loads the book — a worker on its
    first touch, or the daemon after an LRU eviction — refuses, the
    query gets ``trace-changed`` naming the path, and a re-ingest
    serves the new file under the new fingerprint."""
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search

    path = str(tmp_path / "live.trace")
    shutil.copyfile(serve_traces[0], path)
    flags = {"jobs": 1, "backoff": "0.01"}
    if reloader == "daemon":
        flags["cache_mb"] = 1
    with serve_daemon(**flags) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp_a = client.ingest(path)["fingerprint"]
            if reloader == "daemon":
                client.query(fp_a, strategies=["identity"])  # warm worker
                client.ingest(serve_traces[1])               # evicts fp_a
            shutil.copyfile(serve_traces[1], path)   # re-recorded in place

            with pytest.raises(ServeError) as excinfo:
                client.query(fp_a, strategies=["greedy"])
            assert excinfo.value.code == "trace-changed"
            assert path in str(excinfo.value)

            fp_b = client.ingest(path)["fingerprint"]
            assert fp_b != fp_a
            served = client.query(fp_b, strategies=["greedy"])

    direct = what_if_search(ReplayTrace.load(serve_traces[1]),
                            strategies=["greedy"])
    assert served["candidates"][0]["makespan"] == direct.best.makespan


def test_unknown_fingerprint_and_bad_requests(serve_traces, serve_daemon):
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            with pytest.raises(ServeError) as excinfo:
                client.query("ff" * 32, strategies=["identity"])
            assert excinfo.value.code == "unknown-fingerprint"

            fp = client.ingest(serve_traces[0])["fingerprint"]
            with pytest.raises(ServeError) as excinfo:
                client.query(fp, strategies=["warp-drive"])
            assert excinfo.value.code == "bad-request"

            with pytest.raises(ServeError) as excinfo:
                client.request({"type": "query"})  # no fingerprint
            assert excinfo.value.code == "bad-request"

            with pytest.raises(ServeError) as excinfo:
                client.ingest(serve_traces[0] + ".missing")
            assert excinfo.value.code == "bad-request"

            # The connection survives every rejection.
            assert client.ping()["type"] == "pong"


def test_focus_from_diagnosis_narrows_generators(serve_traces,
                                                 serve_daemon):
    """A query with a focus payload answers (and caches) separately
    from the unfocused one."""
    focus = {"straggler_ranks": [0, 1], "congested_classes": ["Switch"],
             "weight": 4.0}
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]
            plain = client.query(fp, strategies=["treematch"])
            focused = client.query(fp, strategies=["treematch"],
                                   focus=focus)
            assert focused["meta"]["focus"] == focus
            # Distinct cache cells: the second focused query hits.
            assert focused["cache"] == {"hits": 0, "misses": 1}
            again = client.query(fp, strategies=["treematch"], focus=focus)
            assert again["cache"] == {"hits": 1, "misses": 0}
            assert again["candidates"][0]["makespan"] == \
                focused["candidates"][0]["makespan"]
            assert plain["candidates"][0]["strategy"] == "treematch"


def test_stats_and_query_cli_json_to_stdout(serve_traces, serve_daemon):
    """CLI convention: machine-readable report on stdout (strict
    JSON), all chatter on stderr — same contract as
    ``repro.obs diagnose --json``."""
    with serve_daemon(jobs=1) as (sock, _proc):
        env = dict(os.environ)
        repro_src = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__)))
        env["PYTHONPATH"] = (repro_src + os.pathsep
                             + env.get("PYTHONPATH", ""))

        out = subprocess.run(
            [sys.executable, "-m", "repro.serve", "query",
             "--socket", sock, "--trace", serve_traces[0],
             "--strategies", "identity"],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)       # stdout is pure JSON
        assert doc["type"] == "result"
        assert "best:" in out.stderr       # the human line went to stderr

        out = subprocess.run(
            [sys.executable, "-m", "repro.serve", "stats",
             "--socket", sock],
            capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        stats = json.loads(out.stdout)
        assert stats["type"] == "stats"
        assert stats["store"]["entries"] == 1
