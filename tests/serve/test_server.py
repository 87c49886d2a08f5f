"""Integration tests against a live daemon subprocess.

Each test spawns its own ``python -m repro.serve start`` with the
config it needs (tiny cache, chaos stalls, bounded queue) and talks to
it with the real client over the real socket — who loads a book and
how often, LRU eviction, backpressure, and SIGTERM drain are all
observed from the outside, the way an operator would.
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


def test_a_book_is_built_once_in_the_worker_that_scores_on_it(
        serve_traces, serve_daemon):
    """``ingest`` is one pool task that leaves its worker hot; the
    first query is a second task on the resident book, not a second
    load + compile — in the daemon or anywhere else."""
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            ing = client.ingest(serve_traces[0])
            assert ing["compiled"] and ing["world_size"] == 48
            assert ing["n_events"] > 0
            stats = client.stats()
            assert stats["pool"]["tasks_ok"] == 1
            assert _counters(client)["repro_serve_compiles_total"] == 1
            assert stats["store"]["entries"] == 1
            assert stats["store"]["bytes"] == ing["nbytes"] > 0

            res = client.query(ing["fingerprint"], strategies=["identity"])
            assert res["meta"]["n_events"] == ing["n_events"]
            stats = client.stats()
            assert stats["pool"]["tasks_ok"] == 2
            assert _counters(client)["repro_serve_compiles_total"] == 1
            assert stats["store"]["hits"] == 1


def test_served_results_bit_identical_to_direct_search(
        serve_traces, serve_daemon):
    """A served answer is the library's document in an envelope: the
    whole of it, plain, substituted and focused, to the bit."""
    from repro.placement.focus import Focus
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search
    from tests.replay.conftest import answer_bits

    strategies = ["identity", "treematch", "greedy", "random"]
    focus = {"straggler_ranks": [0, 1], "congested_classes": ["Switch"]}
    queries = [(None, None), ({"reduce": "binomial"}, None), (None, focus)]
    with serve_daemon(jobs=2) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]
            answers = [client.query(fp, strategies=strategies, seed=3,
                                    substitute=substitute, focus=focus)
                       for substitute, focus in queries]

    trace = ReplayTrace.load(serve_traces[0])
    for (substitute, focus), served in zip(queries, answers):
        direct = what_if_search(
            trace, strategies=strategies, seed=3, substitute=substitute,
            focus=Focus.from_dict(focus) if focus else None)
        envelope = {key: served.pop(key) for key in
                    ("type", "fingerprint", "cache", "elapsed_s", "schema")}
        assert envelope["type"] == "result" and envelope["fingerprint"] == fp
        assert answer_bits(served) == answer_bits(direct.to_dict())
    assert answers[0]["candidates"][0]["makespan"] != \
        answers[1]["candidates"][0]["makespan"]
    assert answers[2]["meta"]["focus"] == {**focus, "weight": 4.0}


def test_every_answer_quotes_the_exact_replays_makespan(
        serve_traces, serve_daemon, tmp_path):
    """The recorded makespan is the exact replay's, read from the ``F``
    rows, which a loaded file's header ``clocks`` equal: the ``identity``
    candidate, the library and the daemon all quote it, and a file whose
    header says otherwise is refused by the loader and by ``ingest``."""
    from repro.core.errors import TraceSchemaError
    from repro.replay import replay
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search

    trace = ReplayTrace.load(serve_traces[0])
    exact = replay(trace).max_clock
    assert max(trace.clocks) == exact
    res = what_if_search(trace, strategies=["identity", "treematch"])
    assert res.recorded_makespan == exact
    trace.clocks = [2.0 * c for c in trace.clocks]
    path = str(tmp_path / "clocks-off.trace")
    trace.dump(path)
    with pytest.raises(TraceSchemaError, match="clocks-off.trace"):
        ReplayTrace.load(path)
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0])["fingerprint"]
            served = client.query(fp, strategies=["identity", "treematch"])
            with pytest.raises(ServeError) as excinfo:
                client.ingest(path)
            assert excinfo.value.code == "bad-request"
            assert "header clock" in str(excinfo.value)
    assert served["recorded_makespan"] == res.recorded_makespan == exact
    assert served["speedup"] == res.speedup


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
            fp = client.ingest(serve_traces[0],
                               compile=False)["fingerprint"]
            res = client.query(fp, strategies=["identity"])
            assert res["best"] == "identity"
            stats = client.stats()
            assert stats["pool"]["replaced"] == 1
            assert stats["pool"]["retries"] == 1


def test_worker_crash_during_ingest_is_retried_and_counted_once(
        serve_traces, serve_daemon):
    """The crashed worker never reported a load, so the one that
    answered is the only compile on the books."""
    chaos = {"REPRO_SERVE_CHAOS": "crash=1"}
    with serve_daemon(jobs=1, backoff="0.01", env_extra=chaos) \
            as (sock, _proc):
        with ServeClient(path=sock) as client:
            ing = client.ingest(serve_traces[0])
            assert ing["compiled"] and ing["nbytes"] > 0
            stats = client.stats()
            assert stats["pool"]["replaced"] == 1
            assert stats["pool"]["retries"] == 1
            assert stats["store"]["entries"] == 1
            assert _counters(client)["repro_serve_compiles_total"] == 1
            res = client.query(ing["fingerprint"], strategies=["identity"])
            assert res["best"] == "identity"
            assert _counters(client)["repro_serve_compiles_total"] == 1


def test_sigterm_during_an_ingest_compile_drains_then_exits_zero(
        serve_traces, serve_daemon):
    """SIGTERM while the pool holds an ingest's compile task: the
    ingest is answered (or refused explicitly), then exit 0."""
    chaos = {"REPRO_SERVE_CHAOS": "stall=2.0"}
    with serve_daemon(jobs=1, env_extra=chaos) as (sock, proc):
        outcome = {}

        def ingest():
            try:
                with ServeClient(path=sock) as c:
                    outcome["reply"] = c.ingest(serve_traces[0])
            except ServeError as exc:
                outcome["error"] = exc

        t = threading.Thread(target=ingest)
        t.start()
        time.sleep(0.7)  # hashed, handed to the pool, stalling there
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=120)
        assert not t.is_alive()
        assert "error" in outcome or outcome["reply"]["compiled"], outcome
        assert proc.wait(timeout=60) == 0


def test_interleaved_fingerprints_thrash_a_small_cache_never_an_error(
        serve_traces, serve_daemon):
    """Two books, room for one: every query evicts the other book and
    reloads its own, and every answer is still the library's."""
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import score_candidate

    traces = [ReplayTrace.load(path) for path in serve_traces]
    with serve_daemon(jobs=1, cache_mb=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fps = [client.ingest(path)["fingerprint"]
                   for path in serve_traces]
            assert _counters(client)["repro_serve_compiles_total"] == 2
            for seed in (1, 2, 3):
                for which in (0, 1):
                    served = client.query(fps[which], strategies=["random"],
                                          seed=seed)["candidates"][0]
                    direct = score_candidate(traces[which], "random",
                                             seed=seed)
                    assert served["makespan"] == direct.makespan
                    assert served["placement"] == \
                        [int(p) for p in direct.placement]
            stats = client.stats()
            assert stats["store"]["entries"] == 1
            assert stats["store"]["evictions"] == 7
            assert _counters(client)["repro_serve_compiles_total"] == 8
            assert stats["pool"]["tasks_failed"] == 0


@pytest.mark.parametrize("load", ["first-touch", "reload-after-eviction"])
def test_replaced_trace_file_is_an_error_not_a_wrong_answer(
        serve_traces, serve_daemon, tmp_path, load):
    """A trace file overwritten after ingest must never be scored under
    its old fingerprint: the worker that has to read it — on its first
    touch of a registered-only trace, or again after its LRU dropped
    the book — refuses, the query gets ``trace-changed`` naming the
    path, and a re-ingest serves the new file under the new
    fingerprint."""
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search

    path = str(tmp_path / "live.trace")
    shutil.copyfile(serve_traces[0], path)
    flags = {"jobs": 1}
    if load == "reload-after-eviction":
        flags["cache_mb"] = 1
    with serve_daemon(**flags) as (sock, _proc):
        with ServeClient(path=sock) as client:
            if load == "first-touch":
                fp_a = client.ingest(path, compile=False)["fingerprint"]
            else:
                fp_a = client.ingest(path)["fingerprint"]
                client.query(fp_a, strategies=["identity"])  # resident
                client.ingest(serve_traces[1])               # evicts fp_a
            shutil.copyfile(serve_traces[1], path)   # re-recorded in place

            with pytest.raises(ServeError) as excinfo:
                client.query(fp_a, strategies=["greedy"])
            assert excinfo.value.code == "trace-changed"
            assert path in str(excinfo.value)
            # A refusal is an answer: nothing was retried or failed.
            pool = client.stats()["pool"]
            assert pool["retries"] == 0 and pool["tasks_failed"] == 0

            fp_b = client.ingest(path)["fingerprint"]
            assert fp_b != fp_a
            served = client.query(fp_b, strategies=["greedy"])

    direct = what_if_search(ReplayTrace.load(serve_traces[1]),
                            strategies=["greedy"])
    assert served["candidates"][0]["makespan"] == direct.best.makespan


def test_resident_book_still_answers_for_its_old_content(
        serve_traces, serve_daemon, tmp_path):
    """A book already in a worker *is* the content that hashed to its
    fingerprint; rewriting the file under it changes nothing it says."""
    from repro.replay.schema import ReplayTrace
    from repro.replay.search import what_if_search

    path = str(tmp_path / "live.trace")
    shutil.copyfile(serve_traces[0], path)
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp_a = client.ingest(path)["fingerprint"]
            shutil.copyfile(serve_traces[1], path)
            served = client.query(fp_a, strategies=["greedy"])
            assert _counters(client)["repro_serve_compiles_total"] == 1

    direct = what_if_search(ReplayTrace.load(serve_traces[0]),
                            strategies=["greedy"])
    assert served["candidates"][0]["makespan"] == direct.best.makespan
    assert served["recorded_makespan"] == direct.recorded_makespan


def test_a_failed_first_query_does_not_lose_the_book_it_loaded(
        serve_traces, serve_daemon):
    """A registered-only trace whose first query cannot be scored (an
    algorithm name nobody has) still left a book in the worker: that
    query fails alone, the next one answers from the resident book,
    and the one load is on the books."""
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            fp = client.ingest(serve_traces[0],
                               compile=False)["fingerprint"]
            with pytest.raises(ServeError) as excinfo:
                client.query(fp, strategies=["identity"],
                             substitute={"bcast": "bogus"})
            assert excinfo.value.code == "internal"
            assert "unknown bcast algorithm" in str(excinfo.value)
            assert _counters(client)["repro_serve_compiles_total"] == 1

            res = client.query(fp, strategies=["identity"])
            assert res["best"] == "identity"
            again = client.ingest(serve_traces[0])
            assert again["known"] and again["compiled"]
            assert again["n_events"] == res["meta"]["n_events"]
            stats = client.stats()
            assert _counters(client)["repro_serve_compiles_total"] == 1
            assert stats["store"]["entries"] == 1
            assert stats["pool"]["retries"] == 0


def test_ingesting_a_file_that_is_no_trace_is_a_bad_request(
        serve_daemon, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("not a trace\n")
    with serve_daemon(jobs=1) as (sock, _proc):
        with ServeClient(path=sock) as client:
            with pytest.raises(ServeError) as excinfo:
                client.ingest(str(path))
            assert excinfo.value.code == "bad-request"
            assert "not a repro.replay trace" in str(excinfo.value)
            stats = client.stats()
            assert stats["pool"]["retries"] == 0
            assert stats["pool"]["tasks_failed"] == 0
            assert stats["store"]["entries"] == 0
            assert client.ping()["type"] == "pong"


def test_deeply_nested_frame_is_a_bad_request(serve_daemon):
    """A frame nested deeper than the JSON parser recurses (200 kB, far
    under the size cap) is answered ``bad-request``; the daemon goes on
    serving."""
    import socket
    import struct

    from repro.serve import protocol

    payload = b"[" * 100_000 + b"]" * 100_000
    with serve_daemon(jobs=1) as (sock, _proc):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(sock)
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            reply = protocol.read_frame_sock(raw)
        assert reply["type"] == "error"
        assert reply["code"] == "bad-request"
        assert "nested too deeply" in reply["message"]
        with ServeClient(path=sock) as client:
            assert client.ping()["type"] == "pong"


def test_integer_past_the_digit_limit_is_a_bad_request(serve_daemon):
    """A frame holding an integer longer than the interpreter converts
    (4300 digits by default) is answered ``bad-request``, not dropped;
    the daemon goes on serving."""
    import socket
    import struct

    from repro.serve import protocol

    payload = b'{"schema": 1, "type": "query", "seed": ' + b"9" * 10_000 \
        + b"}"
    with serve_daemon(jobs=1) as (sock, _proc):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(sock)
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            reply = protocol.read_frame_sock(raw)
        assert reply is not None, "the daemon dropped the connection"
        assert reply["type"] == "error"
        assert reply["code"] == "bad-request"
        assert "cannot be parsed" in reply["message"]
        with ServeClient(path=sock) as client:
            assert client.ping()["type"] == "pong"


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
                client.query(fp, strategies=["identity"],
                             focus={"straggler_ranks": [0],
                                    "weight": "heavy"})
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
            # The focus is keyed the way the library reads it: list
            # order and an omitted default weight name the same cell,
            # and each reply echoes its own focus as Focus.to_dict().
            reordered = {"congested_classes": ["Switch"],
                         "straggler_ranks": [1, 0]}
            same = client.query(fp, strategies=["treematch"],
                                focus=reordered)
            assert same["cache"] == {"hits": 1, "misses": 0}
            assert same["candidates"] == focused["candidates"]
            assert same["meta"]["focus"] == {**reordered, "weight": 4.0}
            # A focus that names nothing is the unfocused cell.
            empty = client.query(fp, strategies=["treematch"],
                                 focus={"straggler_ranks": []})
            assert empty["cache"] == {"hits": 1, "misses": 0}
            assert empty["meta"]["focus"] is None
            assert empty["candidates"] == plain["candidates"]


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
