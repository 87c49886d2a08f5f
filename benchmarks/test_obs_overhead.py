"""Bench: the observability layer's disabled-mode cost must be noise.

The contract (DESIGN.md §4.3): with ``REPRO_OBS`` unset, an engine run
pays only one attribute-load-and-None-test per *wait* (at the park site
in ``RecvRequest.co_wait``) over the pre-observability implementation.
This bench measures that directly — it times the per-wait hot path (a
pure point-to-point ping-pong written as a generator program, no
collectives and no adapter threads, so the park dominates) against a
baseline whose ``co_wait`` is the same source with the obs check
stripped, interleaved A/B with min-of-N per arm, and asserts the stock
disabled engine stays within 3%.

Plain ``time.perf_counter`` — no pytest-benchmark fixture — so the CI
``obs-smoke`` job can run it with a bare ``pytest``.  Not part of the
tier-1 suite (``testpaths`` pins that to ``tests/``).
"""

from __future__ import annotations

import inspect
import re
import textwrap
import time

from repro import obs
from repro.obs.metrics import NOOP_REGISTRY
from repro.simmpi import Cluster, Engine, request
from repro.simmpi.request import RecvRequest

OVERHEAD_LIMIT = 1.03
ROUNDS = 5
RETRIES = 3

_OBS_CHECK = re.compile(
    r"^ +o = engine\._obs\n +if o is not None:\n +o\.note_block\(.*\)\n",
    re.MULTILINE)


def _make_baseline_co_wait():
    """``RecvRequest.co_wait`` as it was before the observability layer:
    today's source minus the ``engine._obs`` check, so the two cannot
    drift apart (and the bench fails loudly if the check moves)."""
    source = textwrap.dedent(inspect.getsource(RecvRequest.co_wait))
    stripped, n = _OBS_CHECK.subn("", source)
    assert n == 1, "the obs check at the park site is not where it was"
    namespace = {}
    exec(compile(stripped, "<baseline co_wait>", "exec"),
         vars(request), namespace)
    return namespace["co_wait"]


_baseline_co_wait = _make_baseline_co_wait()


def _pingpong_run(iters=400):
    """One wait-dominated run; returns its wall-clock seconds."""
    cluster = Cluster.plafrim(1, binding="rr")
    engine = Engine(cluster, seed=0)

    def program(comm):
        me, n = comm.rank, comm.size
        for it in range(iters):
            yield from comm.co_sendrecv(
                None, dest=(me + 1) % n, source=(me - 1) % n,
                sendtag=it, recvtag=it, nbytes=1_000)

    t0 = time.perf_counter()
    engine.run(program)
    return time.perf_counter() - t0, engine


def test_disabled_mode_is_structurally_noop():
    """Off by default means *no* obs objects anywhere near the engine."""
    assert not obs.is_enabled()
    assert obs.registry() is NOOP_REGISTRY
    assert obs.spans() is None
    engine = Engine(Cluster.plafrim(1), seed=0)
    assert engine._obs is None
    assert engine._obs_spans is None
    assert engine.pml.trace_hook is None
    assert engine.pml._obs_batch_hist is None


def test_baseline_co_wait_is_faithful():
    """The stripped baseline must still run the simulator bit-exactly
    (otherwise the A/B below compares different simulations)."""
    _, stock = _pingpong_run()
    orig = RecvRequest.co_wait
    RecvRequest.co_wait = _baseline_co_wait
    try:
        _, base = _pingpong_run()
    finally:
        RecvRequest.co_wait = orig
    assert base.switches == stock.switches
    assert [c.hex() for c in base.clocks()] == \
        [c.hex() for c in stock.clocks()]


def test_disabled_mode_overhead_under_3pct():
    assert not obs.is_enabled()
    orig = RecvRequest.co_wait
    for attempt in range(1 + RETRIES):
        stock_t, base_t = [], []
        for _ in range(ROUNDS):
            t, _e = _pingpong_run()
            stock_t.append(t)
            RecvRequest.co_wait = _baseline_co_wait
            try:
                t, _e = _pingpong_run()
            finally:
                RecvRequest.co_wait = orig
            base_t.append(t)
        ratio = min(stock_t) / min(base_t)
        print(f"\nattempt {attempt}: stock {min(stock_t):.4f}s "
              f"baseline {min(base_t):.4f}s ratio {ratio:.4f}")
        if ratio <= OVERHEAD_LIMIT:
            return
    raise AssertionError(
        f"disabled-mode hot path is {ratio:.4f}x the pre-obs baseline "
        f"(limit {OVERHEAD_LIMIT}) after {1 + RETRIES} attempts")
