"""The ready-set scheduler (``engine._replay_ready``) and the column
transform that feeds it substituted runs (``patterns.apply_substitution``):
pinned to the scheduler they replaced by ``substituted_golden.json``,
and to the live engine by ``tests/replay/live.py``.
"""

import json

import numpy as np
import pytest

from repro.replay import autorecord
from repro.replay.engine import (CATEGORIES, ReplayError, _build_network,
                                 _replay_ready, compile_trace, replay)
from repro.replay.patterns import apply_substitution
from repro.replay.schema import K_E, K_R, K_S, ReplayTrace
from repro.simmpi import MAX, SUM, Cluster, Engine
from scripts.capture_hotpath_golden import (SUBSTITUTED_OUT,
                                            substituted_cells)
from tests.replay.live import live_clocks
from tests.replay.conftest import columns_of
from tests.replay.test_columnar import forbid_tuples
from tests.replay.test_engine import _without_send


def _ready(trace, binding=None):
    return _replay_ready(trace, _build_network(trace, binding))


@pytest.fixture(scope="module")
def inputs(fig5_trace):
    """The golden's inputs (the session's recording stands in for a
    second simulation of ``fig5_shaped``)."""
    from tests.golden.timeline_workloads import INPUTS

    return {name: fig5_trace if name == "fig5_shaped" else build()
            for name, build in INPUTS.items()}


# ---------------------------------------------------------------------------
# against the scheduler it replaced


@pytest.mark.parametrize("name", ["fig5.schema1", "fig5_shaped",
                                  "osc.schema1"])
def test_substituted_replays_match_the_parent_bit_for_bit(name, inputs):
    """Clocks, message count and all twelve matrices of 21 substituted
    replays per input, as ``_replay_derived`` + ``_Books`` answered at
    the commit before this kernel (don't re-capture: see the script)."""
    with open(SUBSTITUTED_OUT, encoding="ascii") as fh:
        golden = {key: cell for key, cell in json.load(fh).items()
                  if key.startswith(name + "|")}
    cells = substituted_cells(name, inputs[name])
    assert sorted(cells) == sorted(golden) and len(cells) == 21
    for key, cell in cells.items():
        assert cell == golden[key], key


def test_a_substituted_run_is_a_columns_only_trace(inputs, tmp_path,
                                                   monkeypatch):
    """Per-rank program order, generated messages numbered past every
    ``seq`` the recording mentions, its books the result's own — from a
    file-loaded trace, with no event tuple built."""
    path = str(tmp_path / "fig5.trace")
    inputs["fig5_shaped"].dump(path)
    forbid_tuples(monkeypatch)
    trace = ReplayTrace.load(path)
    run = apply_substitution(trace, {"bcast": "chain", "reduce": "flat"})
    assert run.binding == trace.binding and run.comms == trace.comms
    was, now = trace.columns(), run.columns()
    assert np.all(np.diff(now.rank) >= 0)
    ops = {sig[1]: sig[2] for sig in now.colls}
    assert ops["bcast"] == "chain" and ops["reduce"] == "flat"
    # Fresh numbers; and every message is still sent once, waited once.
    recorded = was.seq[(was.kind == K_S) | (was.kind == K_R)]
    sends, waits = now.seq[now.kind == K_S], now.seq[now.kind == K_R]
    fresh = np.setdiff1d(sends, recorded)
    assert len(fresh) and fresh.min() > recorded.max()
    assert sorted(sends) == sorted(waits) == sorted(set(sends))
    # A generated row sits inside its rank's region, ahead of the E.
    generated = np.flatnonzero(np.isin(now.seq, fresh)
                               & ((now.kind == K_S) | (now.kind == K_R)))
    closing = np.flatnonzero(now.kind == K_E)
    nxt = closing[np.searchsorted(closing, generated)]
    assert np.array_equal(now.rank[nxt], now.rank[generated])
    so_far = np.cumsum(np.isin(np.arange(len(now.kind)), generated))
    assert np.array_equal(so_far[nxt] - so_far[generated],
                          nxt - generated - 1)     # nothing else between

    res = _ready(run, binding=list(reversed(trace.binding)))
    book = compile_trace(run)
    for got, want in ((res.counts, book.counts), (res.sizes, book.sizes),
                      (res.total_counts, book.total_counts),
                      (res.total_sizes, book.total_sizes)):
        assert all(got[c] is want[c] for c in CATEGORIES)
    assert res.n_messages == book.n_messages == len(sends)
    assert res.clocks == replay(
        trace, binding=list(reversed(trace.binding)),
        substitute={"bcast": "chain", "reduce": "flat"}).clocks


def test_substituting_nothing_is_the_recording_in_program_order(inputs):
    trace = inputs["osc.schema1"]
    run = apply_substitution(trace, {"reduce": "flat"})   # osc has no reduce
    order = np.argsort(trace.columns().rank, kind="stable")
    for name in ("t", "gap", "nbytes", "rank", "peer", "seq", "kind", "cat",
                 "mcat"):
        assert getattr(run.columns(), name).tobytes() == \
            getattr(trace.columns(), name)[order].tobytes(), name
    assert run.columns().colls == trace.columns().colls


# ---------------------------------------------------------------------------
# a message nobody sends


def test_a_generated_message_cannot_stand_in_for_a_missing_one(inputs):
    """Send #572 of the osc fixture is its highest-numbered (rank 14 ->
    15, 8 bytes, inside an allreduce).  Without it, generated messages
    numbered from ``max(sent) + 1`` started at 572 and the first — a
    40 000-byte bcast segment 0 -> 1 — satisfied rank 15's wait: a
    makespan where every other replay of that trace is an error."""
    osc = inputs["osc.schema1"]
    assert max(ev[6] for ev in osc.events if ev[0] == "S") == 572
    cut = _without_send(osc, 572)
    with pytest.raises(ReplayError, match="unsent message #572"):
        replay(cut, binding=list(reversed(cut.binding)))
    with pytest.raises(ReplayError, match="unsent message #572"):
        replay(cut, substitute={"bcast": "chain"})
    with pytest.raises(ReplayError, match="unsent message #572"):
        _ready(cut)


def test_a_wait_cycle_is_a_deadlock_not_a_hang():
    """Two ranks that each receive before they send."""
    from tests.replay.test_columnar import _hand_built

    base = _hand_built()
    trace = ReplayTrace(
        world_size=2, topology=base.topology, binding=[0, 1],
        params=base.params, seed=0, monitoring_overhead=0.0, comms={},
        clocks=[0.0, 0.0],
        columns=columns_of([
            ("R", 0, 1, 0.0, 0.0), ("S", 0, 1, 8, "p2p", "", 0, 0.0, 0.0),
            ("R", 1, 0, 0.0, 0.0), ("S", 1, 0, 8, "p2p", "", 1, 0.0, 0.0),
            ("F", 0, 0.0, 0.0), ("F", 1, 0.0, 0.0)]))
    with pytest.raises(ReplayError, match=r"deadlock: 2 ranks .* \[0, 1\]"):
        _ready(trace)


# ---------------------------------------------------------------------------
# against the live engine


@pytest.fixture(scope="module")
def jittered_trace():
    from tests.golden.hotpath_workloads import jittered_p2p

    with autorecord.capture() as traces:
        jittered_p2p()                              # jitter 0.15
    return traces[0]


@pytest.mark.parametrize("name", ["fig5_shaped", "fig5.schema1",
                                  "osc.schema1", "jittered_p2p"])
def test_recorded_binding_reproduces_the_recorded_clocks(
        name, inputs, jittered_trace):
    """Nothing moved: the earliest ``(issue time, rank)`` among the
    ready injections *is* the order the live engine claimed the network
    in (jitter 0.1 with put/get on ``osc``, 0.15 on ``jittered_p2p``)."""
    trace = jittered_trace if name == "jittered_p2p" else inputs[name]
    res = _ready(trace)
    assert [c.hex() for c in res.clocks] == [c.hex() for c in trace.clocks]
    assert res.n_messages == replay(trace).n_messages


def _fid(comm):
    """The ledger's fidelity program: reduce + bcast, 1 M and 5 M ints."""
    from repro.apps.microbench import co_collective_kernel

    for n_ints in (1_000_000, 5_000_000):
        for op in ("reduce", "bcast"):
            yield from co_collective_kernel(comm, op, n_ints)


def _mix(comm):
    """No barrier overlapping bulk traffic: its zero-byte sends all
    leave a busy NIC at the same instant, the ranks they release tie
    exactly — jitter or not — and the live engine does not break that
    tie by rank (ROADMAP item 1b)."""
    me, n = comm.rank, comm.size
    yield from comm.co_barrier()
    yield from comm.co_bcast(None, root=0, nbytes=300_000 if me == 0 else None)
    yield from comm.co_allreduce(me, SUM, nbytes=64)
    yield from comm.co_sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                                nbytes=20_000)
    yield from comm.co_reduce(None, MAX, root=0, nbytes=2_000_000)
    yield from comm.co_allgather(me, nbytes=4_096)


@pytest.mark.parametrize("program", [_fid, _mix], ids=["fid", "mix"])
def test_replaced_replay_equals_a_live_rerun_on_every_rank(program):
    """Two nodes, jitter 0.1, two fixed permutations of the binding:
    the ready-set clocks ``==`` the clocks of the program run again
    under that binding.  (Jitter 0 is left out on purpose: it makes
    exact ties in issue time common, and those are broken by rank here
    and not by the live ready queue — ROADMAP item 1b.)"""
    with autorecord.capture() as traces:
        Engine(Cluster.plafrim(2, binding="rr", jitter=0.1),
               seed=11).run(program)
    trace = traces[0]
    assert _ready(trace).clocks == trace.clocks
    for seed in (1, 2):
        binding = [int(p) for p in
                   np.random.default_rng(seed).permutation(trace.binding)]
        live = live_clocks(trace, program, binding)
        assert [c.hex() for c in _ready(trace, binding).clocks] == \
            [c.hex() for c in live]
        # ... which the recorded-order loop only approximates.
        assert replay(trace, binding=binding).clocks != live
