"""Replay correctness: golden bit-exactness, determinism, fast path,
and collective-algorithm substitution conservation.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.replay.engine import (
    CATEGORIES,
    ReplayError,
    _build_network,
    _replay_compiled,
    _replay_recorded,
    replay,
    trace_byte_matrix,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / \
    "hotpath_golden.json"


def _digest(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()


class TestIdentityBitExact:
    """Replaying the recorded configuration reproduces the live run —
    and therefore the committed hot-path golden — to the last ulp."""

    def test_clocks_match_live_engine(self, fig5_recording):
        trace, engine, _ = fig5_recording
        res = replay(trace, verify=True)
        assert res.exact
        assert res.clocks == list(engine.clocks())
        assert res.max_clock == engine.max_clock

    def test_matrices_match_live_engine(self, fig5_recording):
        trace, engine, _ = fig5_recording
        res = replay(trace)
        for c in CATEGORIES:
            assert np.array_equal(res.counts[c], engine.pml.counts[c])
            assert np.array_equal(res.sizes[c], engine.pml.sizes[c])

    def test_matches_committed_golden(self, fig5_trace):
        golden = json.loads(GOLDEN.read_text())["fig5_shaped"]
        res = replay(trace=fig5_trace, verify=True)
        assert [float.hex(c) for c in res.clocks] == golden["clocks"]
        assert float.hex(res.max_clock) == golden["max_clock"]
        for c in CATEGORIES:
            assert _digest(res.counts[c]) == golden["counts"][c]
            assert _digest(res.sizes[c]) == golden["sizes"][c]


class TestNonIdentityReplay:
    def test_permuted_replay_is_deterministic(self, fig5_trace):
        perm = list(reversed(fig5_trace.binding))
        a = replay(fig5_trace, binding=perm)
        b = replay(fig5_trace, binding=perm)
        assert not a.exact
        assert a.clocks == b.clocks

    def test_byte_matrix_is_placement_invariant(self, fig5_trace):
        perm = list(reversed(fig5_trace.binding))
        moved = replay(fig5_trace, binding=perm)
        stay = replay(fig5_trace)
        assert np.array_equal(moved.byte_matrix(), stay.byte_matrix())
        assert np.array_equal(moved.byte_matrix(), fig5_trace.byte_matrix())

    def test_fast_path_bitwise_equals_reference(self, fig5_trace):
        """_replay_compiled inlines Network.transfer; any drift from the
        straightforward interpreter is a bug, not a tolerance."""
        rng = np.random.default_rng(5)
        for _ in range(3):
            perm = [int(p) for p in rng.permutation(fig5_trace.binding)]
            slow = _replay_recorded(
                fig5_trace, _build_network(fig5_trace, perm, None, None, None),
                exact=False, verify=False)
            fast = _replay_compiled(
                fig5_trace, _build_network(fig5_trace, perm, None, None, None))
            assert fast.clocks == slow.clocks
            assert fast.n_messages == slow.n_messages
            for c in CATEGORIES:
                assert np.array_equal(fast.sizes[c], slow.sizes[c])
                assert np.array_equal(fast.total_sizes[c],
                                      slow.total_sizes[c])

    def test_trace_byte_matrix_matches_event_sweep(self, fig5_trace):
        assert np.array_equal(trace_byte_matrix(fig5_trace),
                              fig5_trace.byte_matrix())
        assert np.array_equal(
            trace_byte_matrix(fig5_trace, monitored_only=True),
            fig5_trace.byte_matrix(monitored_only=True))

    def test_verify_with_non_identity_binding_rejected(self, fig5_trace):
        with pytest.raises(ReplayError):
            replay(fig5_trace, binding=list(reversed(fig5_trace.binding)),
                   verify=True)


class TestSubstitution:
    def test_identity_algorithms_conserve_everything(self, fig5_trace):
        """Re-decomposing every collective with its *recorded* algorithm
        must regenerate the exact same wire traffic."""
        recorded_algs = {}
        for ev in fig5_trace.events:
            if ev[0] == "B" and ev[4]:
                recorded_algs[ev[3]] = ev[4]
        assert recorded_algs  # fig5 records named reduce/bcast algorithms
        base = replay(fig5_trace)
        subst = replay(fig5_trace, substitute=recorded_algs)
        assert subst.n_messages == base.n_messages
        for c in CATEGORIES:
            assert np.array_equal(subst.total_sizes[c], base.total_sizes[c])
            assert np.array_equal(subst.total_counts[c],
                                  base.total_counts[c])
            assert np.array_equal(subst.sizes[c], base.sizes[c])
            assert np.array_equal(subst.counts[c], base.counts[c])

    def test_identity_alg_makespan_close_to_recorded(self, fig5_trace):
        subst = replay(fig5_trace, substitute={
            ev[3]: ev[4] for ev in fig5_trace.events
            if ev[0] == "B" and ev[4]})
        recorded = max(fig5_trace.clocks)
        assert subst.max_clock == pytest.approx(recorded, rel=5e-3)

    def test_changing_algorithm_conserves_volume_not_edges(self, fig5_trace):
        base = replay(fig5_trace)
        subst = replay(fig5_trace, substitute={"bcast": "chain"})
        total = sum(m.sum() for m in base.total_sizes.values())
        total_s = sum(m.sum() for m in subst.total_sizes.values())
        assert total_s == total
        assert not np.array_equal(subst.total_sizes["coll"],
                                  base.total_sizes["coll"])

    def test_unknown_algorithm_rejected(self, fig5_trace):
        with pytest.raises(Exception):
            replay(fig5_trace, substitute={"bcast": "no-such-alg"})


def _without_first_send(trace):
    """A copy of ``trace`` whose first send is gone (a trace's events
    are read-only once built, so corruption means a new trace)."""
    from repro.replay.schema import ReplayTrace

    events = list(trace.events)
    del events[next(i for i, ev in enumerate(events) if ev[0] == "S")]
    return ReplayTrace(
        world_size=trace.world_size, topology=trace.topology,
        binding=trace.binding, params=trace.params, seed=trace.seed,
        monitoring_overhead=trace.monitoring_overhead, comms=trace.comms,
        clocks=trace.clocks, events=events, meta=trace.meta)


def test_unsent_receive_raises(fig5_trace, tmp_path):
    from repro.replay.schema import ReplayTrace

    # Drop the first send; its receive must now fail loudly, on the
    # compiled path, the interpreter, and after a trip through a file.
    trace = _without_first_send(fig5_trace)
    with pytest.raises(ReplayError, match="unsent"):
        replay(trace, binding=list(reversed(trace.binding)))
    with pytest.raises(ReplayError, match="unsent"):
        replay(trace)
    path = str(tmp_path / "t.trace")
    trace.dump(path)
    with pytest.raises(ReplayError, match="unsent"):
        replay(ReplayTrace.load(path), binding=list(reversed(trace.binding)))
