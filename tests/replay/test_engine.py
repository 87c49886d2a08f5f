"""Replay correctness: golden bit-exactness, determinism, fast path,
and collective-algorithm substitution conservation.
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replay import autorecord
from repro.replay.engine import (
    CATEGORIES,
    ReplayError,
    compile_trace,
    replay,
    trace_byte_matrix,
)
from repro.replay.schema import ReplayTrace, params_from_json
from repro.simmpi.errorsim import CommError
from repro.simmpi.topology import Topology
from tests.replay.conftest import columns_of
from tests.replay.reference import reference_replay
from tests.replay.test_columnar import (DATA, FIXTURES, _hand_built,
                                        _one_sided_recording)

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
        """The replay loop prices messages by cost class; any drift
        from the interpreter over the real Network.transfer is a bug,
        not a tolerance."""
        rng = np.random.default_rng(5)
        for _ in range(3):
            perm = [int(p) for p in rng.permutation(fig5_trace.binding)]
            clocks, n_messages = reference_replay(fig5_trace, binding=perm)
            fast = replay(fig5_trace, binding=perm)
            assert fast.clocks == clocks
            assert fast.n_messages == n_messages

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

    def test_verify_under_substitution_rejected(self, fig5_trace):
        """A substituted replay is rescheduled in derived order: there
        is no recording to verify it against, and saying nothing would
        read as "verified"."""
        with pytest.raises(ReplayError, match="verify requires an exact"):
            replay(fig5_trace, substitute={"reduce": "binomial"},
                   verify=True)


@pytest.fixture(scope="module")
def fig5_fixture():
    return ReplayTrace.load(str(DATA / "fig5.trace"))


class TestBindingOutsideTheTopology:
    """A PU the topology does not have is an error naming the rank —
    not an IndexError mid-replay, and not (negative: python lists and
    numpy tables wrap) a makespan."""

    @pytest.mark.parametrize("pu", [-1, -30, 48, 10 ** 6])
    def test_replay_names_the_rank_and_the_pu(self, fig5_fixture, pu):
        assert Topology(fig5_fixture.topology).n_pus == 48
        binding = list(fig5_fixture.binding)
        binding[3] = pu
        with pytest.raises(ReplayError,
                           match=rf"rank 3 is bound to PU {pu}, outside"):
            replay(fig5_fixture, binding=binding)
        with pytest.raises(ReplayError, match="rank 3 is bound to PU"):
            replay(fig5_fixture, binding=binding,
                   substitute={"reduce": "binomial"})

    def test_two_ranks_on_one_pu_fail(self, fig5_fixture):
        """It used to return a makespan for a binding ``Cluster``
        refuses: all 48 ranks on PU 0 read 0.000473 s."""
        pu = fig5_fixture.binding[4]
        binding = list(fig5_fixture.binding)
        binding[3] = pu
        for kwargs in ({}, {"substitute": {"reduce": "binomial"}}):
            with pytest.raises(ReplayError, match=rf"ranks 3 and 4 are "
                               rf"both bound to PU {pu}$"):
                replay(fig5_fixture, binding=binding, **kwargs)
        with pytest.raises(ReplayError, match="ranks 0 and 1 are both"):
            replay(fig5_fixture, binding=[0] * fig5_fixture.world_size)


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
        with pytest.raises(CommError,
                           match="unknown bcast algorithm 'no-such-alg'"):
            replay(fig5_trace, substitute={"bcast": "no-such-alg"})
        with pytest.raises(CommError, match="cannot substitute 'gather'"):
            replay(fig5_trace, substitute={"gather": "flat"})


def _without_send(trace, seq):
    """A copy of ``trace`` whose send of message ``seq`` is gone (a
    trace's events are read-only once built, so corruption means a new
    trace)."""
    from repro.replay.schema import ReplayTrace

    events = [ev for ev in trace.events
              if not (ev[0] == "S" and ev[6] == seq)]
    assert len(events) == len(trace.events) - 1
    return ReplayTrace(
        world_size=trace.world_size, topology=trace.topology,
        binding=trace.binding, params=trace.params, seed=trace.seed,
        monitoring_overhead=trace.monitoring_overhead, comms=trace.comms,
        clocks=trace.clocks, columns=columns_of(events), meta=trace.meta)


def _without_first_send(trace):
    return _without_send(
        trace, next(ev[6] for ev in trace.events if ev[0] == "S"))


def test_unsent_receive_raises(fig5_trace, tmp_path):
    from repro.replay.schema import ReplayTrace

    # Drop the first send; its receive must now fail loudly, on the
    # compiled path, the interpreter, and after a trip through a file.
    trace = _without_first_send(fig5_trace)
    with pytest.raises(ReplayError, match="unsent"):
        replay(trace, binding=list(reversed(trace.binding)))
    with pytest.raises(ReplayError, match="unsent"):
        replay(trace)
    # ... and by the ready-set scheduler, which used to call it a
    # deadlock of 12 944 events (the send is a barrier's: not replaced).
    with pytest.raises(ReplayError, match="unsent message #0$"):
        replay(trace, substitute={"reduce": "binomial"})
    path = str(tmp_path / "t.trace")
    trace.dump(path)
    with pytest.raises(ReplayError, match="unsent"):
        replay(ReplayTrace.load(path), binding=list(reversed(trace.binding)))


# ---------------------------------------------------------------------------
# the loop against the live arithmetic


@pytest.fixture(scope="module")
def sources(fig5_trace):
    from tests.golden.hotpath_workloads import jittered_p2p

    with autorecord.capture() as traces:
        jittered_p2p()                              # jitter 0.15
    out = {"fig5_shaped": fig5_trace,
           "osc_and_overhead": _one_sided_recording(),   # puts, the charge
           "jittered_p2p": traces[0],
           "hand-built": _hand_built()}
    for name in FIXTURES:                           # osc: jitter 0.1, P and G
        out[name] = ReplayTrace.load(str(DATA / name))
    return out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replay_equals_the_reference_interpreter(sources, data):
    """Whatever is changed about the network, the class-priced loop and
    the interpreter stepping the real ``Network.transfer`` agree to the
    last bit — exact mode included, when nothing is changed."""
    trace = sources[data.draw(st.sampled_from(sorted(sources)), "source")]
    knobs = {}
    if data.draw(st.booleans(), "move"):
        knobs["binding"] = data.draw(st.permutations(trace.binding), "binding")
    if data.draw(st.booleans(), "re-parameterise"):
        knobs["params"] = dataclasses.replace(
            params_from_json(trace.params),
            nic_serialize=data.draw(st.booleans(), "nic_serialize"),
            mem_bandwidth=data.draw(st.sampled_from([None, 9e9]), "mem_bw"),
            jitter=data.draw(st.sampled_from([0.0, 0.1]), "jitter"))
    if data.draw(st.booleans(), "reseed"):
        knobs["seed"] = data.draw(st.integers(0, 2 ** 31 - 1), "seed")
    if data.draw(st.booleans(), "another machine"):
        knobs["topology"] = Topology(
            [("node", 3), ("core", max(trace.binding) // 3 + 1)])
    res = replay(trace, **knobs)
    clocks, n_messages = reference_replay(trace, exact=res.exact, **knobs)
    assert res.exact or knobs
    assert [c.hex() for c in res.clocks] == [c.hex() for c in clocks]
    assert res.n_messages == n_messages
    book = compile_trace(trace)
    for got, want in ((res.counts, book.counts), (res.sizes, book.sizes),
                      (res.total_counts, book.total_counts),
                      (res.total_sizes, book.total_sizes)):
        assert all(got[c] is want[c] for c in CATEGORIES)
