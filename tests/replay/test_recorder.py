"""The recorder: pinned to the bytes the tuple recorder it replaced
wrote, and its ``.events`` view pinned as the inverse of the tuple
encoder.

The digests below were captured with the last build whose recorder kept
one tuple per event (the parent of the columnar recorder).
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replay import autorecord
from repro.replay.schema import ReplayTrace
from tests.replay.conftest import columns_of, markers_at_zero
from tests.replay.test_columnar import _bits, _hand_built, assert_same_columns

#: sha256 of (the schema-2 file dumped from the recording, the float-bit
#: form of its ``list(trace.events)``), from the parent build.  Markers
#: carried no clock then: the file digest is of the recording with its
#: ``B`` / ``E`` ``t`` zeroed (``markers_at_zero``).
PARENT_DIGESTS = {
    "fig5_reduce": (
        "f08a9de0363ca92cd9d9003755969d04c59e646bb20bd711d4bf7c35653b2856",
        "0db43c6b4fb18fe4405f9c95ee049307283f9bd0fa23d55a3133d1777895237b"),
    "one_sided_mode_1": (
        "43cb08258ec7da85e97d3d03d6221c3f9413d2f56e10c172643d0ece56ac412d",
        "78db8f971c99c6d17fbd13686c3010869d8d5c49978f3a314d961cf79c6d468e"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _events_digest(trace) -> str:
    return _sha(repr(_bits(list(trace.events))).encode())


def _fig5_reduce():
    from repro.experiments import fig5_collectives

    with autorecord.capture() as traces:
        fig5_collectives.run_cell("reduce", 2, sizes=(100_000, 200_000),
                                  reps=1)
    return traces[0]


def _one_sided_mode_1():
    """Puts, gets and fences under mode-1 monitoring, which charges
    collective traffic as point-to-point (the ``coll`` -> ``p2p``
    remap of ``mcat``)."""
    from repro.simmpi import Cluster, Engine

    def program(comm):
        comm.engine.pml.set_mode(1)
        me, n = comm.rank, comm.size
        win = comm.win_create(np.zeros(16), nbytes=128)
        win.fence()
        if me % 2 == 0:
            win.put(np.ones(4), target=(me + 1) % n, nbytes=32)
        win.fence()
        win.get(target=(me + 3) % n, nbytes=64)
        win.fence()
        comm.bcast(None, root=0, nbytes=40_000 if me == 0 else None)
        comm.barrier()

    with autorecord.capture() as traces:
        Engine(Cluster.plafrim(1, binding="packed", jitter=0.1), seed=4,
               monitoring_overhead=1e-6).run(program)
    return traces[0]


RECORDINGS = {"fig5_reduce": _fig5_reduce,
              "one_sided_mode_1": _one_sided_mode_1}


@pytest.fixture(scope="module")
def recordings():
    return {name: make() for name, make in RECORDINGS.items()}


# ---------------------------------------------------------------------------
# the recorder against the parent's bytes


@pytest.mark.parametrize("name", sorted(RECORDINGS))
def test_recording_dumps_the_parent_bytes(name, recordings, tmp_path):
    path = tmp_path / f"{name}.trace"
    markers_at_zero(recordings[name]).dump(str(path))
    assert _sha(path.read_bytes()) == PARENT_DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(RECORDINGS))
def test_recording_events_are_the_parent_tuples(name, recordings):
    assert _events_digest(recordings[name]) == PARENT_DIGESTS[name][1]


def test_one_sided_recording_covers_the_mode_1_remap(recordings):
    kinds = {ev[0] for ev in recordings["one_sided_mode_1"].events}
    assert kinds == set("SRPGBEF")
    remapped = [ev for ev in recordings["one_sided_mode_1"].events
                if ev[0] == "S" and ev[4] == "coll"]
    assert remapped and {ev[5] for ev in remapped} == {"p2p"}


def test_recorder_keeps_no_message_alive():
    """A finished recording holds no ``Message`` (the tuple recorder kept
    every one while its engine lived, so that ``id(msg)`` stayed
    unique): the send's sequence number rode on the message instead."""
    from repro.simmpi import Cluster, Engine
    from repro.simmpi.match import Message

    def live_messages() -> int:
        gc.collect()
        return sum(isinstance(o, Message) for o in gc.get_objects())

    before = live_messages()
    with autorecord.capture() as traces:
        engine = Engine(Cluster.plafrim(1, binding="packed"), seed=0)
        engine.run(lambda comm: comm.bcast(None, nbytes=4096))
    assert engine._rr is not None and traces[0].n_events > 0
    assert live_messages() == before


@pytest.mark.parametrize("algorithm", ["recursive_doubling", "reduce_bcast",
                                       "rabenseifner"])
def test_a_composed_allreduce_is_one_region(algorithm):
    """Whatever an allreduce algorithm is built from, a rank records one
    ``B`` marker for it: the parts run as module generators, not as the
    spanned ``Communicator`` methods that would each open a region."""
    from repro.simmpi import SUM
    from tests.conftest import run_spmd

    with autorecord.capture() as traces:
        run_spmd(lambda comm: comm.allreduce(
            None, SUM, nbytes=4096, algorithm=algorithm), n_ranks=4)
    begins = [ev for ev in traces[0].events if ev[0] == "B"]
    assert sorted(ev[1] for ev in begins) == [0, 1, 2, 3]
    assert {ev[3] for ev in begins} == {"allreduce"}


def test_len_of_a_recording_allocates_nothing():
    from repro.experiments import fig5_collectives

    with autorecord.capture() as traces:
        fig5_collectives.run_cell("reduce", 2, reps=1)
    events = traces[0].events
    tracemalloc.start()
    try:
        n = len(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 21_102
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# the tuple encoder and the recording's view are inverses

WORLD = 4
#: Finite, and small enough that 40 gaps cannot sum past the float
#: range (a loaded trace whose gaps do is refused as corrupt).
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 0.1 + 0.2]),
    st.floats(-1e300, 1e300))
_ranks = st.integers(0, WORLD - 1)
_sizes = st.integers(0, 2 ** 40)
_signatures = st.tuples(
    st.sampled_from([0, 7, 2 ** 31]), st.sampled_from(["bcast", "reduce"]),
    st.sampled_from(["", "binomial", "chain"]), st.integers(-1, WORLD - 1),
    st.sampled_from([-1, 0, 4096, 2 ** 40]), st.integers(0, 8))


@st.composite
def _event_lists(draw):
    """Every kind, in any order; ``seq`` in range, ``B`` signatures
    drawn from a short list, so they repeat, and each ``F`` at its
    rank's header clock, as a loaded trace's must be: ``(clocks,
    events)``."""
    n = draw(st.integers(1, 40))
    clocks = draw(st.lists(_floats, min_size=WORLD, max_size=WORLD))
    seqs = st.integers(0, n - 1)
    pool = draw(st.lists(_signatures, min_size=1, max_size=3))
    event = st.one_of(
        st.tuples(st.just("S"), _ranks, _ranks, _sizes,
                  st.sampled_from(["p2p", "coll", "osc"]),
                  st.sampled_from(["", "p2p", "coll", "osc"]), seqs,
                  _floats, _floats),
        st.tuples(st.just("R"), _ranks, seqs, _floats, _floats),
        st.tuples(st.sampled_from(["P", "G"]), _ranks, _ranks, _sizes,
                  st.sampled_from(["", "p2p", "coll", "osc"]),
                  _floats, _floats),
        st.builds(lambda r, sig: ("B", r) + sig, _ranks,
                  st.sampled_from(pool)),
        st.tuples(st.just("E"), _ranks),
        st.builds(lambda r, gap: ("F", r, clocks[r], gap), _ranks, _floats))
    return clocks, draw(st.lists(event, min_size=n, max_size=n))


def _over(clocks, **stream) -> ReplayTrace:
    base = _hand_built()
    return ReplayTrace(
        world_size=WORLD, topology=base.topology, binding=base.binding,
        params=base.params, seed=0, monitoring_overhead=0.0,
        comms={7: [0, 1]}, clocks=clocks, **stream)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_event_lists())
def test_encoder_and_view_are_inverses(drawn, tmp_path):
    clocks, events = drawn
    from_tuples = _over(clocks, columns=columns_of(events))
    path = str(tmp_path / "inverse.trace")
    from_tuples.dump(path)
    assert_same_columns(ReplayTrace.load(path), from_tuples)
    recording = _over(clocks, columns=from_tuples.columns())
    view = recording.events
    assert len(view) == recording.n_events == len(events)
    assert _bits(list(view)) == _bits(events)
    assert _bits([view[i] for i in range(-len(events), 0)]) == _bits(events)
    assert _bits(view[1::2]) == _bits(events[1::2])


# ---------------------------------------------------------------------------
# what recording costs the live run


def test_one_python_call_per_recorded_row():
    """Each row is written by the one hook call that observed it: no
    row builder, packer method or category re-derivation runs beside
    it (below ``PACK_ROWS`` rows, so no pack either).  Counted with the
    profiler over the replay package, up to ``run_finished``."""
    import os
    import sys

    import repro.replay
    from repro.replay.schema import K_F, KINDS, PACK_ROWS
    from repro.simmpi import Cluster, Engine

    def program(comm):
        me, n = comm.rank, comm.size
        win = yield from comm.co_win_create(np.zeros(8), nbytes=64)
        yield from win.co_fence()
        yield from win.co_put(np.ones(2), target=(me + 1) % n, nbytes=16)
        yield from win.co_fence()
        yield from win.co_get(target=(me + 2) % n, nbytes=24)
        yield from win.co_fence()
        yield from comm.co_bcast(None, root=0,
                                 nbytes=9_000 if me == 0 else None,
                                 segments=3)
        yield from comm.co_sendrecv(None, dest=(me + 1) % n,
                                    source=(me - 1) % n, nbytes=500)

    package = os.path.dirname(repro.replay.__file__) + os.sep
    calls, finishing = [], []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(package):
            return
        if code.co_name == "run_finished":
            finishing.append(code)
        elif not finishing:
            calls.append(code.co_name)

    with autorecord.capture() as traces:
        engine = Engine(Cluster.plafrim(2, n_ranks=8, binding="rr"), seed=1)
        sys.setprofile(profile)
        try:
            engine.run(program)
        finally:
            sys.setprofile(None)
    kind = traces[0].columns().kind
    rows = int((kind != K_F).sum())
    assert {KINDS[k] for k in kind.tolist()} == set("SRPGBEF")
    assert 0 < rows < PACK_ROWS
    assert len(calls) == rows
