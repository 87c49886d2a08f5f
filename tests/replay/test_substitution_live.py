"""Substitution against the live run it stands for.

An instance recorded under algorithm A and substituted to B must be,
rank by rank, what a live run under B records: the same sends as
(destination, bytes) and the same receive-waits as (source, bytes), in
the same program order.  Substitution walks the live modules' own
``tree()`` and takes its segment count from the recording when that
pipelined too, so this holds both to the live bodies over every
(recorded, substituted) pair — the recorded algorithm ``None`` too,
which a trace records as ``""``.
"""

import functools

import pytest

from repro.replay import autorecord
from repro.replay.patterns import SUBSTITUTABLE, apply_substitution
from repro.replay.schema import K_R, K_S
from repro.simmpi import MAX, Cluster, CommError, Engine, RankFailure

#: name -> (nodes, root, bytes, segments, split into comm.rank % 3)
SHAPES = {
    "1k": (1, 0, 1_000, None, False),
    "40M": (2, 5, 40_000_000, None, False),
    "remainder": (2, 0, 9_000_001, None, False),
    "segments3": (1, 3, 20_000_000, 3, False),
    "split": (1, 4, 30_000_000, None, True),
}
PAIRS = [(op, recorded, substituted) for op, algs in SUBSTITUTABLE.items()
         for recorded in (None,) + algs for substituted in algs]


def _program(op, algorithm, root, nbytes, segments=None, split=False,
             value=None):
    def program(comm):
        yield from comm.co_barrier()
        if split:
            comm = yield from comm.co_split(comm.rank % 3, key=-comm.rank)
        if op == "bcast":
            yield from comm.co_bcast(value, root=root, nbytes=nbytes,
                                     algorithm=algorithm, segments=segments)
        else:
            yield from comm.co_reduce(value, MAX, root=root, nbytes=nbytes,
                                      algorithm=algorithm, segments=segments)
        yield from comm.co_barrier()
    return program


def _record(nodes, program):
    with autorecord.capture() as traces:
        Engine(Cluster.plafrim(nodes), seed=0).run(program)
    return traces[0]


@functools.lru_cache(maxsize=None)
def _recorded(shape, op, algorithm):
    nodes, root, nbytes, segments, split = SHAPES[shape]
    return _record(nodes, _program(op, algorithm, root, nbytes, segments,
                                   split))


def _rows(trace):
    """Rank -> its sends ``("S", dst, nbytes)`` and receive-waits
    ``("R", src, nbytes)`` in program order (a wait is resolved through
    its sequence number to the send it waited for)."""
    c = trace.columns()
    sends = c.kind == K_S
    sent = dict(zip(c.seq[sends].tolist(),
                    zip(c.rank[sends].tolist(), c.nbytes[sends].tolist())))
    rows = {}
    for kind, rank, peer, seq, nbytes in zip(
            c.kind.tolist(), c.rank.tolist(), c.peer.tolist(),
            c.seq.tolist(), c.nbytes.tolist()):
        if kind == K_S:
            rows.setdefault(rank, []).append(("S", peer, nbytes))
        elif kind == K_R:
            rows.setdefault(rank, []).append(("R",) + sent[seq])
    return rows


def _assert_same_rows(got, want):
    assert sorted(got) == sorted(want)
    for rank in want:
        assert got[rank] == want[rank], f"rank {rank}"


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("op,recorded,substituted", PAIRS)
def test_a_substitution_is_the_live_run_of_its_algorithm(
        shape, op, recorded, substituted):
    trace = _recorded(shape, op, recorded)
    assert {sig[2] for sig in trace.columns().colls
            if sig[1] == op} == {recorded or ""}
    run = apply_substitution(trace, {op: substituted})
    _assert_same_rows(_rows(run), _rows(_recorded(shape, op, substituted)))


# ---------------------------------------------------------------------------
# a recorded decomposition the live rule would not rebuild


@pytest.mark.parametrize("op,algorithm", [("bcast", "binomial"),
                                          ("reduce", "binary")])
@pytest.mark.parametrize("segments", [0, -2])
def test_fewer_than_one_segment_is_refused_live(op, algorithm, segments):
    with pytest.raises(RankFailure) as err:
        Engine(Cluster.plafrim(1), seed=0).run(
            _program(op, algorithm, 0, 40_000_000, segments))
    assert isinstance(err.value.original, CommError)
    assert "segments >= 1" in str(err.value.original)


@pytest.mark.parametrize("op,algorithm", [("bcast", "binomial"),
                                          ("reduce", "binary")])
@pytest.mark.parametrize("segments", [0, -2])
def test_a_pipelined_recording_fixes_the_segment_count(op, algorithm,
                                                        segments):
    """A trace that says ``segments=0`` (or -2) where the run sent one
    segment per edge — what ``max(1, segments)`` made of it before such
    a call was refused — is rebuilt with one segment, not with the
    count a 40 MB buffer would get."""
    trace = _record(1, _program(op, algorithm, 0, 40_000_000, 1))
    c = trace.columns()
    said = c._replace(colls=[sig[:5] + (segments,) if sig[1] == op else sig
                             for sig in c.colls])
    trace = trace._with_columns(said)
    _assert_same_rows(_rows(apply_substitution(trace, {op: algorithm})),
                      _rows(trace))


@pytest.mark.parametrize("recorded", [None, "binomial"])
@pytest.mark.parametrize("substituted", SUBSTITUTABLE["bcast"])
def test_an_unsliceable_payload_keeps_its_one_segment(recorded, substituted):
    """The live root cannot slice a dict, so it sends one 40 MB message
    per edge; substitution reads that count off the recording."""
    def run(algorithm):
        return _record(1, _program("bcast", algorithm, 0, 40_000_000,
                                   value={"a": 1}))

    trace = run(recorded)
    _assert_same_rows(_rows(apply_substitution(trace, {"bcast": substituted})),
                      _rows(run(substituted)))
