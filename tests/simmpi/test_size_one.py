"""Every collective, ``dup`` and ``split`` on one-rank communicators.

A decomposition with nothing to send may hand back ``()`` or a generator
that returns at once instead of its algorithm's generator, and the
blocking spelling drives whatever it gets.  Each case runs on a world of
size 1 and on the singletons ``comm.split(comm.rank, 0)`` makes of a
three-rank world, through both spellings (bccp/runtests'
``MPITest(commsize=[1, ...])`` applied to this engine).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import SUM, Cluster, Engine, Topology
from repro.simmpi.collectives import (allgather, allreduce, alltoall, barrier,
                                      bcast, gather, reduce, scatter)

V = np.arange(4.0)

# name -> (args, kwargs, algorithms, expected result)
CASES = {
    "barrier": ((), {}, barrier.ALGORITHMS, None),
    "bcast": ((V,), {"root": 0}, bcast.ALGORITHMS, V),
    "reduce": ((V, SUM), {"root": 0}, reduce.ALGORITHMS, V),
    "allreduce": ((V, SUM), {}, allreduce.ALGORITHMS, V),
    "gather": ((V,), {"root": 0}, gather.ALGORITHMS, [V]),
    "scatter": (([V],), {"root": 0}, scatter.ALGORITHMS, V),
    "allgather": ((V,), {}, allgather.ALGORITHMS, [V]),
    "alltoall": (([V],), {}, alltoall.ALGORITHMS, [V]),
    "scan": ((V, SUM), {}, (None,), V),
    "exscan": ((V, SUM), {}, (None,), None),
    "reduce_scatter": (([V], SUM), {}, (None,), V),
}

CALLS = [(name, alg) for name, case in CASES.items() for alg in case[2]]


def _same(a, b) -> bool:
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(_same, a, b)))
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b))


def _call(name, algorithm):
    args, kwargs, _, _ = CASES[name]
    if algorithm is not None:
        kwargs = dict(kwargs, algorithm=algorithm)
    return args, kwargs


def _programs(name, algorithm, split):
    """(generator, blocking) programs running one call on a one-rank
    communicator; each returns (result, communicator size)."""
    args, kwargs = _call(name, algorithm)

    def gen_program(world):
        comm = (yield from world.co_split(world.rank, 0)) if split else world
        out = yield from getattr(comm, "co_" + name)(*args, **kwargs)
        return out, comm.size

    def blocking_program(world):
        comm = world.split(world.rank, 0) if split else world
        return getattr(comm, name)(*args, **kwargs), comm.size

    return gen_program, blocking_program


def _run(program, n_ranks):
    engine = Engine(Cluster(Topology([("node", 1), ("core", 4)]), n_ranks))
    return engine, engine.run(program)


@pytest.mark.parametrize("spelling", ["generator", "blocking"])
@pytest.mark.parametrize("split", [False, True], ids=["world1", "split"])
@pytest.mark.parametrize("name,algorithm", CALLS,
                         ids=[f"{n}-{a}" for n, a in CALLS])
def test_collective_on_one_rank(name, algorithm, split, spelling):
    gen_program, blocking_program = _programs(name, algorithm, split)
    program = gen_program if spelling == "generator" else blocking_program
    n_ranks = 3 if split else 1
    engine, results = _run(program, n_ranks)
    expected = CASES[name][3]
    for out, size in results:
        assert size == 1
        assert _same(out, expected), (name, algorithm, out)
    if not split:
        assert engine.messages == 0  # nothing to send on one rank


def _dup_split_gen(world):
    comm = (yield from world.co_split(world.rank, 0)) if world.size > 1 \
        else world
    dup = yield from comm.co_dup()
    yield from dup.co_barrier()
    same = yield from comm.co_split(0, 0)
    none = yield from comm.co_split(-1, 0)
    total = yield from same.co_allreduce(V, SUM)
    return dup.size, dup is comm, same.size, none, total


def _dup_split_blocking(world):
    comm = world.split(world.rank, 0) if world.size > 1 else world
    dup = comm.dup()
    dup.barrier()
    same = comm.split(0, 0)
    none = comm.split(-1, 0)
    total = same.allreduce(V, SUM)
    return dup.size, dup is comm, same.size, none, total


@pytest.mark.parametrize("n_ranks", [1, 3], ids=["world1", "split"])
@pytest.mark.parametrize("program", [_dup_split_gen, _dup_split_blocking],
                         ids=["generator", "blocking"])
def test_dup_and_split_on_one_rank(program, n_ranks):
    _, results = _run(program, n_ranks)
    for dup_size, dup_is_comm, same_size, none, total in results:
        assert (dup_size, dup_is_comm, same_size, none) == (1, False, 1, None)
        assert np.array_equal(total, V)


def _all_calls_gen(world):
    out = []
    for name, algorithm in CALLS:
        args, kwargs = _call(name, algorithm)
        out.append((yield from getattr(world, "co_" + name)(*args, **kwargs)))
    return out


def _all_calls_blocking(world):
    out = []
    for name, algorithm in CALLS:
        args, kwargs = _call(name, algorithm)
        out.append(getattr(world, name)(*args, **kwargs))
    return out


def test_both_spellings_agree_on_a_one_rank_world():
    """Same results, clocks and switch counts, whichever spelling ran
    every call back to back."""
    eng_g, res_g = _run(_all_calls_gen, 1)
    eng_b, res_b = _run(_all_calls_blocking, 1)
    assert _same(res_g[0], res_b[0])
    assert eng_g.clocks() == eng_b.clocks()
    assert eng_g.switches == eng_b.switches == eng_g.resumes
