"""Unit tests for the collective algorithms (all decomposed into p2p)."""

import importlib

import numpy as np
import pytest

from repro.simmpi import MAX, MIN, RankFailure, SUM
from repro.simmpi.collectives import default_algorithm
from repro.simmpi.collectives.allgather import ALGORITHMS as AG_ALGOS
from repro.simmpi.collectives.bcast import ALGORITHMS as BCAST_ALGOS
from repro.simmpi.collectives.reduce import ALGORITHMS as REDUCE_ALGOS
from repro.simmpi.datatypes import Buffer
from tests.conftest import run_spmd

SIZES = [2, 3, 4, 7, 8]


def enable_monitoring(comm):
    comm.engine.pml.set_mode(2)


class TestBcast:
    @pytest.mark.parametrize("algorithm", BCAST_ALGOS)
    @pytest.mark.parametrize("n", SIZES)
    def test_value_everywhere(self, algorithm, n):
        def prog(comm):
            val = np.arange(10) if comm.rank == 2 % comm.size else None
            out = comm.bcast(val, root=2 % comm.size, algorithm=algorithm)
            return np.asarray(out).tolist()

        results, _ = run_spmd(prog, n_ranks=n)
        for r in results:
            assert r == list(range(10))

    def test_abstract_buffer(self):
        def prog(comm):
            out = comm.bcast(None, root=0,
                             nbytes=512 if comm.rank == 0 else None)
            return out.nbytes if isinstance(out, Buffer) else out

        results, _ = run_spmd(prog, n_ranks=4)
        assert results == [512] * 4

    def test_segmented_large_array(self):
        def prog(comm):
            data = np.arange(3_000_000, dtype=np.float64) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            return float(np.asarray(out).reshape(-1).sum())

        results, _ = run_spmd(prog, n_ranks=4)
        expected = float(np.arange(3_000_000, dtype=np.float64).sum())
        assert results == [expected] * 4

    def test_segment_count_recorded_by_monitoring(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.bcast(None, root=0, nbytes=64 * 1024 * 1024
                       if comm.rank == 0 else None, algorithm="binomial")

        _, engine = run_spmd(prog, n_ranks=2)
        count, size = engine.pml.totals("coll")
        assert count == 16  # 64 MB / 4 MB segments over one edge
        assert size == 64 * 1024 * 1024

    def test_explicit_one_segment(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.bcast(None, root=0, nbytes=64 * 1024 * 1024
                       if comm.rank == 0 else None, segments=1)

        _, engine = run_spmd(prog, n_ranks=2)
        assert engine.pml.totals("coll")[0] == 1

    def test_unknown_algorithm(self):
        def prog(comm):
            comm.bcast(1, root=0, algorithm="magic")

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=2)

    def test_singleton_comm(self):
        results, _ = run_spmd(lambda comm: comm.bcast(5, root=0), n_ranks=1)
        assert results == [5]


class TestReduce:
    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    @pytest.mark.parametrize("n", SIZES)
    def test_sum(self, algorithm, n):
        def prog(comm):
            out = comm.reduce(np.float64(comm.rank + 1), SUM, root=0,
                              algorithm=algorithm)
            return None if out is None else float(out)

        results, _ = run_spmd(prog, n_ranks=n)
        assert results[0] == sum(range(1, n + 1))
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    def test_nonzero_root(self, algorithm):
        def prog(comm):
            out = comm.reduce(np.int64(comm.rank), MAX, root=3,
                              algorithm=algorithm)
            return None if out is None else int(out)

        results, _ = run_spmd(prog, n_ranks=5)
        assert results[3] == 4
        assert results[0] is None

    def test_vector_reduce(self):
        def prog(comm):
            data = np.full(4, float(comm.rank))
            out = comm.reduce(data, SUM, root=0, algorithm="binary")
            return None if out is None else out.tolist()

        results, _ = run_spmd(prog, n_ranks=4)
        assert results[0] == [6.0] * 4

    def test_segmented_reduce_matches_unsegmented(self):
        def prog(comm):
            data = np.arange(2_000_000, dtype=np.float64) + comm.rank
            out = comm.reduce(data, SUM, root=0, algorithm="binary")
            return None if out is None else float(np.asarray(out).sum())

        results, _ = run_spmd(prog, n_ranks=4)
        base = np.arange(2_000_000, dtype=np.float64)
        expected = float((4 * base + 6).sum())
        assert results[0] == pytest.approx(expected)

    def test_abstract_reduce(self):
        def prog(comm):
            out = comm.reduce(None, SUM, root=0, nbytes=256)
            return out.nbytes if isinstance(out, Buffer) else out

        results, _ = run_spmd(prog, n_ranks=4)
        assert results[0] == 256

    def test_non_array_payload_cannot_segment(self):
        def prog(comm):
            comm.reduce((1, 2), SUM, root=0, nbytes=16 * 1024 * 1024,
                        algorithm="binary")

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=2)


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_recursive_doubling(self, n):
        def prog(comm):
            return float(comm.allreduce(np.float64(comm.rank), SUM,
                                        algorithm="recursive_doubling"))

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [sum(range(n))] * n

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_reduce_bcast_non_pow2(self, n):
        def prog(comm):
            return float(comm.allreduce(np.float64(comm.rank + 1), MIN))

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [1.0] * n

    def test_recursive_doubling_rejects_non_pow2(self):
        def prog(comm):
            comm.allreduce(np.float64(1), SUM, algorithm="recursive_doubling")

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=3)


class TestGatherScatter:
    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    @pytest.mark.parametrize("n", SIZES)
    def test_gather(self, algorithm, n):
        def prog(comm):
            return comm.gather(comm.rank * 2, root=1 % comm.size,
                               algorithm=algorithm)

        results, _ = run_spmd(prog, n_ranks=n)
        assert results[1 % n] == [2 * i for i in range(n)]
        for r, res in enumerate(results):
            if r != 1 % n:
                assert res is None

    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    @pytest.mark.parametrize(
        "n, root", [pytest.param(n, 0, id=str(n)) for n in SIZES]
        + [pytest.param(n, n - 1, id=f"{n}-last") for n in SIZES])
    def test_scatter(self, algorithm, n, root):
        def prog(comm):
            values = [f"item{i}" for i in range(comm.size)] \
                if comm.rank == root else None
            return comm.scatter(values, root=root, algorithm=algorithm)

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [f"item{i}" for i in range(n)]

    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_arrays_are_copied_not_shared(self, algorithm, n):
        # Messages have copy semantics: after a gather or a scatter of
        # arrays, a write on one rank must not show on another.
        def prog(comm):
            mine = np.zeros(3)
            got = comm.gather(mine, root=0, algorithm=algorithm)
            values = [np.zeros(3) for _ in range(comm.size)] \
                if comm.rank == 0 else None
            item = comm.scatter(values, root=0, algorithm=algorithm)
            comm.barrier()
            if comm.rank != 0:
                mine[:] = 7
                item[:] = 7
            comm.barrier()
            if comm.rank == 0:
                return [a.tolist() for a in got + values]
            return None

        results, _ = run_spmd(prog, n_ranks=n)
        assert results[0] == [[0.0] * 3] * (2 * n)

    def test_scatter_requires_values_at_root(self):
        def prog(comm):
            comm.scatter(None, root=0)

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=2)

    def test_gather_then_scatter_roundtrip(self):
        def prog(comm):
            gathered = comm.gather(comm.rank ** 2, root=0)
            return comm.scatter(gathered, root=0)

        results, _ = run_spmd(prog, n_ranks=5)
        assert results == [i ** 2 for i in range(5)]


class TestAllgather:
    @pytest.mark.parametrize("algorithm", AG_ALGOS)
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_pow2(self, algorithm, n):
        def prog(comm):
            return comm.allgather(comm.rank + 10, algorithm=algorithm)

        results, _ = run_spmd(prog, n_ranks=n)
        for r in results:
            assert r == [i + 10 for i in range(n)]

    @pytest.mark.parametrize("algorithm", ["ring", "gather_bcast"])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_non_pow2(self, algorithm, n):
        def prog(comm):
            return comm.allgather(chr(ord("a") + comm.rank),
                                  algorithm=algorithm)

        results, _ = run_spmd(prog, n_ranks=n)
        expected = [chr(ord("a") + i) for i in range(n)]
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("algorithm", AG_ALGOS)
    @pytest.mark.parametrize("n", [4, 8])
    def test_arrays_are_copied_not_shared(self, algorithm, n):
        # Each rank gets its own copy of every other rank's piece, taken
        # before that rank may reuse its value: writes right after the
        # call, to the input or to any piece, show on no other rank.
        def prog(comm):
            mine = np.full(3, float(comm.rank))
            got = comm.allgather(mine, algorithm=algorithm)
            seen = [piece.tolist() for piece in got]
            mine[:] = -1
            for piece in got:
                piece[:] = -2
            return seen

        results, _ = run_spmd(prog, n_ranks=n)
        assert results == [[[float(r)] * 3 for r in range(n)]] * n

    def test_default_algorithm_selection(self):
        def prog(comm):
            return comm.allgather(comm.rank)

        for n in (4, 6):
            results, _ = run_spmd(prog, n_ranks=n)
            assert results[0] == list(range(n))


class TestAlltoall:
    @pytest.mark.parametrize("algorithm", ["pairwise", "linear"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_personalized_exchange(self, algorithm, n):
        def prog(comm):
            values = [comm.rank * 100 + dst for dst in range(comm.size)]
            return comm.alltoall(values, algorithm=algorithm)

        results, _ = run_spmd(prog, n_ranks=n)
        for me, res in enumerate(results):
            assert res == [src * 100 + me for src in range(n)]

    def test_wrong_value_count(self):
        def prog(comm):
            comm.alltoall([1])

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=3)


class TestBarrier:
    @pytest.mark.parametrize("algorithm", ["dissemination", "tree"])
    def test_synchronizes_clocks(self, algorithm):
        def prog(comm):
            comm.compute(float(comm.rank))  # skew the clocks
            comm.barrier(algorithm=algorithm)
            return comm.time

        results, _ = run_spmd(prog, n_ranks=6)
        # After a barrier no rank can be earlier than the slowest entry.
        assert min(results) >= 5.0

    def test_zero_byte_messages_counted(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.barrier(algorithm="dissemination")

        _, engine = run_spmd(prog, n_ranks=8)
        count, size = engine.pml.totals("coll")
        assert count == 8 * 3  # log2(8) rounds, one send per rank each
        assert size == 0


class TestDecompositionVisibility:
    """The paper's headline: collectives are recorded as p2p messages."""

    def test_bcast_binomial_edge_count(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.bcast(b"x" * 100, root=0, algorithm="binomial")

        _, engine = run_spmd(prog, n_ranks=8)
        count, size = engine.pml.totals("coll")
        assert count == 7  # a tree on 8 ranks has 7 edges
        assert size == 700

    def test_reduce_binary_edge_count(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.reduce(np.float64(1.0), SUM, root=0, algorithm="binary")

        _, engine = run_spmd(prog, n_ranks=8)
        count, _ = engine.pml.totals("coll")
        assert count == 7

    def test_flat_bcast_edge_count(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.bcast(b"ab", root=0, algorithm="flat")

        _, engine = run_spmd(prog, n_ranks=5)
        count, size = engine.pml.totals("coll")
        assert count == 4
        assert size == 8

    def test_user_p2p_not_mixed_with_coll(self):
        def prog(comm):
            enable_monitoring(comm)
            if comm.rank == 0:
                comm.send(b"xyz", dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            comm.barrier()

        _, engine = run_spmd(prog, n_ranks=4)
        assert engine.pml.totals("p2p") == (1, 3)
        assert engine.pml.totals("coll")[1] == 0  # barrier is zero bytes
        assert engine.pml.totals("coll")[0] > 0


class TestBruckAllgather:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
    def test_any_size(self, n):
        def prog(comm):
            return comm.allgather(comm.rank * 3, algorithm="bruck")

        results, _ = run_spmd(prog, n_ranks=n)
        assert all(r == [i * 3 for i in range(n)] for r in results)

    def test_log_rounds(self):
        def prog(comm):
            enable_monitoring(comm)
            comm.allgather(None, nbytes=8, algorithm="bruck")

        _, engine = run_spmd(prog, n_ranks=8)
        count, _ = engine.pml.totals("coll")
        assert count == 8 * 3  # one send per rank per round, 3 rounds


class TestRabenseifnerAllreduce:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_sum(self, n):
        def prog(comm):
            data = np.arange(8, dtype=np.float64) + comm.rank
            return comm.allreduce(data, SUM, algorithm="rabenseifner").tolist()

        results, _ = run_spmd(prog, n_ranks=n)
        expected = (n * np.arange(8, dtype=np.float64) + sum(range(n))).tolist()
        assert all(r == expected for r in results)

    def test_abstract_size_preserved(self):
        def prog(comm):
            out = comm.allreduce(None, SUM, nbytes=1024,
                                 algorithm="rabenseifner")
            return out.nbytes if isinstance(out, Buffer) else None

        results, _ = run_spmd(prog, n_ranks=4)
        assert results == [1024] * 4

    def test_rejects_non_pow2(self):
        def prog(comm):
            comm.allreduce(np.float64(1), SUM, algorithm="rabenseifner")

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=3)


#: One call of each op that takes an algorithm, for ``run_spmd``.
CALLS = {
    "barrier": lambda comm, alg: comm.barrier(alg),
    "bcast": lambda comm, alg: comm.bcast(1, root=0, algorithm=alg),
    "reduce": lambda comm, alg: comm.reduce(np.float64(1), SUM,
                                            algorithm=alg),
    "allreduce": lambda comm, alg: comm.allreduce(np.float64(1), SUM,
                                                  algorithm=alg),
    "gather": lambda comm, alg: comm.gather(comm.rank, algorithm=alg),
    "scatter": lambda comm, alg: comm.scatter(
        list(range(comm.size)) if comm.rank == 0 else None, algorithm=alg),
    "allgather": lambda comm, alg: comm.allgather(comm.rank, algorithm=alg),
    "alltoall": lambda comm, alg: comm.alltoall(list(range(comm.size)),
                                                algorithm=alg),
}


class TestDefaultAlgorithm:
    """The default every entry runs is named in one place, and it is
    one of the entry's own algorithms."""

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("op", sorted(CALLS))
    def test_default_is_an_algorithm_a_live_call_accepts(self, op, n):
        alg = default_algorithm(op, n)
        module = importlib.import_module(f"repro.simmpi.collectives.{op}")
        assert alg in module.ALGORITHMS
        named, _ = run_spmd(lambda comm: CALLS[op](comm, alg), n_ranks=n)
        unnamed, _ = run_spmd(lambda comm: CALLS[op](comm, None), n_ranks=n)
        assert named == unnamed
