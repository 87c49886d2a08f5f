"""Unit tests for point-to-point messaging semantics."""

import numpy as np
import pytest

from repro.simmpi import ANY_SOURCE, ANY_TAG, CommError, RankFailure
from repro.simmpi.request import waitall
from tests.conftest import run_spmd


class TestSendRecv:
    def test_value_delivery(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 1}, dest=1, tag=3)
                return None
            msg = comm.recv(source=0, tag=3)
            return (msg.payload, msg.src, msg.tag)

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == ({"a": 1}, 0, 3)

    def test_numpy_payload_copied_at_send(self):
        def prog(comm):
            if comm.rank == 0:
                arr = np.array([1.0, 2.0])
                comm.send(arr, dest=1)
                arr[0] = 99.0  # mutation after send must not be visible
            else:
                return comm.recv(source=0).payload[0]

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == 1.0

    def test_abstract_send_carries_size_only(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(None, dest=1, nbytes=123_456)
            else:
                msg = comm.recv(source=0)
                return (msg.payload, msg.nbytes)

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == (None, 123_456)

    def test_zero_byte_message(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(None, dest=1)
            else:
                return comm.recv(source=0).nbytes

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == 0

    def test_send_before_recv_posted(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(7, dest=1)
                comm.compute(1.0)
            else:
                comm.compute(2.0)  # recv posted long after arrival
                return comm.recv(source=0).payload

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == 7

    def test_recv_before_send_posted(self):
        def prog(comm):
            if comm.rank == 1:
                return comm.recv(source=0).payload
            comm.compute(2.0)
            comm.send(8, dest=1)

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == 8

    def test_recv_advances_clock_to_arrival(self):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(5.0)
                comm.send(None, dest=1, nbytes=0)
            else:
                comm.recv(source=0)
                return comm.time

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] > 5.0


class TestMatching:
    def test_tag_selectivity(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            else:
                second = comm.recv(source=0, tag=2).payload
                first = comm.recv(source=0, tag=1).payload
                return (first, second)

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == ("first", "second")

    def test_any_source(self):
        def prog(comm):
            if comm.rank == 2:
                got = set()
                for _ in range(2):
                    got.add(comm.recv(source=ANY_SOURCE).src)
                return got
            comm.send(comm.rank, dest=2)

        results, _ = run_spmd(prog, n_ranks=3)
        assert results[2] == {0, 1}

    def test_any_tag(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=42)
            else:
                return comm.recv(source=0, tag=ANY_TAG).tag

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == 42

    def test_fifo_per_pair(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=7)
            else:
                return [comm.recv(source=0, tag=7).payload for _ in range(5)]

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_probe_nonblocking(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1, tag=9)
                return None
            before = comm.probe(source=0, tag=8)  # wrong tag: no match
            comm.recv(source=0, tag=9)
            return before

        results, _ = run_spmd(prog, n_ranks=2)
        assert results[1] is None

    def test_probe_finds_without_dequeuing(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1, tag=9)
                return None
            comm.compute(1.0)  # the message is queued as unexpected
            exact = comm.probe(source=0, tag=9)
            wild = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            again = comm.probe(source=0, tag=ANY_TAG)
            got = comm.recv(source=0, tag=9)
            after = comm.probe()
            return exact, wild, again, got, after

        results, _ = run_spmd(prog, n_ranks=2)
        exact, wild, again, got, after = results[1]
        assert exact is not None and exact.payload == "hello"
        assert wild is exact and again is exact
        assert got is exact  # probing left it for the receive
        assert after is None


class TestNonblocking:
    def test_isend_irecv_waitall(self):
        def prog(comm):
            me, n = comm.rank, comm.size
            reqs = [comm.irecv(source=s, tag=1) for s in range(n) if s != me]
            for d in range(n):
                if d != me:
                    comm.isend(me, dest=d, tag=1)
            msgs = waitall(reqs)
            return sorted(m.payload for m in msgs)

        results, _ = run_spmd(prog, n_ranks=4)
        assert results[0] == [1, 2, 3]
        assert results[3] == [0, 1, 2]

    def test_request_test_nonadvancing(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                t_before = comm.time
                unmatched = req.test()
                comm.send(None, dest=1, nbytes=0)  # let rank 1 proceed
                msg = req.wait()
                return (unmatched, t_before, msg.payload)
            comm.recv(source=0)
            comm.send("late", dest=0)

        results, _ = run_spmd(prog, n_ranks=2)
        unmatched, _, payload = results[0]
        assert unmatched is False
        assert payload == "late"

    def test_sendrecv_exchange(self):
        def prog(comm):
            me, n = comm.rank, comm.size
            msg = comm.sendrecv(me * 100, dest=(me + 1) % n,
                                source=(me - 1) % n)
            return msg.payload

        results, _ = run_spmd(prog, n_ranks=4)
        assert results == [300, 0, 100, 200]


class TestErrors:
    def test_bad_dest_rank(self):
        def prog(comm):
            comm.send(None, dest=99)

        with pytest.raises(RankFailure) as e:
            run_spmd(prog, n_ranks=2)
        assert isinstance(e.value.original, CommError)

    def test_negative_user_tag_rejected(self):
        def prog(comm):
            comm.send(None, dest=0, tag=-3)

        with pytest.raises(RankFailure) as e:
            run_spmd(prog, n_ranks=2)
        assert isinstance(e.value.original, CommError)

    def test_bad_source_rank(self):
        def prog(comm):
            comm.recv(source=42)

        with pytest.raises(RankFailure) as e:
            run_spmd(prog, n_ranks=2)
        assert isinstance(e.value.original, CommError)
