"""Tests for the recorded message trace and the MPI-IO substrate."""

import numpy as np
import pytest

from repro.replay import ReplayTrace, autorecord, compile_trace
from repro.replay.schema import K_S
from repro.simmpi import Cluster, Engine, RankFailure, Topology
from repro.simmpi.io import File, FileSystem
from tests.conftest import run_spmd
from tests.replay.test_columnar import assert_same_columns


def traced_run(prog, n_ranks=4):
    """(engine, replay trace) of ``prog`` on a small two-node cluster."""
    topo = Topology([("node", 2), ("socket", 2), ("core", 4)])
    with autorecord.capture() as traces:
        engine = Engine(Cluster(topo, n_ranks))
        engine.run(prog)
    return engine, traces[0]


def matrices(trace, category=None):
    """(bytes, messages) per rank pair: every wire message, by raw
    category (all of them summed by default)."""
    book = compile_trace(trace)
    cats = [category] if category else list(book.total_sizes)
    return (sum(book.total_sizes[c] for c in cats),
            sum(book.total_counts[c] for c in cats))


def barrier_after_one_send(comm):
    if comm.rank == 0:
        comm.send(None, dest=3, nbytes=999)
    elif comm.rank == 3:
        comm.recv(source=0)
    comm.barrier()


class TestTracer:
    """The replay trace is the post-mortem record of what a run sent:
    every message at the PML layer, after collective decomposition."""

    def test_records_all_messages(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(None, dest=1, nbytes=100)
                comm.send(None, dest=1, nbytes=50)
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        _, trace = traced_run(prog, 2)
        sizes, counts = matrices(trace)
        assert compile_trace(trace).n_messages == 2
        assert sizes[0, 1] == 150
        assert counts[0, 1] == 2

    def test_sees_messages_even_with_monitoring_off(self):
        engine, trace = traced_run(lambda comm: comm.barrier())
        book = compile_trace(trace)
        assert engine.pml.mode == 0
        assert engine.pml.totals("coll") == (0, 0)  # monitoring off...
        assert book.counts["coll"].sum() == 0
        assert book.total_counts["coll"].sum() == 8  # ...the trace has all

    def test_categories_separated(self):
        _, trace = traced_run(barrier_after_one_send)
        assert matrices(trace, "p2p")[1].sum() == 1
        assert matrices(trace, "coll")[1].sum() == 8
        assert matrices(trace)[1].sum() == 9

    def test_per_rank_and_filter(self):
        def prog(comm):
            if comm.rank == 2:
                comm.send(None, dest=0, nbytes=7)
            elif comm.rank == 0:
                comm.recv(source=2)

        _, trace = traced_run(prog, 3)
        assert matrices(trace)[0].sum(axis=1).tolist() == [0, 0, 7]
        c = trace.columns()
        big = (c.kind == K_S) & (c.nbytes > 5)
        assert c.rank[big].tolist() == [2]

    def test_dump_load_roundtrip(self, tmp_path):
        def prog(comm):
            if comm.rank == 0:
                comm.send(None, dest=1, nbytes=42)
            else:
                comm.recv(source=0)

        _, trace = traced_run(prog, 2)
        path = str(tmp_path / "run.trace")
        trace.dump(path)
        loaded = ReplayTrace.load(path)
        assert loaded.world_size == 2
        assert_same_columns(loaded, trace)

    def test_roundtrip_preserves_matrices(self, tmp_path):
        _, trace = traced_run(barrier_after_one_send)
        path = str(tmp_path / "run.trace")
        trace.dump(path)
        loaded = ReplayTrace.load(path)
        for category in (None, "p2p", "coll"):
            for got, want in zip(matrices(loaded, category),
                                 matrices(trace, category)):
                np.testing.assert_array_equal(got, want)

    def test_vectorized_reductions_match_naive(self):
        def prog(comm):
            me, n = comm.rank, comm.size
            comm.barrier()
            comm.sendrecv(None, dest=(me + 1) % n, source=(me - 1) % n,
                          sendtag=0, recvtag=0, nbytes=100 * (me + 1))
            comm.barrier()

        _, trace = traced_run(prog)
        counts = np.zeros((4, 4), dtype=np.int64)
        sizes = np.zeros((4, 4), dtype=np.int64)
        for ev in trace.events:
            if ev[0] == "S":
                counts[ev[1], ev[2]] += 1
                sizes[ev[1], ev[2]] += ev[3]
        assert counts.sum() > 0
        got_sizes, got_counts = matrices(trace)
        np.testing.assert_array_equal(got_counts, counts)
        np.testing.assert_array_equal(got_sizes, sizes)


class TestFileSystem:
    def test_write_read_roundtrip(self):
        def prog(comm):
            f = File.open(comm, "data.bin")
            if comm.rank == 0:
                f.write_at(0, np.arange(4, dtype=np.int32))
            comm.barrier()
            raw = f.read_at(0, 16)
            f.close()
            return raw

        results, _ = run_spmd(prog, n_ranks=2)
        arr = np.frombuffer(results[1], dtype=np.int32)
        assert arr.tolist() == [0, 1, 2, 3]

    def test_collective_write_offsets(self):
        def prog(comm):
            f = File.open(comm, "blocks.bin")
            f.write_at_all(0, np.full(2, comm.rank, dtype=np.int64))
            comm.barrier()
            out = f.read_at(comm.rank * 16, 16)
            f.close()
            return np.frombuffer(out, dtype=np.int64).tolist()

        results, _ = run_spmd(prog, n_ranks=4)
        assert results == [[0, 0], [1, 1], [2, 2], [3, 3]]

    def test_io_counters_via_pvars(self):
        def prog(comm):
            f = File.open(comm, "counted.bin")
            f.write_at_all(0, None, nbytes=1000)
            f.read_at_all(0, 500)
            f.close()
            sess = comm.engine.mpit.pvar_session_create()
            h = sess.handle_alloc("io_monitoring_bytes_written", comm.rank)
            written = int(h.read()[0])
            h2 = sess.handle_alloc("io_monitoring_bytes_read", comm.rank)
            read = int(h2.read()[0])
            sess.free()
            return (written, read)

        results, _ = run_spmd(prog, n_ranks=3)
        assert results == [(1000, 500)] * 3

    def test_io_costs_time_and_serializes(self):
        def prog(comm):
            f = File.open(comm, "big.bin")
            comm.barrier()
            t0 = comm.time
            f.write_at_all(0, None, nbytes=50_000_000)
            comm.barrier()
            f.close()
            return comm.time - t0

        results, _ = run_spmd(prog, n_ranks=4)
        # 4 x 50 MB through a 5 GB/s shared FS: at least 40 ms.
        assert max(results) >= 0.04

    def test_abstract_write_size_tracked(self):
        def prog(comm):
            f = File.open(comm, "abs.bin")
            if comm.rank == 0:
                f.write_at(100, None, nbytes=1234)
            comm.barrier()
            size = f.size
            f.close()
            return size

        results, _ = run_spmd(prog, n_ranks=2)
        assert results == [1334, 1334]

    def test_closed_file_rejected(self):
        def prog(comm):
            f = File.open(comm, "closed.bin")
            f.close()
            f.write_at(0, None, nbytes=1)

        with pytest.raises(RankFailure):
            run_spmd(prog, n_ranks=2)

    def test_same_file_object_shared(self):
        def prog(comm):
            f = File.open(comm, "shared.bin")
            fid = id(f)
            f.close()
            return fid

        results, _ = run_spmd(prog, n_ranks=4)
        assert len(set(results)) == 1
