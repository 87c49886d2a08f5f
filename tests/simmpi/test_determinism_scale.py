"""Determinism and scale sanity of the engine at paper-like rank counts."""

import numpy as np
import pytest

from repro.core import Flags, MonitoringSession, monitoring
from repro.simmpi import Cluster, Engine, SUM


def _mixed_workload(comm):
    me, n = comm.rank, comm.size
    comm.barrier()
    comm.bcast(None, root=0, nbytes=10_000 if me == 0 else None)
    comm.allreduce(np.float64(me), SUM)
    comm.sendrecv(None, dest=(me + 7) % n, source=(me - 7) % n,
                  sendtag=5, recvtag=5, nbytes=me * 10)
    comm.reduce(None, SUM, root=n - 1, nbytes=5_000, algorithm="binary")
    return comm.time


class TestScale:
    @pytest.mark.parametrize("n_nodes", [2, 8])
    def test_runs_at_paper_rank_counts(self, n_nodes):
        engine = Engine(Cluster.plafrim(n_nodes, binding="rr"))
        clocks = engine.run(_mixed_workload)
        assert len(clocks) == 24 * n_nodes
        assert all(t > 0 for t in clocks)

    def test_bitwise_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            engine = Engine(Cluster.plafrim(2, binding="rr"))
            runs.append(engine.run(_mixed_workload))
        assert runs[0] == runs[1]

    def test_monitoring_does_not_change_message_pattern(self):
        """Monitoring perturbs *time*, never which messages flow."""

        def monitored(comm):
            with monitoring():
                with MonitoringSession(comm) as mon:
                    _mixed_workload(comm)
                counts, sizes = mon.get_data(Flags.ALL_COMM)
                mon.free()
            return (counts.tolist(), sizes.tolist())

        def traced_counts(monitored_flag):
            from repro.replay import autorecord, compile_trace

            with autorecord.capture() as traces:
                engine = Engine(Cluster.plafrim(2, binding="rr"))
                engine.run(monitored if monitored_flag else _mixed_workload)
            return sum(compile_trace(traces[0]).total_counts.values()).tolist()

        assert traced_counts(True) == traced_counts(False)

    def test_jitter_changes_times_not_results(self):
        def prog(comm):
            total = comm.allreduce(np.float64(comm.rank), SUM)
            return (float(total), comm.time)

        base = Engine(Cluster.plafrim(2, jitter=0.0)).run(prog)
        jit = Engine(Cluster.plafrim(2, jitter=0.2), seed=9).run(prog)
        assert [v for v, _ in base] == [v for v, _ in jit]
        assert [t for _, t in base] != [t for _, t in jit]
