"""Ablations of the design choices DESIGN.md §5 calls out.

Not figures from the paper — these probe *why* the reproduction behaves
as it does: collective algorithm choice, placement algorithm quality,
sensitivity to the initial mapping, and the cost of the monitoring
modes.
"""

import numpy as np
import pytest

from repro.apps.microbench import collective_kernel
from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.experiments.common import render_table
from repro.placement.baselines import (
    greedy_edge_placement,
    identity_placement,
    random_placement,
)
from repro.placement.metrics import inter_node_bytes
from repro.placement.reorder import reorder_from_matrix
from repro.placement.treematch import treematch
from repro.simmpi import Cluster, Engine, Topology


def _measure_collective(op, algorithm, n_ints=10_000_000, n_nodes=2):
    cluster = Cluster.plafrim(n_nodes, binding="rr")
    engine = Engine(cluster)

    def prog(comm):
        comm.barrier()
        t = collective_kernel(comm, op, n_ints, algorithm=algorithm)
        from repro.simmpi.op import MAX

        return float(comm.allreduce(np.float64(t), MAX))

    return engine.run(prog)[0]


def test_ablation_collective_algorithms():
    """Tree shape matters: the tuned algorithms beat the flat ones."""

    def run():
        rows = []
        for op, algos in (("reduce", ("binary", "binomial", "flat")),
                          ("bcast", ("binomial", "chain", "flat"))):
            for algo in algos:
                rows.append((op, algo, _measure_collective(op, algo)))
        return rows

    rows = run()
    print()
    print(render_table(["op", "algorithm", "time (s)"],
                       [(o, a, round(t, 4)) for o, a, t in rows],
                       title="Ablation — collective algorithm choice "
                             "(48 RR-bound ranks, 40 MB)"))
    times = {(o, a): t for o, a, t in rows}
    assert times[("bcast", "binomial")] < times[("bcast", "flat")]
    assert times[("bcast", "binomial")] < times[("bcast", "chain")]
    # The paper's Fig. 5a algorithm (binary tree) is the best reduce in
    # this contention regime.
    assert times[("reduce", "binary")] < times[("reduce", "flat")]
    assert times[("reduce", "binary")] < times[("reduce", "binomial")]


def test_ablation_placement_quality():
    """TreeMatch vs the baselines on a clustered communication matrix."""
    topo = Topology([("node", 4), ("socket", 2), ("core", 12)])
    rng = np.random.default_rng(7)
    n = 96
    m = np.zeros((n, n))
    # Heavy groups of 8 with shuffled process ids.
    perm = rng.permutation(n)
    for g in range(n // 8):
        ids = perm[g * 8 : (g + 1) * 8]
        for i in ids:
            for j in ids:
                if i != j:
                    m[i, j] = 1000.0
    m += rng.uniform(0, 1, (n, n))
    np.fill_diagonal(m, 0)

    def run():
        placements = {
            "treematch": treematch(m, topo),
            "identity": identity_placement(n, topo),
            "random": random_placement(n, topo, seed=1),
            "greedy-edge": greedy_edge_placement(m, topo),
        }
        return {
            name: inter_node_bytes(m, topo, pl)
            for name, pl in placements.items()
        }

    scores = run()
    print()
    print(render_table(["placement", "inter-node bytes"],
                       sorted(scores.items(), key=lambda kv: kv[1]),
                       title="Ablation — placement algorithm quality"))
    assert scores["treematch"] < scores["identity"]
    assert scores["treematch"] < scores["random"]
    assert scores["treematch"] <= scores["greedy-edge"] * 1.2


def test_ablation_initial_mapping_sensitivity():
    """§6.5/§7: TreeMatch output quality depends on the initial mapping."""

    def run():
        out = {}
        for binding in ("round_robin", "random", "packed"):
            cluster = Cluster.plafrim(2, binding=binding, seed=5)
            engine = Engine(cluster)

            def prog(comm):
                mapi.mpi_m_init()
                _, msid = mapi.mpi_m_start(comm)
                collective_kernel(comm, "bcast", 1_000_000)
                mapi.mpi_m_suspend(msid)
                _, _, mat = mapi.mpi_m_rootgather_data(
                    msid, 0, MPI_M_DATA_IGNORE, None, Flags.COLL_ONLY)
                mapi.mpi_m_free(msid)
                mapi.mpi_m_finalize()
                opt, _ = reorder_from_matrix(comm, mat)
                comm.barrier()
                t0 = collective_kernel(comm, "bcast", 10_000_000)
                opt.barrier()
                t1 = collective_kernel(opt, "bcast", 10_000_000)
                from repro.simmpi.op import MAX

                t0 = float(comm.allreduce(np.float64(t0), MAX))
                t1 = float(comm.allreduce(np.float64(t1), MAX))
                return (t0, t1)

            out[binding] = engine.run(prog)[0]
        return out

    out = run()
    rows = [(b, round(t0, 4), round(t1, 4), round(t0 / t1, 2))
            for b, (t0, t1) in out.items()]
    print()
    print(render_table(["initial mapping", "before (s)", "after (s)", "gain"],
                       rows, title="Ablation — initial-mapping sensitivity"))
    # Bad initial mappings improve a lot; an already-packed mapping has
    # nothing to gain (and may degrade marginally — the greedy is not
    # idempotent, which is exactly the sensitivity §7 discusses).
    assert out["round_robin"][1] < out["round_robin"][0] / 1.5
    assert out["random"][1] < out["random"][0] / 1.3
    for b, (t0, t1) in out.items():
        assert t1 <= t0 * 1.15


def test_ablation_monitoring_mode_cost():
    """Monitoring modes 0/1/2 cost, on a communication-heavy loop."""

    def run_mode(mode):
        cluster = Cluster.plafrim(1, n_ranks=16)
        engine = Engine(cluster, monitoring_overhead=1e-7)

        def prog(comm):
            comm.engine.pml.set_mode(mode)
            for _ in range(30):
                comm.barrier()
            return comm.time

        return engine.run(prog)[0]

    def run():
        return {mode: run_mode(mode) for mode in (0, 1, 2)}

    times = run()
    print()
    print(render_table(["pml_monitoring_enable", "virtual time (s)"],
                       [(m, f"{t:.6f}") for m, t in times.items()],
                       title="Ablation — monitoring mode cost"))
    assert times[0] <= times[1] == times[2]
