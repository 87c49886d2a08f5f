"""Property-based tests (hypothesis) on core data structures and
invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.placement.grouping import greedy_group, symmetrize
from repro.simmpi.cluster import Cluster
from repro.simmpi.network import Network
from repro.placement.mapping import (
    apply_permutation,
    invert_permutation,
    is_permutation,
    reorder_permutation,
)
from repro.placement.metrics import level_bytes
from repro.placement.treematch import treematch
from repro.simmpi import SUM
from repro.simmpi.datatypes import Buffer, payload_nbytes
from repro.simmpi.nic import NicCounters
from repro.simmpi.topology import Topology
from tests.conftest import run_spmd

# ---------------------------------------------------------------------------
# strategies

level_lists = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(lambda arities: Topology(
    [(f"L{i}", a) for i, a in enumerate(arities)]
))


def square_matrix(n_max=12):
    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(min_value=0, max_value=1e6), min_size=n,
                     max_size=n),
            min_size=n, max_size=n,
        ).map(lambda rows: np.array(rows))
    )


# ---------------------------------------------------------------------------
# topology invariants


@given(level_lists, st.data())
def test_coords_roundtrip(topo, data):
    pu = data.draw(st.integers(min_value=0, max_value=topo.n_pus - 1))
    coords = topo.coords(pu)
    # Reconstruct the PU from its per-level coordinates.
    acc = 0
    for c, arity in zip(coords, topo.arities):
        acc = acc * arity + c
    assert acc == pu


@given(level_lists, st.data())
def test_common_depth_symmetric_and_bounded(topo, data):
    a = data.draw(st.integers(0, topo.n_pus - 1))
    b = data.draw(st.integers(0, topo.n_pus - 1))
    d = topo.common_depth(a, b)
    assert d == topo.common_depth(b, a)
    assert 0 <= d <= topo.depth
    assert (d == topo.depth) == (a == b)


@given(level_lists, st.data())
def test_hop_distance_triangle_inequality(topo, data):
    pus = [data.draw(st.integers(0, topo.n_pus - 1)) for _ in range(3)]
    a, b, c = pus
    assert topo.hop_distance(a, c) <= (
        topo.hop_distance(a, b) + topo.hop_distance(b, c)
    )


# ---------------------------------------------------------------------------
# grouping / placement invariants


@given(square_matrix(), st.data())
def test_greedy_group_is_partition(m, data):
    n = m.shape[0]
    w = symmetrize(m)
    sizes = []
    left = n
    while left > 0:
        s = data.draw(st.integers(1, left))
        sizes.append(s)
        left -= s
    groups = greedy_group(w, sizes)
    assert [len(g) for g in groups] == sizes
    assert sorted(sum(groups, [])) == list(range(n))


@given(square_matrix(n_max=8))
# Round-off made refine_groups swap two items back and forth for ever.
@example(np.array([[0.0, 48575.0, 1.9999999998835847, 48575.0, 0.0, 0.0],
                   [0.0, 0.0, 1000000.0, 0.0, 0.0, 0.0],
                   [0.0, 48575.0, 0.0, 48575.0, 0.0, 0.0],
                   [0.0, 0.0, 1000000.0, 0.0, 0.0, 0.0],
                   [0.0] * 6, [0.0] * 6]))
@settings(suppress_health_check=[HealthCheck.filter_too_much], deadline=None)
def test_treematch_placement_valid(m):
    n = m.shape[0]
    topo = Topology([("node", 2), ("socket", 2), ("core", max(2, (n + 3) // 4))])
    placement = treematch(m, topo)
    assert len(placement) == n
    assert len(set(placement)) == n
    assert all(0 <= p < topo.n_pus for p in placement)


@given(st.permutations(list(range(8))))
def test_permutation_inverse_roundtrip(perm):
    k = np.array(perm)
    assert is_permutation(k)
    inv = invert_permutation(k)
    assert np.array_equal(invert_permutation(inv), k)
    assert np.array_equal(k[inv], np.arange(8))


@given(st.permutations(list(range(6))), square_matrix(n_max=6))
def test_apply_permutation_preserves_mass(perm, m):
    if m.shape[0] != 6:
        m = np.resize(m, (6, 6))
    out = apply_permutation(m, np.array(perm))
    assert out.sum() == pytest.approx(m.sum())
    assert sorted(out.reshape(-1)) == pytest.approx(sorted(m.reshape(-1)))


@given(st.permutations(list(range(8))))
def test_reorder_permutation_places_roles(perm):
    # placement[j] = PU of role j, ranks sit on PUs 0..7 in order.
    placement = list(perm)
    k = reorder_permutation(placement, list(range(8)))
    # Role k[i] must map to rank i's PU.
    for i in range(8):
        assert placement[k[i]] == i


@given(square_matrix(n_max=8), st.data())
def test_level_bytes_partitions_total(m, data):
    n = m.shape[0]
    topo = Topology([("node", 2), ("socket", 2), ("core", max(2, (n + 3) // 4))])
    pus = data.draw(st.permutations(list(range(topo.n_pus)))).copy()[:n]
    np.fill_diagonal(m, 0.0)
    lb = level_bytes(m, topo, pus)
    assert sum(lb.values()) == pytest.approx(m.sum())


# ---------------------------------------------------------------------------
# buffers and counters


@given(st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=64),
    st.lists(st.integers(), max_size=8),
))
def test_payload_nbytes_nonnegative(payload):
    assert payload_nbytes(payload) >= 0


@given(st.integers(min_value=0, max_value=10**12))
def test_abstract_buffer_size_preserved(n):
    assert Buffer.abstract(n).nbytes == n


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 10**6)),
                min_size=1, max_size=40))
def test_nic_counter_monotone(events):
    nic = NicCounters(1)
    for t, b in events:
        nic.record_xmit(0, t, b)
    times = sorted({t for t, _ in events} | {0.0, 101.0})
    values = [nic.xmit_bytes(0, t) for t in times]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == sum(b for _, b in events)


# ---------------------------------------------------------------------------
# routes: resolved on demand, O(n) construction


@settings(max_examples=20, deadline=None)
@given(level_lists, st.data())
def test_lazy_routes_match_dense_everywhere(topo, data):
    """Every lazily resolved per-pair quantity the engine, replayer, and
    obs layer read equals what a dense walk over the topology, the link
    table and the binding says it is — for every pair."""
    n = data.draw(st.integers(1, min(topo.n_pus, 12)))
    binding = data.draw(st.permutations(list(range(topo.n_pus)))).copy()[:n]
    cl = Cluster(topo, n, binding=binding)
    params = cl.params
    if data.draw(st.booleans()):
        params = dataclasses.replace(params, nic_serialize=False,
                                     mem_bandwidth=None)
    record_nic = data.draw(st.booleans())
    net = Network(topo, binding, params, seed=1, record_nic=record_nic)
    first_seen = []
    for src in range(n):
        for dst in range(n):
            k = src * n + dst
            cls = topo.common_level_name(binding[src], binding[dst])
            if cls not in first_seen:
                first_seen.append(cls)
            link = params.link_for(cls, topo)
            cross = cls == "cluster"
            assert net._pair_l[k] == (
                link.latency, link.bandwidth,
                cl.node_of_rank(src), cl.node_of_rank(dst),
                cross and record_nic,
                cross and params.nic_serialize,
                bool(params.mem_bandwidth) and cls != "self",
            )
            assert net._alpha_l[k] == link.latency
            assert net._cls_l[k] == net.sharing_class(src, dst) == cls
            assert net.route_classes[net._clsidx_l[k]] == cls
            assert net._cross_l[k] == cross
    assert net.route_classes == tuple(first_seen)


@pytest.mark.parametrize("record_nic", [True, False])
@pytest.mark.parametrize("strategy", ["rr", "packed", "random"])
def test_vectorised_routes_equal_the_lazy_table(strategy, record_nic):
    """``Network.routes`` — the replayer's one read per candidate — is
    the per-pair record ``transfer`` unpacks, for every pair (minus the
    hardware-counter flag, which only ``transfer`` consumes)."""
    cluster = Cluster.plafrim(2, binding=strategy, seed=3)
    n = cluster.n_ranks
    net = Network(cluster.topology, cluster.binding, cluster.params,
                  record_nic=record_nic)
    src, dst = np.divmod(np.arange(n * n), n)
    rows = list(zip(*(col.tolist() for col in net.routes(src, dst))))
    for k, (alpha, bw, src_node, dst_node, nic_gate, mem_gate) in \
            enumerate(rows):
        assert (alpha, bw, src_node, dst_node, nic_gate, mem_gate) == \
            net._pair_l[k][:4] + net._pair_l[k][5:]
    assert {type(v) for row in rows for v in row} == {float, int, bool}


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2500), min_size=1, max_size=6),
       st.sampled_from([0.0, 0.15]))
def test_jitter_factors_are_the_scalar_stream(counts, sigma):
    """Taking factors in bulk, in any mix of sizes and interleaved with
    messages, hands out what one scalar draw per term would."""
    cluster = Cluster.plafrim(2, binding="rr")
    params = dataclasses.replace(cluster.params, jitter=sigma)
    bulk = Network(cluster.topology, cluster.binding, params, seed=9)
    scalar = Network(cluster.topology, cluster.binding, params, seed=9)
    for count in counts:
        assert bulk.jitter_factors(count) == \
            [scalar._jit() for _ in range(count)]
        assert bulk.transfer(0, 1, 4096, 0.0) == \
            scalar.transfer(0, 1, 4096, 0.0)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from(["packed", "rr", "random"]), st.integers(0, 3))
def test_cluster_and_network_construct_at_4096_ranks(strategy, seed):
    """The 10k-world gate: constructors stay O(n).  Dense route tables
    at this scale would be ~2 GB; construction must finish instantly and
    resolve sampled pairs correctly."""
    cluster = Cluster.plafrim(171, n_ranks=4096, binding=strategy, seed=seed)
    assert cluster.n_ranks == 4096
    assert len(cluster.binding) == 4096
    net = Network(cluster.topology, cluster.binding, cluster.params, seed=seed)
    assert set(net.route_classes) <= {"self", "core", "socket", "node",
                                      "cluster"}
    n = 4096
    rng = np.random.default_rng(seed)
    for src, dst in rng.integers(0, n, size=(25, 2)):
        k = int(src) * n + int(dst)
        cls = net._cls_l[k]
        assert cls == cluster.topology.common_level_name(
            cluster.binding[src], cluster.binding[dst]
        )
        alpha, bw, src_node, dst_node, _, nic_gate, _ = net._pair_l[k]
        assert src_node == cluster.node_of_rank(int(src))
        assert dst_node == cluster.node_of_rank(int(dst))
        assert nic_gate == (cls == "cluster")
        assert alpha == cluster.params.link_for(cls, cluster.topology).latency
    # Only the touched pairs were materialized.
    assert len(net._pair_l) <= 25


def test_topology_constructor_at_10k_pus():
    topo = Topology([("node", 420), ("socket", 2), ("core", 12)])
    assert topo.n_pus == 10080
    assert topo.common_depth(0, 10079) == 0
    assert topo.common_depth(0, 0) == topo.depth
    binding = list(range(10080))
    assert len(Cluster(topo, 10080, binding=binding).binding) == 10080


def test_pml_matrices_allocate_lazily():
    from repro.simmpi.pml_monitoring import CATEGORIES, PmlMonitoring

    pml = PmlMonitoring(4096)
    pml.set_mode(2)
    assert len(pml._counts) == 0 and len(pml._sizes) == 0
    # Untouched categories report zero totals without materializing a
    # 4096 x 4096 matrix just to sum it.
    assert pml.totals("osc") == (0, 0)
    assert len(pml._counts) == 0
    pml.record(7, 9, 1234, "p2p")
    assert pml.totals("p2p") == (1, 1234)
    assert set(pml._counts) == {"p2p"}
    assert pml.counts["p2p"][7, 9] == 1
    # The flushing view still iterates every category.
    assert list(pml.counts.keys()) == list(CATEGORIES)
    assert {cat for cat, _ in pml.sizes.items()} == set(CATEGORIES)
    pml.reset()
    assert pml.totals("p2p") == (0, 0)


# ---------------------------------------------------------------------------
# runtime invariants (slower: a few engine runs)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(0, 3))
def test_allreduce_equals_sum_of_ranks(n, algo_seed):
    def prog(comm):
        return float(comm.allreduce(np.float64(comm.rank + 1), SUM))

    results, _ = run_spmd(prog, n_ranks=n)
    assert results == [sum(range(1, n + 1))] * n


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=16),
       st.integers(min_value=2, max_value=6))
def test_bcast_delivers_exact_bytes(data_list, n):
    payload = bytes(data_list)

    def prog(comm):
        return comm.bcast(payload if comm.rank == 0 else None, root=0)

    results, _ = run_spmd(prog, n_ranks=n)
    assert all(r == payload for r in results)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_monitoring_conservation(n):
    """Bytes recorded by a session == bytes the program sent."""
    from repro.core import api as mapi
    from repro.core.constants import Flags

    def prog(comm):
        mapi.mpi_m_init()
        _, msid = mapi.mpi_m_start(comm)
        sent = 0
        me = comm.rank
        for d in range(comm.size):
            if d != me:
                nb = (me * 7 + d) % 13
                comm.isend(None, dest=d, tag=1, nbytes=nb)
                sent += nb
        for s in range(comm.size):
            if s != me:
                comm.recv(source=s, tag=1)
        mapi.mpi_m_suspend(msid)
        _, counts, sizes = mapi.mpi_m_get_data(msid, flags=Flags.P2P_ONLY)
        mapi.mpi_m_free(msid)
        mapi.mpi_m_finalize()
        return (sent, int(sizes.sum()), int(counts.sum()))

    results, _ = run_spmd(prog, n_ranks=n)
    for sent, recorded, count in results:
        assert recorded == sent
        assert count == n - 1
