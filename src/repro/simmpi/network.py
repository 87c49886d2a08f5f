"""Hierarchical Hockney-style network cost model.

Every point-to-point message pays a latency ``alpha`` and a bandwidth
term ``nbytes / bandwidth`` chosen by the *deepest topology level the
two endpoint PUs share* — the mechanism that makes rank reordering pay
off: after TreeMatch moves heavy-traffic pairs onto the same node or
socket, their messages ride the cheap links.

Model per message (sender at virtual time ``t``):

* ``start = max(t + o_send, nic_free[src_node])`` — messages leaving a
  node serialize on the node's single NIC (all 24 ranks of a PlaFRIM
  node share one OmniPath port);
* sender resumes at ``start + nbytes/bw`` (injection is synchronous);
* the message arrives at ``start + alpha + nbytes/bw``;
* the receiver completes at ``max(t_post, arrival) + o_recv`` (applied
  by the engine).

All terms are optionally perturbed by seeded multiplicative log-normal
jitter so that repeated runs show the run-to-run variance the paper's
§6.2 statistics (180 repetitions, Welch t-test) rely on.

Hot-path design: :meth:`Network.transfer` runs once per simulated
message — millions of times per experiment — so a route (``alpha``,
bandwidth, endpoint nodes, NIC/memory gates) is resolved *once*, the
first time it is used, and memoized per node pair across nodes and per
rank pair within a node; construction keeps only O(n) ingredients (PU
and node per rank, one link per common-ancestor depth), so a 4096-rank
world costs what its communication pattern touches, not n² entries.
``transfer`` is then two list reads, a dict hit, pure arithmetic and
the shared-resource bookkeeping, and never calls
``Topology.common_level_name`` or ``NetworkParams.link_for``.  It is
the one copy of the model a live message runs: ``Engine._materialize``
and the one-sided operations call it, and the replayer reads the same
route records in bulk (:meth:`Network.routes`).  Jitter
factors are drawn from the seeded RNG in blocks and handed out in
stream order, so a jittered run consumes the *same* draw sequence as
one scalar draw per term (bitwise identical results for a given seed).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.nic import NicCounters
from repro.simmpi.topology import Topology

__all__ = ["LinkParams", "NetworkParams", "Network", "plafrim_params", "ib_pair_params"]

#: How many jitter factors to draw from the RNG per refill.  Each
#: message consumes two (latency, then bandwidth), so a block covers
#: ``_JITTER_BLOCK / 2`` messages.
_JITTER_BLOCK = 1024


class _LazyPairView(dict):
    """Flat ``src * n + dst``-indexed mapping, computed on first touch.

    Every consumer (engine send materialization, replay scoring, obs
    link accounting) only ever does ``view[pair]``, and dict indexing
    with ``__missing__`` makes that resolve-and-memoize.  A 4096-rank
    world touches the pairs its communication pattern actually uses —
    thousands, not 16.7 million.

    A miss calls the :class:`Network` method named ``resolve`` through
    a weak reference: the network owns its views, and a bound method
    would make the network and each view a reference cycle.
    """

    __slots__ = ("_net", "_resolve")

    def __init__(self, net: "Network", resolve: str):
        super().__init__()
        self._net = weakref.ref(net)
        self._resolve = resolve

    def __missing__(self, key: int):
        value = getattr(self._net(), self._resolve)(key)
        self[key] = value
        return value

    # The network travels by reference, but the memo does not need to:
    # thaw empty and let entries recompute.
    def __reduce__(self):
        return (_LazyPairView, (self._net(), self._resolve))


@dataclass(frozen=True)
class LinkParams:
    """One latency/bandwidth class: ``latency`` in s, ``bandwidth`` in B/s."""

    latency: float
    bandwidth: float

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("negative latency")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class NetworkParams:
    """Cost-model parameters.

    ``links`` maps a *sharing class* to :class:`LinkParams`.  The class of
    a message is the name of the deepest topology level its endpoints
    share: ``"cluster"`` (different nodes), a level name such as
    ``"node"`` or ``"socket"``, or ``"self"`` (a rank messaging itself).
    Missing classes fall back to the next-cheaper defined one.
    """

    links: Dict[str, LinkParams] = field(default_factory=dict)
    send_overhead: float = 2.0e-7
    recv_overhead: float = 2.0e-7
    nic_serialize: bool = True
    #: Per-node effective copy bandwidth (B/s) shared by every message
    #: touching the node's DRAM; None disables memory contention.
    mem_bandwidth: Optional[float] = None
    jitter: float = 0.0
    lanes: int = 4
    #: Resolution cache for :meth:`link_for` — the fallback walk
    #: rebuilds the level order on every miss, and route-table
    #: construction asks for the same handful of classes n² times.
    _link_cache: Dict[Tuple[str, Tuple[str, ...]], LinkParams] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def link_for(self, class_name: str, topology: Topology) -> LinkParams:
        if class_name in self.links:
            return self.links[class_name]
        key = (class_name, tuple(topology.level_names))
        cached = self._link_cache.get(key)
        if cached is not None:
            return cached
        # Fall back towards deeper (cheaper) levels: cluster -> node ->
        # socket -> ... -> self, taking the first defined entry at or
        # below the requested class.
        order = topology.sharing_classes
        if class_name not in order:
            raise ValueError(f"unknown sharing class {class_name!r}")
        for name in order[order.index(class_name) :]:
            if name in self.links:
                self._link_cache[key] = self.links[name]
                return self.links[name]
        raise ValueError(f"no link parameters cover class {class_name!r}")


def plafrim_params(jitter: float = 0.0) -> NetworkParams:
    """The paper's main testbed: PlaFRIM, OmniPath 100 Gb/s.

    Dual-socket 12-core Haswell nodes.  Bandwidths are *effective MPI
    throughputs* (what a rank actually sustains through the full
    software stack at large message sizes), not hardware peaks:

    * inter-node messages serialize on the node's single OmniPath port
      (NIC serialization) — with 24 ranks per node that contention is
      where the paper's reordering gains come from;
    * every message also occupies the node's shared DRAM copy
      bandwidth (``mem_bandwidth``), which bounds how fast *intra*-node
      traffic can get after reordering.

    Calibrated against the paper's Fig. 5 absolute runtimes (see
    EXPERIMENTS.md).
    """
    return NetworkParams(
        links={
            "cluster": LinkParams(latency=1.5e-6, bandwidth=3.0e9),
            "node": LinkParams(latency=7.0e-7, bandwidth=3.0e9),
            "socket": LinkParams(latency=3.0e-7, bandwidth=3.5e9),
            "self": LinkParams(latency=1.0e-7, bandwidth=2.0e10),
        },
        mem_bandwidth=9.0e9,
        jitter=jitter,
    )


def ib_pair_params(jitter: float = 0.0) -> NetworkParams:
    """The §6.1 testbed: two nodes with Infiniband EDR (100 Gb/s)."""
    return NetworkParams(
        links={
            "cluster": LinkParams(latency=1.0e-6, bandwidth=12.5e9),
            "node": LinkParams(latency=6.0e-7, bandwidth=8.0e9),
            "self": LinkParams(latency=1.0e-7, bandwidth=2.0e10),
        },
        jitter=jitter,
    )


class Network:
    """Timed message transport over a :class:`Topology` and a binding.

    ``route_classes`` is the tuple of sharing-class names the binding
    can produce, in row-major first-appearance order over rank pairs;
    ``n_messages`` counts every completed :meth:`transfer`.
    """

    def __init__(
        self,
        topology: Topology,
        binding: Sequence[int],
        params: NetworkParams,
        seed: int = 0,
    ):
        self.topology = topology
        self.binding = list(binding)
        self.params = params
        n_nodes = topology.n_components(topology.level_names[0])
        self._n_nodes = n_nodes
        self.nic = NicCounters(n_nodes, lanes=params.lanes)
        # Busy-until horizons per node, as plain Python floats: both
        # gates are read and written once per message, where list
        # indexing beats numpy scalar extraction by ~5x (the values are
        # IEEE doubles either way, so results are bit-identical).
        self._nic_free = [0.0] * n_nodes
        self._mem_free = [0.0] * n_nodes
        # The jitter generator is built by the first refill: a run
        # without jitter never loads numpy.random.
        self._seed = seed
        self._rng = None
        self._sigma = float(params.jitter)
        self._jit_blk: List[float] = []
        self._jit_pos = 0
        self.n_messages = 0
        self._build_routes()

    # -- route tables ------------------------------------------------------

    def _build_routes(self) -> None:
        """O(n) route construction: per-pair views resolve on demand.

        Only the O(n) ingredients are kept (PU per rank, node per rank,
        per-depth link LUTs); every per-pair table is a
        :class:`_LazyPairView` memoizing ``src * n + dst -> value``.
        Dense n² tables would be ~2 GB and tens of seconds at 4096
        ranks, before the first message moves.  ``route_classes`` is
        computed exactly, in row-major first-appearance order, by
        scanning rows until every achievable sharing class has been
        seen (almost always just row 0).
        """
        topo = self.topology
        params = self.params
        pu = np.asarray(self.binding, dtype=np.int64)
        n = len(self.binding)
        self._n_ranks = n
        strides = [int(s) for s in topo._strides]
        depth = len(strides)
        self._pu_l = pu.tolist()
        self._strides_l = strides
        self._depth = depth
        self._rank_node_l = (pu // strides[0]).tolist()
        self._has_mem = bool(params.mem_bandwidth)

        # Which common-ancestor depths exist at all, without touching
        # any pair: depth d (0 < d < depth) is achievable iff some
        # level-(d-1) component contains PUs from >= 2 distinct
        # level-d subcomponents; 0 iff there are >= 2 nodes; `depth`
        # always (the diagonal).
        # (Sets, not np.unique: that would load numpy.ma.)
        achievable = {depth}
        if n > 1:
            if len(set(self._rank_node_l)) > 1:
                achievable.add(0)
            for d in range(1, depth):
                pairs = set(zip((pu // strides[d - 1]).tolist(),
                                (pu // strides[d]).tolist()))
                if len(pairs) > len({outer for outer, _ in pairs}):
                    achievable.add(d)

        # First-appearance (row-major) order, which route_classes
        # consumers observe: scan whole rows vectorized, stop once
        # every achievable depth has appeared.
        order: List[int] = []
        seen: set = set()
        for src in range(n):
            row = np.zeros(n, dtype=np.int64)
            pu_src = int(pu[src])
            for stride in strides:
                row += (pu // stride) == (pu_src // stride)
            for d in dict.fromkeys(row.tolist()):
                if d not in seen:
                    seen.add(d)
                    order.append(d)
            if len(seen) == len(achievable):
                break

        class_names: List[str] = []
        lut_idx = [-1] * (depth + 1)
        lut_alpha = [0.0] * (depth + 1)
        lut_bw = [1.0] * (depth + 1)
        sharing = topo.sharing_classes
        for d in order:
            cls = sharing[d]
            lut_idx[d] = len(class_names)
            class_names.append(cls)
            lp = params.link_for(cls, topo)
            lut_alpha[d] = lp.latency
            lut_bw[d] = lp.bandwidth
        self.route_classes = tuple(class_names)
        self._lut_idx = lut_idx
        self._lut_alpha = lut_alpha
        self._lut_bw = lut_bw

        # The fused record transfer() reads with one lookup + unpack:
        # (alpha, bandwidth, src node, dst node, NIC gate, memory gate),
        # the six fields routes() answers per pair.  Bandwidth is kept
        # (not its inverse) because ``nbytes / bw`` must stay the exact
        # division of the model.  A cross-node record depends only on
        # the two nodes: transfer() reads it from ``_node_l``
        # (``src_node * n_nodes + dst_node``) and ``_pair_l`` only
        # within a node, though ``_pair_l[k]`` answers any pair.
        self._pair_l = _LazyPairView(self, "_resolve_pair")
        self._node_l = _LazyPairView(self, "_resolve_nodes")
        # Single-field views for consumers that need just one of them
        # (replay: alpha; repro.obs: class index per message).
        self._alpha_l = _LazyPairView(self, "_resolve_alpha")
        self._cls_l = _LazyPairView(self, "_resolve_cls")
        self._clsidx_l = _LazyPairView(self, "_resolve_clsidx")
        self._o_send = float(params.send_overhead)
        self._mem_bw = params.mem_bandwidth
        # Plain attribute (not a property): read once per receive
        # completion on the hot path.
        self.recv_overhead = params.recv_overhead

    def _common_depth(self, src: int, dst: int) -> int:
        """Number of topology levels the two ranks' PUs share.

        Components are nested, so equality at a deep level implies
        equality at every shallower one — the first mismatch ends the
        count."""
        pu_s = self._pu_l[src]
        pu_d = self._pu_l[dst]
        d = 0
        for stride in self._strides_l:
            if pu_s // stride != pu_d // stride:
                break
            d += 1
        return d

    def _resolve_pair(self, key: int) -> Tuple:
        src, dst = divmod(key, self._n_ranks)
        src_node = self._rank_node_l[src]
        dst_node = self._rank_node_l[dst]
        if src_node != dst_node:
            return self._node_l[src_node * self._n_nodes + dst_node]
        d = self._common_depth(src, dst)
        return (
            self._lut_alpha[d],
            self._lut_bw[d],
            src_node,
            dst_node,
            False,
            self._has_mem and d != self._depth,
        )

    def _resolve_nodes(self, key: int) -> Tuple:
        # Different nodes share no level: common depth 0, never "self".
        src_node, dst_node = divmod(key, self._n_nodes)
        return (
            self._lut_alpha[0],
            self._lut_bw[0],
            src_node,
            dst_node,
            self.params.nic_serialize,
            self._has_mem,
        )

    def routes(self, src_ranks, dst_ranks) -> Tuple[np.ndarray, ...]:
        """The route of many rank pairs at once: arrays of ``alpha``,
        bandwidth, source node, destination node, NIC gate and memory
        gate — per pair what :meth:`_resolve_pair` answers, from the
        same per-depth tables."""
        pu = np.asarray(self.binding, dtype=np.int64)
        node = np.asarray(self._rank_node_l, dtype=np.intp)
        depth = self.topology.common_depths(pu[src_ranks], pu[dst_ranks])
        cross = depth == 0
        return (
            np.asarray(self._lut_alpha)[depth],
            np.asarray(self._lut_bw)[depth],
            node[src_ranks],
            node[dst_ranks],
            cross & bool(self.params.nic_serialize),
            (depth != self._depth) & self._has_mem,
        )

    def _resolve_alpha(self, key: int) -> float:
        return self._lut_alpha[self._common_depth(*divmod(key, self._n_ranks))]

    def _resolve_clsidx(self, key: int) -> int:
        return self._lut_idx[self._common_depth(*divmod(key, self._n_ranks))]

    def _resolve_cls(self, key: int) -> str:
        return self.route_classes[self._clsidx_l[key]]

    # -- jitter ----------------------------------------------------------

    def _refill_jitter(self, blocks: int = 1) -> List[float]:
        # Keep any unconsumed factors: the block is a cache over the
        # scalar draw stream, never a resampling of it.
        blk = self._jit_blk[self._jit_pos :]
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        for _ in range(blocks):
            blk += np.exp(rng.normal(0.0, self._sigma, _JITTER_BLOCK)).tolist()
        self._jit_blk = blk
        self._jit_pos = 0
        return blk

    def jitter_factors(self, count: int) -> List[float]:
        """The next ``count`` factors of the stream at once — what
        that many scalar draws would hand out, drawn in the same blocks
        (all 1.0 without jitter)."""
        if self._sigma <= 0.0:
            return [1.0] * count
        short = count - (len(self._jit_blk) - self._jit_pos)
        if short > 0:
            self._refill_jitter(-(-short // _JITTER_BLOCK))
        pos = self._jit_pos
        self._jit_pos = pos + count
        return self._jit_blk[pos : pos + count]

    def _jit(self) -> float:
        if self._sigma <= 0.0:
            return 1.0
        if self._jit_pos >= len(self._jit_blk):
            self._refill_jitter()
        v = self._jit_blk[self._jit_pos]
        self._jit_pos += 1
        return v

    # -- the cost model ----------------------------------------------------

    def sharing_class(self, src_rank: int, dst_rank: int) -> str:
        return self._cls_l[src_rank * self._n_ranks + dst_rank]

    def transfer(
        self, src_rank: int, dst_rank: int, nbytes: int, t_send: float
    ) -> Tuple[float, float]:
        """Cost one message.

        Returns ``(sender_done, arrival)``: the virtual time at which the
        sender may proceed and the time the message is available at the
        destination.  Cross-node messages serialize on the source node's
        NIC and are charged to its hardware counters.
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        src_node = self._rank_node_l[src_rank]
        dst_node = self._rank_node_l[dst_rank]
        alpha, bw, _, _, nic_gate, mem_gate = (
            self._pair_l[src_rank * self._n_ranks + dst_rank]
            if src_node == dst_node
            else self._node_l[src_node * self._n_nodes + dst_node])
        if self._sigma > 0.0:
            blk = self._jit_blk
            pos = self._jit_pos
            if pos + 2 > len(blk):
                blk = self._refill_jitter()
                pos = 0
            lat = alpha * blk[pos]
            bwt = (nbytes / bw) * blk[pos + 1]
            self._jit_pos = pos + 2
        else:
            lat = alpha
            bwt = nbytes / bw

        start = t_send + self._o_send
        if nic_gate:
            nic_free = self._nic_free
            f = nic_free[src_node]
            if f > start:
                start = f
        if mem_gate and nbytes > 0:
            # Every message occupies DRAM copy bandwidth on each node it
            # touches (once per node: single-copy shared-memory model).
            mem_free = self._mem_free
            f = mem_free[src_node]
            if f > start:
                start = f
            f = mem_free[dst_node]
            if f > start:
                start = f
            mem_t = start + nbytes / self._mem_bw
            mem_free[src_node] = mem_t
            if dst_node != src_node:
                mem_free[dst_node] = mem_t
        sender_done = start + bwt
        if nic_gate:
            nic_free[src_node] = sender_done
        arrival = start + lat + bwt
        self.n_messages += 1

        if src_node != dst_node:
            nbytes = int(nbytes)
            self.nic._xmit[src_node].add(sender_done, nbytes)
            self.nic._rcv[dst_node].add(arrival, nbytes)
        return sender_done, arrival
