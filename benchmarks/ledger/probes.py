"""Isolated probes of the layers a simulated message passes through.

``src/`` may not be edited by the PR that defines the benchmark, so a
layer the workload calls *internally* cannot carry a span.  Instead
each probe calls the layer's public function in a tight loop on inputs
shaped like the workload's (rank count, binding, message sizes) and
reports a unit cost in µs; the ledger multiplies it by the exact call
count of a real run.  The blind spot is stated in the README: unit
costs are measured out of situ (warm caches, no interleaving), and
whatever the probes do not see lands in ``sim.unattributed_share``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from benchmarks.ledger.harness import engine_core_kwargs, unit_cost_us

_SIZES = (8, 4096, 65536, 1 << 20)


def switch_us(core: str, iters: int) -> float:
    """Price of one scheduler switch on ``core``: two ranks alternately
    advance virtual time and give way to whichever is behind, so nearly
    every give-way hands the baton over.  No messages, no payload."""
    from repro.simmpi import Cluster, Engine, current_process

    ticks = (1.0e-6, 1.1e-6)

    def threads(comm):
        proc = current_process()
        tick = ticks[comm.rank]
        for _ in range(iters):
            proc.advance(tick)
            comm.engine.maybe_yield(proc)

    def eventloop(comm):
        proc = current_process()
        tick = ticks[comm.rank]
        for _ in range(iters):
            proc.advance(tick)
            yield from comm.engine.co_give_way(proc)

    costs = []
    for _ in range(3):
        engine = Engine(Cluster.plafrim(1, n_ranks=2, binding="packed"),
                        seed=0, **engine_core_kwargs(core))
        t0 = time.perf_counter()
        engine.run(eventloop if core == "eventloop" else threads)
        costs.append((time.perf_counter() - t0) / engine.switches * 1e6)
    return statistics.median(costs)


def match_us(pairs: int) -> float:
    """One ``MatchQueue.post`` + ``deliver`` pair, half of them with the
    receive posted first and half with the message arriving first (the
    unexpected-queue path point-to-point codes exercise)."""
    from repro.simmpi.datatypes import Buffer
    from repro.simmpi.match import MatchQueue, Message
    from repro.simmpi.request import RecvRequest

    buf = Buffer.abstract(8)
    half = pairs // 2

    def prepare():
        # A receive binds once, so every repeat needs fresh objects.
        reqs = [RecvRequest(None, None, i & 7, 0, "ctx") for i in range(pairs)]
        msgs = [Message(i & 7, 0, 0, "ctx", buf, 0.0) for i in range(pairs)]
        return list(zip(reqs, msgs))

    def loop(work) -> int:
        queue = MatchQueue()
        post, deliver = queue.post, queue.deliver
        for req, msg in work[:half]:
            post(req)
            deliver(msg)
        for req, msg in work[half:]:
            deliver(msg)
            post(req)
        return pairs

    return unit_cost_us(loop, prepare)


def _pairs_by_locality(cluster, want: int = 1024):
    """Up to ``want`` rank pairs inside one node, and as many across nodes."""
    intra: List[Tuple[int, int]] = []
    cross: List[Tuple[int, int]] = []
    node = [cluster.node_of_rank(r) for r in range(cluster.n_ranks)]
    for src in range(min(cluster.n_ranks, 64)):
        for dst in range(cluster.n_ranks):
            bucket = intra if node[src] == node[dst] else cross
            if dst != src and len(bucket) < want:
                bucket.append((src, dst))
    return intra, cross


def transfer_us(cluster, calls: int) -> Dict[str, float]:
    """``Network.transfer`` on the workload's own topology and binding,
    separately for pairs inside a node and pairs that cross the NIC."""
    from repro.simmpi import Network

    out = {}
    for kind, pairs in zip(("intra", "cross"), _pairs_by_locality(cluster)):
        net = Network(cluster.topology, cluster.binding, cluster.params)
        work = [(s, d, _SIZES[i % len(_SIZES)])
                for i, (s, d) in zip(range(calls), pairs * (calls // len(pairs) + 1))]

        def loop(_) -> int:
            t = 0.0
            transfer = net.transfer
            for src, dst, nbytes in work:
                t, _ = transfer(src, dst, nbytes, t)
            return len(work)

        out[kind] = unit_cost_us(loop)
    return out


def pml_us(n_ranks: int, calls: int) -> Dict[str, float]:
    """``PmlMonitoring.record`` with monitoring on (the message is
    recorded) and off (the gate alone), and the first matrix read after
    a burst, which pays the deferred flush."""
    from repro.simmpi.pml_monitoring import PmlMonitoring

    work = [(i % n_ranks, (i * 7 + 1) % n_ranks, _SIZES[i % len(_SIZES)])
            for i in range(calls)]
    out = {}
    flushes = []
    for label, mode in (("record", 2), ("gate", 0)):
        pml = PmlMonitoring(n_ranks)
        pml.set_mode(mode)

        def loop(_) -> int:
            record = pml.record
            for src, dst, nbytes in work:
                record(src, dst, nbytes, "coll")
            if mode:
                t0 = time.perf_counter()
                pml.sizes["coll"]
                flushes.append((time.perf_counter() - t0) * 1e6)
            return len(work)

        out[label] = unit_cost_us(loop)
    out["flush"] = statistics.median(flushes)
    return out


def route_build_s(n_ranks: int) -> float:
    """Cost of the lazy route tables at ``n_ranks``: the first transfer
    over each pair of a recursive-doubling pattern resolves its route;
    the second sweep over the same pairs does not.  The difference is
    what a big world pays for routes inside its first collective."""
    from repro.simmpi import Cluster, Network

    cluster = Cluster.plafrim(-(-n_ranks // 24), n_ranks=n_ranks, binding="rr")
    t0 = time.perf_counter()
    net = Network(cluster.topology, cluster.binding, cluster.params)
    build = time.perf_counter() - t0
    hops = [1 << k for k in range(n_ranks.bit_length() - 1)]
    pairs = [(src, (src + hop) % n_ranks)
             for hop in hops for src in range(n_ranks)]

    def sweep() -> float:
        t0 = time.perf_counter()
        for src, dst in pairs:
            net.transfer(src, dst, 8, 0.0)
        return time.perf_counter() - t0

    first = sweep()
    return build + max(0.0, first - sweep())
