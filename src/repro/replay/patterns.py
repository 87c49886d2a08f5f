"""Collective-algorithm substitution on recorded traces.

A recorded trace carries every collective *post-decomposition* (the
paper's key property: the monitoring layer sees the point-to-point
messages the algorithm actually generated) bracketed by B/E markers.
Substituting an algorithm therefore means: find each instance of the
op, erase its recorded point-to-point traffic, and synthesize the
replacement algorithm's traffic over the same payload — mirroring the
exact send/receive loop order of the live implementations in
:mod:`repro.simmpi.collectives.bcast` / ``reduce`` so a substituted
replay prices what the live run *would have* injected.

An instance is identified as the i-th top-level B marker per
communicator on each member rank: collectives are globally ordered per
communicator, so occurrence index i names the same call site on every
rank.  The instance's message set is derived from its *receives*:
every receive-wait between a rank's B and E markers was issued by that
collective call (waits execute in program order on the rank thread),
and every message a collective sends is received inside some member's
region — whereas its *sends* are unreliable region evidence, because a
deferred send routinely materializes outside the collective that
posted it (even inside a later collective's region).  Dropped sends
are therefore located by sequence number wherever they sit in the
stream.

The payload is measured from the matched sends (the maximum per-pair
byte total — every algorithm here sends the full buffer over each tree
edge); segment sizes follow ``split_buffer``'s abstract-buffer rule
(big-first byte divmod — array payloads in the live run split on
element boundaries instead, a difference of at most one element per
segment).  Unrelated events recorded inside a region (that deferred
point-to-point send from before the collective) are preserved in
place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.replay.schema import ReplayTrace
from repro.simmpi.errorsim import CommError

__all__ = ["SUBSTITUTABLE", "apply_substitution", "parse_substitute"]

SUBSTITUTABLE = {
    "bcast": ("binomial", "flat", "chain"),
    "reduce": ("binomial", "binary", "flat"),
}


def parse_substitute(pairs: Optional[List[str]]) -> Optional[Dict[str, str]]:
    """Repeated ``--substitute OP=ALG`` arguments → ``{op: alg}``."""
    if not pairs:
        return None
    out: Dict[str, str] = {}
    for pair in pairs:
        op, eq, alg = pair.partition("=")
        if not eq:
            raise SystemExit(f"--substitute wants op=alg, got {pair!r}")
        out[op.strip()] = alg.strip()
    return out


def apply_substitution(trace: ReplayTrace,
                       substitute: Dict[str, str]) -> List[List[tuple]]:
    """Return per-rank event streams with substituted collectives."""
    for op, alg in substitute.items():
        if op not in SUBSTITUTABLE:
            raise CommError(
                f"cannot substitute {op!r}; supported: "
                f"{sorted(SUBSTITUTABLE)}")
        if alg not in SUBSTITUTABLE[op]:
            raise CommError(
                f"unknown {op} algorithm {alg!r}; "
                f"have {SUBSTITUTABLE[op]}")

    n = trace.world_size
    per_rank: List[List[tuple]] = [[] for _ in range(n)]
    for ev in trace.events:
        per_rank[ev[1]].append(ev)

    instances = _find_instances(per_rank)
    seq_to_s = {ev[6]: ev for q in per_rank for ev in q if ev[0] == "S"}
    seq_counter = [max(seq_to_s, default=-1) + 1]

    # (rank -> list of (i_begin, i_end, replacement_events)), spliced
    # back-to-front so indices stay valid; dropped_seqs gathers every
    # replaced message so its send can be erased wherever it
    # materialized.
    splices: Dict[int, List[Tuple[int, int, List[tuple]]]] = {}
    dropped_seqs: set = set()
    for key in sorted(instances):
        inst = instances[key]
        new_alg = substitute.get(inst["op"])
        if new_alg is None:
            continue
        members = trace.comms.get(key[0])
        if members is None:
            raise CommError(
                f"trace lacks membership for communicator {key[0]}")
        _substitute_instance(per_rank, inst, members, new_alg, seq_to_s,
                             seq_counter, splices, dropped_seqs)

    for r, repl in splices.items():
        q = per_rank[r]
        for i_b, i_e, events in sorted(repl, reverse=True):
            q[i_b:i_e + 1] = events
    if dropped_seqs:
        # Erase replaced sends that materialized outside the replaced
        # regions (generated sends use fresh sequence numbers, so only
        # recorded events can match).
        for r in range(n):
            per_rank[r] = [ev for ev in per_rank[r]
                           if not (ev[0] == "S" and ev[6] in dropped_seqs)]
    return per_rank


# ---------------------------------------------------------------------------
# instance discovery


def _find_instances(per_rank) -> Dict[tuple, dict]:
    """Map (comm_id, occurrence) -> instance info with per-rank regions."""
    instances: Dict[tuple, dict] = {}
    for r, q in enumerate(per_rank):
        occ: Dict[int, int] = {}
        stack: List[Optional[tuple]] = []
        for i, ev in enumerate(q):
            kind = ev[0]
            if kind == "B":
                if not stack:
                    cid = ev[2]
                    k = (cid, occ.get(cid, 0))
                    occ[cid] = k[1] + 1
                    stack.append((k, i, ev))
                else:  # nested collective: owned by the outer region
                    stack.append(None)
            elif kind == "E" and stack:
                top = stack.pop()
                if top is None:
                    continue
                k, i_b, bev = top
                inst = instances.setdefault(
                    k, {"op": bev[3], "alg": bev[4], "root": bev[5],
                        "nbytes": bev[6], "segments": bev[7],
                        "regions": {}})
                inst["regions"][r] = (i_b, i)
    return instances


# ---------------------------------------------------------------------------
# one instance


def _substitute_instance(per_rank, inst, members, new_alg, seq_to_s,
                         seq_counter, splices, dropped_seqs) -> None:
    size = len(members)
    root = max(0, inst["root"])

    # Pass 1: every receive-wait inside a member region belongs to this
    # instance; their sequence numbers name the instance's messages.
    inst_seqs = set()
    for rank, (i_b, i_e) in inst["regions"].items():
        q = per_rank[rank]
        for ev in q[i_b + 1:i_e]:
            if ev[0] == "R":
                inst_seqs.add(ev[2])

    # Monitoring category is a per-*message* property, not per-instance:
    # monitoring can flip mid-run, and a deferred send posted before the
    # flip materializes (and is categorized) after it.  Replaying the
    # matched sends' categories per pair in sequence order keeps the
    # monitored matrices exact under identity substitution; edges a new
    # algorithm introduces fall back to the instance's dominant category.
    pair_bytes: Dict[Tuple[int, int], int] = {}
    pair_mcats: Dict[Tuple[int, int], List[str]] = {}
    mcat_votes: Dict[str, int] = {}
    for seq in sorted(inst_seqs):
        sev = seq_to_s.get(seq)
        if sev is None:
            raise CommError(
                f"trace references unsent message #{seq} inside a "
                f"{inst['op']} region")
        pair = (sev[1], sev[2])
        pair_bytes[pair] = pair_bytes.get(pair, 0) + sev[3]
        pair_mcats.setdefault(pair, []).append(sev[5])
        mcat_votes[sev[5]] = mcat_votes.get(sev[5], 0) + 1
    dropped_seqs.update(inst_seqs)

    fallback = max(mcat_votes, key=mcat_votes.get) if mcat_votes else ""
    payload = max(pair_bytes.values(), default=max(0, inst["nbytes"]))
    seg_sizes = _segment_sizes(inst, new_alg, payload)
    generated = _generate(inst["op"], new_alg, members, root, seg_sizes,
                          _mcat_lookup(pair_mcats, fallback), seq_counter)

    for lr in range(size):
        rank = members[lr]
        region = inst["regions"].get(rank)
        if region is None:
            raise CommError(
                f"rank {rank} has no recorded region for "
                f"{inst['op']} instance on communicator; trace truncated?")
        i_b, i_e = region
        q = per_rank[rank]
        bev = q[i_b]
        new_b = bev[:4] + (new_alg,) + bev[5:]
        carried = [ev for ev in q[i_b + 1:i_e]
                   if not (ev[0] == "S" and ev[6] in inst_seqs)
                   and not ev[0] == "R"]
        events = [new_b] + carried + generated[lr] + [("E", rank)]
        splices.setdefault(rank, []).append((i_b, i_e, events))


def _segment_sizes(inst, new_alg, payload: int) -> List[int]:
    from repro.simmpi.collectives.segment import n_segments

    pipelined = (inst["op"], new_alg) not in (
        ("bcast", "flat"), ("bcast", "chain"), ("reduce", "flat"))
    if not pipelined:
        return [payload]
    nseg = inst["segments"] if inst["segments"] > 0 else n_segments(payload)
    base, extra = divmod(payload, nseg)
    return [base + 1] * extra + [base] * (nseg - extra)


# ---------------------------------------------------------------------------
# algorithm event generators (loop orders mirror the live code)


def _mcat_lookup(pair_mcats, fallback):
    """Per-pair monitoring categories, consumed in segment order."""
    cursor: Dict[Tuple[int, int], int] = {}

    def mcat_of(src_w: int, dst_w: int) -> str:
        lst = pair_mcats.get((src_w, dst_w))
        if lst is None:
            return fallback
        i = cursor.get((src_w, dst_w), 0)
        if i >= len(lst):
            return fallback
        cursor[(src_w, dst_w)] = i + 1
        return lst[i]

    return mcat_of


def _generate(op, alg, members, root, seg_sizes, mcat_of,
              seq_counter) -> List[List[tuple]]:
    seqs: Dict[Tuple[int, int, int], int] = {}

    def seq_of(src_w: int, dst_w: int, s: int) -> int:
        key = (src_w, dst_w, s)
        got = seqs.get(key)
        if got is None:
            got = seq_counter[0]
            seq_counter[0] += 1
            seqs[key] = got
        return got

    size = len(members)
    out: List[List[tuple]] = [[] for _ in range(size)]

    def send(lr: int, dst_l: int, nb: int, s: int) -> None:
        me_w, dst_w = members[lr], members[dst_l]
        out[lr].append(("S", me_w, dst_w, nb, "coll", mcat_of(me_w, dst_w),
                        seq_of(me_w, dst_w, s), 0.0, 0.0))

    def recv(lr: int, src_l: int, s: int) -> None:
        me_w, src_w = members[lr], members[src_l]
        out[lr].append(("R", me_w, seq_of(src_w, me_w, s), 0.0, 0.0))

    if size == 1:
        return out
    if op == "bcast":
        _gen_bcast(alg, size, root, seg_sizes, send, recv)
    else:
        _gen_reduce(alg, size, root, seg_sizes, send, recv)
    return out


def _gen_bcast(alg, size, root, seg_sizes, send, recv) -> None:
    nseg = len(seg_sizes)
    for lr in range(size):
        vr = (lr - root) % size
        if alg == "flat":
            if vr == 0:
                for dst in range(size):
                    if dst != root:
                        send(lr, dst, seg_sizes[0], 0)
            else:
                recv(lr, root, 0)
            continue
        if alg == "chain":
            if vr > 0:
                recv(lr, (vr - 1 + root) % size, 0)
            if vr + 1 < size:
                send(lr, (vr + 1 + root) % size, seg_sizes[0], 0)
            continue
        # binomial (see bcast._binomial): receive mask is the lowest
        # set bit of the virtual rank; children descend from there.
        recv_mask = 0
        mask = 1
        while mask < size:
            if vr & mask:
                recv_mask = mask
                break
            mask <<= 1
        children = []
        m = (recv_mask or mask) >> 1
        while m > 0:
            if vr + m < size:
                children.append((vr + m + root) % size)
            m >>= 1
        if recv_mask == 0:  # root: pipeline every segment down the tree
            for s, nb in enumerate(seg_sizes):
                for child in children:
                    send(lr, child, nb, s)
        else:
            parent = (vr - recv_mask + root) % size
            recv(lr, parent, 0)
            for child in children:
                send(lr, child, seg_sizes[0], 0)
            for s in range(1, nseg):
                recv(lr, parent, s)
                for child in children:
                    send(lr, child, seg_sizes[s], s)


def _gen_reduce(alg, size, root, seg_sizes, send, recv) -> None:
    for lr in range(size):
        vr = (lr - root) % size
        if alg == "flat":
            if vr == 0:
                for src in range(size):
                    if src != root:
                        recv(lr, src, 0)
            else:
                send(lr, root, seg_sizes[0], 0)
            continue
        if alg == "binary":
            children_v = [c for c in (2 * vr + 1, 2 * vr + 2) if c < size]
            parent_v = None if vr == 0 else (vr - 1) // 2
        else:  # binomial: ascending-mask children, reduced before forwarding
            children_v = []
            parent_v = None
            mask = 1
            while mask < size:
                if vr & mask:
                    parent_v = vr & ~mask
                    break
                if vr | mask < size and vr | mask != vr:
                    children_v.append(vr | mask)
                mask <<= 1
        children = [(c + root) % size for c in children_v]
        parent = None if parent_v is None else (parent_v + root) % size
        for s, nb in enumerate(seg_sizes):
            for child in children:
                recv(lr, child, s)
            if parent is not None:
                send(lr, parent, nb, s)
