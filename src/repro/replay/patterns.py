"""Collective-algorithm substitution: a trace -> trace transform on
the event columns (:func:`apply_substitution`).

A recorded trace carries every collective *post-decomposition* (the
paper's key property: the monitoring layer sees the point-to-point
messages the algorithm actually generated) bracketed by B/E markers.
Substituting an algorithm therefore means: find each instance of the
op, erase its recorded point-to-point traffic, and synthesize the
replacement algorithm's traffic over the same payload.  The synthesis
walks the live modules' ``tree()`` (:mod:`repro.simmpi.collectives.bcast`
/ ``reduce``) segment by segment, in the order the live bodies send and
receive, so a substituted replay prices what the live run *would have*
injected.

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
edge).  The segment count is one for an algorithm that does not
pipeline; for one that does, it is the recording's own (the most
messages any pair carried) when the recorded algorithm pipelined too,
and otherwise the live rule: the recorded ``segments``, else
``n_segments`` of the payload.  Segment sizes follow ``split_buffer``'s
abstract-buffer rule (big-first byte divmod).  Two divergences from the
live run remain: array payloads split on element boundaries live, a
difference of at most one element per segment; and a payload the live
root cannot slice, recorded under ``flat`` / ``chain`` and substituted
to a pipelined algorithm, gets the derived count where the live run
would send one segment.

Unrelated events recorded inside a region (that deferred point-to-point
send from before the collective) are preserved in place; the generated
rows go ahead of the region's E.  Python walks the B/E rows and the
trees; the rest is numpy over the columns in per-rank program order.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.replay.schema import (CATS, COLUMN_LAYOUT, K_B, K_R, K_S,
                                 ReplayTrace, TraceColumns)
from repro.simmpi.collectives import bcast, default_algorithm, reduce
from repro.simmpi.collectives.segment import n_segments, split_buffer
from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import CommError

__all__ = ["SUBSTITUTABLE", "apply_substitution", "parse_substitute"]

#: The rooted ops, each by the module that runs it and states its trees.
_TREES = {"bcast": bcast, "reduce": reduce}
SUBSTITUTABLE = {op: module.ALGORITHMS for op, module in _TREES.items()}
_COLL = CATS.index("coll")
#: What :func:`_substitute_instance` says of each row it generates, with
#: the dtype it is kept in: the trace columns a generated row fills
#: (``t`` and ``gap`` are zero) and ``before``, the row it goes ahead of.
_GENERATED = dict(COLUMN_LAYOUT[2:], before=np.int64)


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
                       substitute: Dict[str, str]) -> ReplayTrace:
    """The run ``trace`` would have recorded with every instance of the
    ops in ``substitute`` decomposed by the named algorithm: a new
    columns-only trace in per-rank program order (rank 0's events, then
    rank 1's, ... — a substituted run has no recorded global order).
    Its header, recorded clocks included, is ``trace``'s."""
    for op, alg in substitute.items():
        if op not in SUBSTITUTABLE:
            raise CommError(
                f"cannot substitute {op!r}; supported: "
                f"{sorted(SUBSTITUTABLE)}")
        if alg not in SUBSTITUTABLE[op]:
            raise CommError(
                f"unknown {op} algorithm {alg!r}; "
                f"have {SUBSTITUTABLE[op]}")

    c = trace.columns()
    n = trace.world_size
    program, cut = trace.program()
    kind, rank, peer, seq, nbytes, mcat = (
        col[program] for col in (c.kind, c.rank, c.peer, c.seq, c.nbytes,
                                 c.mcat))
    instances = [inst for _, inst in sorted(
        _find_instances(kind, peer, cut, c.colls).items())
        if inst.op in substitute]

    # Which instance owns each row: the id (from 1) on a region's B and
    # everything inside it, 0 on its E and outside.  Top-level regions
    # are disjoint, so a running sum of +id / -id says it.
    begins, ends, ids = np.array(
        [(b, e, i) for i, inst in enumerate(instances, start=1)
         for b, e in inst.regions.values()], dtype=np.int64).reshape(-1, 3).T
    owner = np.zeros(len(kind), dtype=np.int64)
    owner[begins] = ids
    owner[ends] = -ids
    np.cumsum(owner, out=owner)
    # Their B rows name the new algorithm.
    colls = list(c.colls)
    renamed = np.arange(len(colls))
    for i, sig in enumerate(c.colls):
        if sig[1] in substitute:
            sig = sig[:2] + (substitute[sig[1]],) + sig[3:]
            if sig not in colls:
                colls.append(sig)
            renamed[i] = colls.index(sig)
    peer[begins] = renamed[peer[begins]]

    # Every receive-wait inside a region was issued by that collective
    # call; its sequence number names one of the instance's messages,
    # whose send goes wherever it materialised.  Fresh numbers start
    # past every one the trace mentions, sent or only waited for.
    is_send = kind == K_S
    waited = np.flatnonzero((kind == K_R) & (owner > 0))
    fresh = int(seq.max(initial=-1)) + 1
    owner_of_seq = np.zeros(fresh, dtype=np.int64)
    owner_of_seq[seq[waited]] = owner[waited]
    sent = np.zeros(fresh, dtype=bool)
    sent[seq[is_send]] = True
    unsent = waited[~sent[seq[waited]]]
    if len(unsent):
        first = unsent[np.argmin(seq[unsent])]
        raise CommError(
            f"trace references unsent message #{seq[first]} inside a "
            f"{instances[owner[first] - 1].op} region")
    replaced = np.flatnonzero(is_send & (owner_of_seq[seq] > 0))
    replaced = replaced[np.lexsort((seq[replaced],
                                    owner_of_seq[seq[replaced]]))]
    upto = np.searchsorted(owner_of_seq[seq[replaced]],
                           np.arange(len(instances) + 2))

    # What outlives the program order: the replaced sends' pairs, sizes
    # and categories, and the kept rows — where each was recorded, and
    # its peer (a B row's renamed one).
    was_pair = rank[replaced].astype(np.int64) * n + peer[replaced]
    was_nbytes, was_mcat = nbytes[replaced], mcat[replaced]
    gone = np.zeros(len(kind), dtype=bool)
    gone[waited] = gone[replaced] = True
    kept = np.flatnonzero(~gone)
    recorded, peer = program[kept], peer[kept]
    del (program, kind, rank, seq, nbytes, mcat, owner, owner_of_seq,
         sent, is_send, waited, replaced, gone)

    generated = []
    for i, inst in enumerate(instances, start=1):
        members = trace.comms.get(inst.comm_id)
        if members is None:
            raise CommError(
                f"trace lacks membership for communicator {inst.comm_id}")
        for member in members:
            if member not in inst.regions:
                raise CommError(
                    f"rank {member} has no recorded region for "
                    f"{inst.op} instance on communicator; trace truncated?")
        was = slice(upto[i], upto[i + 1])          # its sends, by seq
        rows = _substitute_instance(
            inst, substitute[inst.op], np.asarray(members),
            was_pair[was], was_nbytes[was], was_mcat[was], n)
        rows["seq"] += fresh
        fresh = int(rows["seq"].max(initial=fresh - 1)) + 1
        generated.append({name: column.astype(_GENERATED[name])
                          for name, column in rows.items()})

    # Splice: what is kept stays in program order, and an instance's
    # new rows go ahead of the E of the region of the rank that issues
    # them, in the order they were generated.  So a kept row's place is
    # its index among the kept plus the new rows that land ahead of it,
    # and a new row's is the kept rows before its E plus the new rows
    # sorted ahead of it.  Each column is scattered into its final
    # dtype, the generated rows joined one column at a time.
    def joined(name: str) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=_GENERATED[name])]
                              + [rows.pop(name) for rows in generated])

    before = joined("before")
    order = np.argsort(before, kind="stable")
    ahead = before[order]
    at_kept = np.arange(len(kept)) + np.searchsorted(ahead, kept, "right")
    at_new = np.empty(len(order), dtype=np.int64)
    at_new[order] = np.searchsorted(kept, ahead) + np.arange(len(order))
    del kept, before, order, ahead
    columns = {}
    for name, dtype in COLUMN_LAYOUT:
        column = columns[name] = np.empty(len(at_kept) + len(at_new), dtype)
        column[at_kept] = peer if name == "peer" \
            else getattr(c, name)[recorded]
        column[at_new] = joined(name) if name in _GENERATED else 0
    return trace._with_columns(TraceColumns(colls=colls, **columns))


# ---------------------------------------------------------------------------
# instance discovery


class _Instance(NamedTuple):
    """One collective call: the signature its first rank recorded and
    every rank's region, as (row of B, row of E) in program order."""

    comm_id: int
    op: str
    alg: str
    root: int
    nbytes: int
    segments: int
    regions: Dict[int, tuple]


def _find_instances(kind, coll, cut, colls) -> Dict[tuple, _Instance]:
    """Map (comm_id, occurrence) -> instance, from the B/E rows of a
    stream in per-rank program order, rank r's rows from ``cut[r]``."""
    instances: Dict[tuple, _Instance] = {}
    marks = np.flatnonzero(kind >= K_B)
    rows = zip(marks.tolist(), (kind[marks] == K_B).tolist(),
               coll[marks].tolist())
    for r, n in enumerate(np.diff(np.searchsorted(marks, cut)).tolist()):
        occ, depth, top = {}, 0, None
        for i, begins, sig in islice(rows, n):
            if begins:
                if depth == 0:
                    cid = colls[sig][0]
                    top = (cid, occ.get(cid, 0)), i, sig
                    occ[cid] = top[0][1] + 1
                depth += 1      # nested collective: owned by the outer region
            elif depth:
                depth -= 1
                if depth == 0:
                    key, i_b, sig = top
                    if key not in instances:
                        instances[key] = _Instance(*colls[sig], {})
                    instances[key].regions[r] = (i_b, i)
    return instances


# ---------------------------------------------------------------------------
# one instance


def _nth_of_its_key(keys: np.ndarray) -> np.ndarray:
    """For each element, how many equal ones come before it."""
    by_key = np.argsort(keys, kind="stable")
    ordered = keys[by_key]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    nth = np.empty(len(keys), dtype=np.int64)
    nth[by_key] = np.arange(len(keys)) - np.repeat(
        first, np.diff(np.r_[first, len(keys)]))
    return nth


def _substitute_instance(inst: _Instance, new_alg: str, members, was_pair,
                         was_nbytes, was_mcat, n: int) -> Dict[str, np.ndarray]:
    """Columns of the rows ``new_alg`` generates for one instance whose
    recorded sends were ``was_*`` (in sequence order; a pair is
    ``src * n + dst``), plus ``before``: the row each goes ahead of.
    ``seq`` counts the instance's messages from 0."""
    # Monitoring category is a per-*message* property, not per-instance:
    # monitoring can flip mid-run, and a deferred send posted before the
    # flip materializes (and is categorized) after it.  Replaying the
    # matched sends' categories per pair in sequence order keeps the
    # monitored matrices exact under identity substitution; edges a new
    # algorithm introduces fall back to the instance's dominant category
    # (of two as frequent, the one seen first).
    by_pair = np.argsort(was_pair, kind="stable")
    pairs = was_pair[by_pair]
    payload, per_pair, fallback = max(0, inst.nbytes), 0, 0
    if len(pairs):
        first = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]])
        payload = int(np.add.reduceat(was_nbytes[by_pair], first).max())
        per_pair = int(np.diff(np.r_[first, len(pairs)]).max())
        codes, seen, votes = np.unique(was_mcat, return_index=True,
                                       return_counts=True)
        fallback = codes[np.lexsort((seen, -votes))[0]]
    mcats = np.append(was_mcat[by_pair], fallback)

    # The segment count: what the recording shows when it pipelined too
    # (its segments crossed each edge), else the live rule.
    size, root = len(members), max(0, inst.root)
    module = _TREES[inst.op]
    if new_alg not in module.PIPELINED:
        nseg = 1
    elif per_pair and (inst.alg or default_algorithm(inst.op, size)) \
            in module.PIPELINED:
        nseg = per_pair
    else:
        nseg = inst.segments if inst.segments > 0 else n_segments(payload)
    seg_sizes = [piece.nbytes for piece in
                 split_buffer(Buffer(None, nbytes=payload), nseg)]
    # Walk the live tree: per segment, a bcast receives from its parent
    # and sends to its children, a reduce the other way round.
    calls: List[tuple] = []      # (is send, local rank, local peer, nbytes, s)
    for lr in range(size):
        parent, children = module.tree(new_alg, lr, size, root)
        up = [] if parent is None else [parent]
        srcs, dsts = (up, children) if inst.op == "bcast" else (children, up)
        for s, nb in enumerate(seg_sizes):
            calls += [(0, lr, src, 0, s) for src in srcs]
            calls += [(1, lr, dst, nb, s) for dst in dsts]
    sends, local, local_peer, nb, segment = \
        np.array(calls, dtype=np.int64).reshape(-1, 5).T
    sends = sends.astype(bool)
    me, other = members[local], members[local_peer]
    pair = np.where(sends, me * n + other, other * n + me)
    # A message is its (pair, segment); its send and its receive-wait
    # carry the same number.
    seq = np.unique(pair * (len(calls) + 1) + segment, return_inverse=True)[1]
    # The k-th send over a pair is categorised like the k-th recorded.
    at = np.searchsorted(pairs, pair[sends]) + _nth_of_its_key(pair[sends])
    known = at < np.searchsorted(pairs, pair[sends], side="right")
    mcat = np.zeros(len(calls), dtype=np.int64)
    mcat[sends] = mcats[np.where(known, at, len(pairs))]
    ends = np.array([inst.regions[m][1] for m in members.tolist()])
    return {"kind": np.where(sends, K_S, K_R), "rank": me,
            "peer": np.where(sends, other, 0), "nbytes": nb, "seq": seq,
            "cat": np.where(sends, _COLL, 0), "mcat": mcat,
            "before": ends[local]}
