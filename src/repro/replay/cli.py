"""``python -m repro.replay`` — replay, search, diff.

Subcommands::

    replay   re-cost a trace (identity, new binding, or substituted algs)
    search   score candidate placements offline
    diff     compare two traces (or two replays of one trace)

The trace file is the interchange format, and everything here consumes
it.  Recording one is the producers' job: ``python -m repro.experiments
NAME --trace-out PATH`` from any simulated figure, ``python -m repro.obs
export --trace-out PATH`` from an instrumented Fig. 5 cell, or
``repro.replay.autorecord.capture()`` around any engine run.
How fast search is, and how far replayed makespans sit from live ones,
is measured by ``benchmarks/ledger/run.py --workload advice``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared helpers


def _parse_binding(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    return [int(tok) for tok in text.replace(",", " ").split()]


def _load(path: str):
    from repro.replay.schema import ReplayTrace

    return ReplayTrace.load(path)


def _summary_lines(trace, res) -> List[str]:
    lines = [
        f"events      {trace.n_events}",
        f"ranks       {trace.world_size}",
        f"messages    {res.n_messages}",
        f"mode        {'exact (bit-identical to the live run)' if res.exact else 'recosted'}",
        f"makespan    {res.max_clock:.6f} s (recorded {max(trace.clocks):.6f} s)",
    ]
    for cat, mat in res.total_sizes.items():
        total = int(mat.sum())
        if total:
            lines.append(f"bytes[{cat}] {total}")
    return lines


# ---------------------------------------------------------------------------
# replay


def _cmd_replay(args) -> int:
    from repro.replay.engine import replay
    from repro.replay.patterns import parse_substitute

    trace = _load(args.trace)
    binding = _parse_binding(args.binding)
    if args.swap_pus:
        binding = list(trace.binding) if binding is None else binding
        a, b = args.swap_pus
        binding = [b if pu == a else a if pu == b else pu for pu in binding]
    res = replay(trace, binding=binding, seed=args.seed,
                 substitute=parse_substitute(args.substitute),
                 verify=args.verify)
    for line in _summary_lines(trace, res):
        print(line)
    if args.verify:
        print("verify      every zero-gap clock matches the recording")
    if args.json:
        doc = {
            "makespan": res.max_clock,
            "clocks": res.clocks,
            "exact": res.exact,
            "n_messages": res.n_messages,
            "total_bytes": {c: int(m.sum())
                            for c, m in res.total_sizes.items()},
            "monitored_bytes": {c: int(m.sum())
                                for c, m in res.sizes.items()},
        }
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# search


def _cmd_search(args) -> int:
    from repro.experiments.common import render_table
    from repro.placement.focus import focus_from_args
    from repro.replay.engine import compile_trace
    from repro.replay.patterns import parse_substitute
    from repro.replay.search import speedup_of, what_if_search

    trace = _load(args.trace)
    strategies = ([s.strip() for s in args.strategies.split(",") if s.strip()]
                  if args.strategies else None)
    focus = focus_from_args(args)
    t0 = time.perf_counter()
    res = what_if_search(trace, strategies=strategies, seed=args.seed,
                         substitute=parse_substitute(args.substitute),
                         focus=focus)
    search_wall = time.perf_counter() - t0
    book = compile_trace(trace)
    rows = [
        (c.strategy, round(c.makespan, 6),
         round(speedup_of(res.recorded_makespan, c.makespan), 3),
         int(c.inter_node_bytes), round(c.wall_seconds * 1e3, 1))
        for c in res.candidates
    ]
    print(render_table(
        ["strategy", "makespan (s)", "speedup", "inter-node bytes",
         "wall (ms)"],
        rows,
        title=f"what-if placement search over {args.trace} "
              f"({trace.world_size} ranks, {trace.n_events} events)"))
    print(f"\nbest: {res.best.strategy} "
          f"(makespan {res.best.makespan:.6f}s, "
          f"{res.speedup:.2f}x vs recorded; search took {search_wall:.3f}s)")
    print(f"k = {list(map(int, res.k))}")
    print(f"compiled book: {book.nbytes():,} bytes resident "
          f"({book.n_messages} messages), shared across all "
          f"{len(res.candidates)} candidates")
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(res.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# diff


def _cmd_diff(args) -> int:
    import numpy as np

    from repro.replay.engine import replay
    from repro.replay.patterns import parse_substitute

    ta, tb = _load(args.a), _load(args.b)
    if ta.world_size != tb.world_size:
        print(f"world size differs: {ta.world_size} vs {tb.world_size}")
        return 1
    sub = parse_substitute(args.substitute)
    ra = replay(ta)
    rb = replay(tb, substitute=sub)
    rc = 0
    print(f"events     {ta.n_events} vs {tb.n_events}")
    print(f"messages   {ra.n_messages} vs {rb.n_messages}")
    print(f"makespan   {ra.max_clock:.6f} vs {rb.max_clock:.6f} "
          f"(delta {rb.max_clock - ra.max_clock:+.6f})")
    for label, ma, mb in (
        ("total", ra.byte_matrix(), rb.byte_matrix()),
        ("monitored", ra.byte_matrix(True), rb.byte_matrix(True)),
    ):
        if np.array_equal(ma, mb):
            print(f"{label:9s}  byte matrices identical "
                  f"({int(ma.sum())} bytes)")
        else:
            d = np.argwhere(ma != mb)
            delta = int(mb.sum()) - int(ma.sum())
            print(f"{label:9s}  {len(d)} pairs differ, "
                  f"net {delta:+d} bytes; first "
                  + ", ".join(
                      f"({int(i)},{int(j)}): {int(ma[i, j])}->{int(mb[i, j])}"
                      for i, j in d[:4]))
            rc = 1
    return rc


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description=__doc__.split("\n", 1)[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="re-cost a recorded trace")
    p.add_argument("trace", help="trace file from --trace-out")
    p.add_argument("--binding", default=None, metavar="PU,PU,...",
                   help="rank->PU binding override (world-rank order)")
    p.add_argument("--swap-pus", type=int, nargs=2, default=None,
                   metavar=("A", "B"), help="swap two PUs in the binding")
    p.add_argument("--substitute", action="append", metavar="OP=ALG",
                   help="collective algorithm substitution (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="jitter seed override")
    p.add_argument("--verify", action="store_true",
                   help="cross-check replayed clocks against the recording")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also dump the result as JSON")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("search", help="what-if placement search")
    p.add_argument("trace")
    p.add_argument("--strategies", default=None, metavar="S,S,...",
                   help="comma-separated strategy list (default: all)")
    p.add_argument("--substitute", action="append", metavar="OP=ALG")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--focus-from", default=None, metavar="REPORT.json",
                   help="seed/weight the candidate generators from a "
                        "`repro.obs diagnose` report (straggler ranks + "
                        "congested link classes)")
    p.add_argument("--focus-weight", type=float, default=None,
                   metavar="W", help="generator-matrix multiplier for "
                                     "focused traffic (default 4)")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("diff", help="compare two traces")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--substitute", action="append", metavar="OP=ALG",
                   help="apply a substitution to the second trace")
    p.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.replay.engine import ReplayError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # a path, strategy or binding
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
