"""``python -m repro.serve`` — run and talk to the advisory daemon.

Subcommands::

    start    run the daemon (unix socket by default, TCP with --host)
    ingest   register + compile a trace file into a running daemon
    query    ask a daemon for placement advice on a fingerprint/trace
    stats    dump a daemon's live statistics
    stop     ask a daemon to drain and exit

Output convention (shared with ``repro.obs diagnose --json``):
machine-readable reports go to **stdout**, all human/log chatter goes
to **stderr** — piping any subcommand into a JSON consumer just works.
The daemon's speed (first answer, cold and hot paths, parity with a
direct search) is measured by ``benchmarks/ledger/run.py --workload
serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main"]


def _endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="unix socket path of the daemon")
    parser.add_argument("--host", default=None,
                        help="TCP host instead of a unix socket")
    parser.add_argument("--port", type=int, default=0)


def _client(args):
    from repro.serve.client import ServeClient

    return ServeClient(path=args.socket, host=args.host, port=args.port)


def _emit(doc) -> None:
    """The machine-readable report — stdout, nothing else on stdout."""
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_start(args) -> int:
    import asyncio

    from repro.serve.server import PlacementServer, ServeConfig

    config = ServeConfig(
        socket=args.socket, host=args.host, port=args.port,
        jobs=args.jobs, timeout_s=args.timeout, retries=args.retries,
        backoff_s=args.backoff, cache_bytes=args.cache_mb * 1024 * 1024,
        max_queue=args.max_queue, batch=args.batch)
    server = PlacementServer(config)
    return asyncio.run(server.run())


def _cmd_ingest(args) -> int:
    with _client(args) as client:
        reply = client.ingest(args.trace, compile=not args.no_compile)
    print(f"ingested {args.trace} -> fp={reply['fingerprint'][:12]}…"
          + (f" ({reply['nbytes']:,} bytes compiled)"
             if reply.get("compiled") else " (not compiled)"),
          file=sys.stderr)
    _emit(reply)
    return 0


def _cmd_query(args) -> int:
    from repro.placement.focus import focus_from_args
    from repro.replay.patterns import parse_substitute

    focus = focus_from_args(args)
    strategies = ([s.strip() for s in args.strategies.split(",") if s.strip()]
                  if args.strategies else None)
    with _client(args) as client:
        if args.trace:
            fp = client.ingest(args.trace, compile=True)["fingerprint"]
        else:
            fp = args.fingerprint
        reply = client.query(fp, strategies=strategies, seed=args.seed,
                             substitute=parse_substitute(args.substitute),
                             focus=focus.to_dict() if focus else None)
    print(f"best: {reply['best']} ({reply['speedup']:.2f}x vs recorded, "
          f"cache {reply['cache']['hits']}h/{reply['cache']['misses']}m)",
          file=sys.stderr)
    _emit(reply)
    return 0


def _cmd_stats(args) -> int:
    with _client(args) as client:
        reply = client.stats()
    _emit(reply)
    return 0


def _cmd_stop(args) -> int:
    with _client(args) as client:
        reply = client.shutdown()
    print("daemon draining", file=sys.stderr)
    _emit(reply)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.split("\n", 1)[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="run the advisory daemon")
    _endpoint_args(p)
    p.add_argument("--jobs", type=int, default=2,
                   help="scoring worker processes (default 2)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-candidate scoring timeout, seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="scoring attempts beyond the first")
    p.add_argument("--backoff", type=float, default=0.05,
                   help="retry backoff base, seconds (doubles per attempt)")
    p.add_argument("--cache-mb", type=int, default=256,
                   help="compiled-book LRU budget per worker, MiB")
    p.add_argument("--max-queue", type=int, default=256,
                   help="cold-candidate admission bound")
    p.add_argument("--batch", type=int, default=8,
                   help="max candidates per worker round trip")
    p.set_defaults(func=_cmd_start)

    p = sub.add_parser("ingest", help="register+compile a trace")
    _endpoint_args(p)
    p.add_argument("trace", help="replay trace file")
    p.add_argument("--no-compile", action="store_true",
                   help="register only; the first query's worker compiles")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="ask for placement advice")
    _endpoint_args(p)
    p.add_argument("--trace", default=None,
                   help="trace file (ingested first)")
    p.add_argument("--fingerprint", default=None,
                   help="fingerprint of an already-ingested trace")
    p.add_argument("--strategies", default=None, metavar="S,S,...")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--substitute", action="append", metavar="OP=ALG")
    p.add_argument("--focus-from", default=None, metavar="REPORT.json",
                   help="seed/weight the candidate generators from a "
                        "`repro.obs diagnose` report")
    p.add_argument("--focus-weight", type=float, default=None, metavar="W")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("stats", help="dump daemon statistics as JSON")
    _endpoint_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("stop", help="drain and stop the daemon")
    _endpoint_args(p)
    p.set_defaults(func=_cmd_stop)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "query" and not args.trace and not args.fingerprint:
        raise SystemExit("query needs --trace or --fingerprint")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
