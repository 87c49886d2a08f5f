"""``python -m repro.sweep`` — the sweep command-line interface.

Subcommands::

    run    execute (or resume) a sweep: cached cells are served
           instantly, misses fan out over worker processes
    ls     list the selected cells and their cache status
    clean  delete cache entries (all, per-scenario, or stale-only)

Examples::

    python -m repro.sweep run --jobs 4 --filter 'fig5|fig6'
    python -m repro.sweep run --smoke --jobs 2 --report run.json
    python -m repro.sweep ls --filter fig5
    python -m repro.sweep clean --stale
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from repro.sweep import runner
from repro.sweep.cache import ResultCache, default_cache_dir
from repro.sweep.registry import (add_grid_flags, cell_id, grid_config,
                                  scenario_names)

DEFAULT_REPORT = os.path.join("{cache}", "last-run.json")


def _scenario_filter(expr: str) -> str:
    """``--filter``'s argparse type: a regex that selects a scenario.  A
    typo must fail the command, not run zero cells and exit 0."""
    names = scenario_names(include_hidden=True)
    try:
        if any(re.search(expr, name) for name in names):
            return expr
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"bad regex {expr!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"{expr!r} matches no scenario; have {', '.join(names)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Sharded, cached orchestration of the paper's "
                    "experiment grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--filter", default=None, metavar="REGEX",
                       type=_scenario_filter,
                       help="scenario name regex (e.g. 'fig5|fig6'); "
                            "default: every non-hidden scenario")
        p.add_argument("--cache-dir", default=None,
                       help=f"cache location (default {default_cache_dir()}"
                            " or $REPRO_SWEEP_CACHE)")
        add_grid_flags(p)

    p_run = sub.add_parser("run", help="execute or resume a sweep")
    common(p_run)
    p_run.add_argument("--jobs", "-j", type=int, default=2,
                       help="worker processes (default 2)")
    p_run.add_argument("--timeout", type=float, default=600.0,
                       help="per-cell timeout in seconds (default 600)")
    p_run.add_argument("--retries", type=int, default=2,
                       help="retries per cell on crash/timeout/error "
                            "(default 2)")
    p_run.add_argument("--backoff", type=float, default=0.25,
                       help="base retry backoff seconds (default 0.25)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    p_run.add_argument("--refresh", action="store_true",
                       help="recompute every cell (still updates the cache)")
    p_run.add_argument("--report", default=None, metavar="PATH",
                       help="machine-readable run report "
                            "(default <cache>/last-run.json)")
    p_run.add_argument("--show-reports", action="store_true",
                       help="print each figure's text report at the end")
    p_run.add_argument("--quiet", "-q", action="store_true",
                       help="suppress per-cell progress lines")

    p_ls = sub.add_parser("ls", help="list cells and cache status")
    common(p_ls)

    p_clean = sub.add_parser("clean", help="delete cache entries")
    common(p_clean)
    p_clean.add_argument("--stale", action="store_true",
                         help="only entries from older code fingerprints")
    return parser


def _progress_printer(total: int, quiet: bool):
    state = {"done": 0}

    def on_event(event):
        kind = event.get("type")
        if kind in ("ok", "cache-hit", "failed"):
            state["done"] += 1
        if quiet:
            return
        prefix = f"[{state['done']:>3}/{total}]"
        if kind == "cache-hit":
            print(f"{prefix} = {event['id']} (cache)", flush=True)
        elif kind == "ok":
            print(f"{prefix} + cell #{event['index']} ok "
                  f"{event['elapsed_s']:.2f}s "
                  f"(worker {event['worker']}, attempt {event['attempt']})",
                  flush=True)
        elif kind == "retry":
            reason = event["reason"].splitlines()[-1]
            print(f"{prefix} ~ cell #{event['index']} retry "
                  f"(attempt {event['attempt']}, "
                  f"backoff {event['backoff_s']:.2f}s): {reason}",
                  flush=True)
        elif kind == "failed":
            reason = event["reason"].splitlines()[-1]
            print(f"{prefix} ! cell #{event['index']} FAILED: {reason}",
                  flush=True)

    return on_event


def _cmd_run(args) -> int:
    config = grid_config(args)
    cache = ResultCache(root=args.cache_dir)
    cells = runner.select_cells(args.filter, config)
    print(f"sweep: {len(cells)} cells, jobs={args.jobs}, "
          f"fingerprint={cache.fingerprint[:12]}", flush=True)
    report = runner.run_sweep(
        filter_expr=args.filter,
        jobs=args.jobs,
        config=config,
        cache=cache,
        use_cache=not args.no_cache,
        refresh=args.refresh,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        on_event=_progress_printer(len(cells), args.quiet),
    )

    totals = report.totals
    print(f"\nsweep done in {totals['wall_s']:.2f}s: "
          f"{totals['ok']}/{totals['cells']} ok, "
          f"{totals['cache_hits']} cached, {totals['computed']} computed, "
          f"{totals['retries']} retries, "
          f"{totals['workers_replaced']} workers replaced, "
          f"utilization {totals['worker_utilization']:.0%}", flush=True)
    print(f"telemetry: queue wait {totals['queue_wait_s']:.2f}s, "
          f"backoff {totals['backoff_s']:.2f}s, "
          f"peak worker RSS {totals['peak_rss_kb_max'] / 1024:.0f} MiB",
          flush=True)

    report_path = args.report
    if report_path is None and not args.no_cache:
        report_path = os.path.join(cache.root, "last-run.json")
    if report_path:
        runner.write_run_report(report, report_path)
        print(f"run report: {report_path}")
    if args.show_reports:
        for name, text in runner.render_reports(report).items():
            print(f"\n===== {name} =====")
            print(text)
    return 0 if totals["failed"] == 0 else 1


def _cmd_ls(args) -> int:
    config = grid_config(args)
    cache = ResultCache(root=args.cache_dir)
    cells = runner.select_cells(args.filter, config)
    hits = 0
    for cell in cells:
        entry = cache.get(cell["scenario"], cell["params"])
        mark = "cached" if entry else "-"
        hits += bool(entry)
        print(f"{mark:>7}  {cell_id(cell['scenario'], cell['params'])}")
    print(f"\n{hits}/{len(cells)} cells cached "
          f"(fingerprint {cache.fingerprint[:12]}, dir {cache.root})")
    return 0


def _cmd_clean(args) -> int:
    cache = ResultCache(root=args.cache_dir)
    scenarios: Optional[list] = None
    if args.filter:
        scenarios = [n for n in scenario_names(include_hidden=True)
                     if re.search(args.filter, n)]
    removed = cache.clean(scenarios=scenarios, stale_only=args.stale)
    print(f"removed {removed} cache entries from {cache.root}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return {"run": _cmd_run, "ls": _cmd_ls, "clean": _cmd_clean}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
