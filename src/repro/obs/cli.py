"""``python -m repro.obs`` — observe a simulated run.

Subcommands:

* ``export`` — run one Fig. 5 cell with the observability layer
  enabled and write the Perfetto-loadable Chrome trace (plus,
  optionally, the metrics snapshot and, with ``--trace-out``, the
  replay trace of the run — the file ``top``, ``heatmap``,
  ``--trace-in`` and ``python -m repro.replay`` read); with
  ``--trace-in`` the trace document is built from a recorded replay
  trace instead, no re-simulation;
* ``diagnose`` — build the cross-layer timeline for a cell (live run
  or ``--trace-in``) and run the automated "why is this slow" passes
  (:mod:`repro.obs.diagnose`), printing the findings and optionally
  writing the JSON report and an enriched Chrome trace;
* ``top`` — hottest rank pairs (and, with a metrics snapshot, link
  classes) of a replay trace: every wire message, after collective
  decomposition, monitored or not;
* ``heatmap`` — terminal comm-matrix render of the same matrix (reuses
  :func:`repro.core.viz.render_heatmap`);
* ``validate`` — structural check of an exported trace file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.core.errors import TraceSchemaError
from repro.experiments.common import parse_sizes
from repro.obs.export import (chrome_trace, chrome_trace_from_timeline,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.metrics import dump_snapshot, load_snapshot

_DEFAULT_SIZES = "1_000_000,2_000_000"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser(
        "export", help="run a fig5 cell instrumented; write a Perfetto trace")
    exp.add_argument("--op", choices=["reduce", "bcast"], default="reduce")
    exp.add_argument("--nodes", type=int, default=2,
                     help="PlaFRIM node count (24 ranks per node)")
    exp.add_argument("--sizes", type=parse_sizes, default=None,
                     metavar="N,N,...",
                     help=f"buffer sizes in ints (default {_DEFAULT_SIZES})")
    exp.add_argument("--reps", type=int, default=1)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", default="obs-trace.json",
                     help="Chrome trace output path")
    exp.add_argument("--metrics", default=None, metavar="PATH",
                     help="also write the metrics snapshot as JSON")
    exp.add_argument("--trace-out", default=None, metavar="PATH",
                     help="also write the run's replay trace")
    exp.add_argument("--trace-in", default=None, metavar="PATH",
                     help="build the Perfetto trace from a recorded replay "
                          "trace instead of re-running the cell")

    dia = sub.add_parser(
        "diagnose",
        help='cross-layer "why is this slow" report for a cell or a trace')
    dia.add_argument("--op", choices=["reduce", "bcast"], default="reduce")
    dia.add_argument("--nodes", type=int, default=2,
                     help="PlaFRIM node count (24 ranks per node)")
    dia.add_argument("--sizes", type=parse_sizes, default=None,
                     metavar="N,N,...",
                     help=f"buffer sizes in ints (default {_DEFAULT_SIZES})")
    dia.add_argument("--reps", type=int, default=1)
    dia.add_argument("--seed", type=int, default=0)
    dia.add_argument("--trace-in", default=None, metavar="PATH",
                     help="diagnose a recorded replay trace instead of "
                          "running the cell live")
    dia.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON report")
    dia.add_argument("--chrome", default=None, metavar="PATH",
                     help="also write a Chrome trace enriched with counter "
                          "tracks and the findings lane")
    dia.add_argument("--json", action="store_true",
                     help="print the JSON report instead of the rendering")

    top = sub.add_parser("top", help="hottest rank pairs of a replay trace")
    top.add_argument("trace", help="trace file from --trace-out")
    top.add_argument("-k", type=int, default=10, help="pairs to show")
    top.add_argument("--category", choices=["p2p", "coll", "osc"],
                     default=None)
    top.add_argument("--metrics", default=None, metavar="PATH",
                     help="metrics snapshot: adds a per-link-class section")

    hm = sub.add_parser("heatmap", help="terminal comm-matrix heatmap")
    hm.add_argument("trace", help="trace file from --trace-out")
    hm.add_argument("--category", choices=["p2p", "coll", "osc"],
                    default=None)

    val = sub.add_parser("validate", help="check an exported trace file")
    val.add_argument("path")
    val.add_argument("--ranks", type=int, default=None,
                     help="require one named lane per rank")
    return parser


def _instrumented_cell(args):
    """Run one fig5 cell with obs enabled and the replay recorder on;
    returns the pieces the export/diagnose commands join."""
    from repro.experiments.fig5_collectives import run_cell
    from repro.replay import autorecord
    from repro.simmpi import Cluster, Engine

    sizes = args.sizes if args.sizes is not None else parse_sizes(
        _DEFAULT_SIZES)
    registry, spans = obs.enable()
    try:
        with autorecord.capture(meta={
                "workload": "fig5_cell", "op": args.op,
                "n_nodes": args.nodes, "sizes": list(sizes),
                "reps": args.reps, "seed": args.seed}) as traces:
            cluster = Cluster.plafrim(args.nodes, binding="rr")
            engine = Engine(cluster, seed=args.seed)
            with spans.wall_span("fig5.run_cell",
                                 {"op": args.op, "nodes": args.nodes}):
                points = run_cell(args.op, args.nodes, sizes=sizes,
                                  reps=args.reps, seed=args.seed,
                                  engine=engine)
        return registry, spans, engine, traces[0], points, sizes
    except BaseException:
        obs.disable()
        raise


def _print_points(points, file=None) -> None:
    for p in points:
        print(f"  {p.op} np={p.np_ranks} ints={p.n_ints}: "
              f"{p.t_baseline:.4f}s -> {p.t_reordered:.4f}s "
              f"({p.speedup:.2f}x)", file=file or sys.stdout)


def _cmd_export(args) -> int:
    if args.trace_in:
        from repro.replay.schema import ReplayTrace

        _export_from_trace(args, ReplayTrace.load(args.trace_in))
        return 0

    registry, spans, engine, trace, points, sizes = _instrumented_cell(args)
    try:
        from repro.obs.timeline import Timeline

        tl = Timeline.from_run(engine, spans=spans, trace=trace)
        doc = chrome_trace(
            spans, n_ranks=engine.n_ranks,
            meta={"op": args.op, "nodes": args.nodes,
                  "sizes": list(sizes), "seed": args.seed},
            timeline=tl)
        errors = validate_chrome_trace(doc, n_ranks=engine.n_ranks)
        if errors:  # pragma: no cover - exporter bug guard
            for e in errors:
                print(f"error: {e}")
            return 1
        write_chrome_trace(args.out, doc)
        n_spans = len(spans)
        print(f"{args.out}: {n_spans} spans over {engine.n_ranks} ranks "
              f"(virtual makespan {engine.max_clock:.3f}s, "
              f"{engine.messages} messages)")
        if args.metrics:
            dump_snapshot(args.metrics, registry)
            print(f"{args.metrics}: metrics snapshot")
        if args.trace_out:
            trace.dump(args.trace_out)
            print(f"{args.trace_out}: replay trace, {trace.n_events} events")
        _print_points(points)
        return 0
    finally:
        obs.disable()


def _export_from_trace(args, trace) -> None:
    """Build the Perfetto document from a recorded replay trace."""
    from repro.obs.timeline import Timeline

    tl = Timeline.from_trace(trace)
    doc = chrome_trace_from_timeline(
        tl, meta={"source": args.trace_in,
                  "workload": (trace.meta or {}).get("workload", "?")})
    errors = validate_chrome_trace(doc, n_ranks=tl.world_size)
    if errors:  # pragma: no cover - exporter bug guard
        raise SystemExit("\n".join(f"error: {e}" for e in errors))
    write_chrome_trace(args.out, doc)
    print(f"{args.out}: {len(tl.spans)} spans over {tl.world_size} ranks "
          f"from {args.trace_in} (virtual makespan {tl.makespan:.3f}s, "
          f"no re-simulation)")
    if args.trace_out:
        print("note: --trace-out needs a live run; ignored with --trace-in")
    if args.metrics:
        print("note: --metrics needs a live run; ignored with --trace-in")


def _cmd_diagnose(args) -> int:
    from repro.obs.diagnose import diagnose, render_report, validate_report
    from repro.obs.timeline import Timeline

    if args.trace_in:
        from repro.replay.schema import ReplayTrace

        tl = Timeline.from_trace(ReplayTrace.load(args.trace_in))
        meta = {"trace": args.trace_in}
        # Report to stdout, logs to stderr — the convention every
        # machine-readable subcommand shares (repro.serve stats/query
        # included), so `... --json | jq` always works.
        print(f"diagnosing recorded trace {args.trace_in} "
              f"(no re-simulation)", file=sys.stderr)
    else:
        _, spans, engine, trace, points, sizes = _instrumented_cell(args)
        try:
            tl = Timeline.from_run(engine, spans=spans, trace=trace)
        finally:
            obs.disable()
        meta = {"op": args.op, "nodes": args.nodes,
                "sizes": list(sizes), "seed": args.seed}
        _print_points(points, file=sys.stderr)

    report = diagnose(tl, meta=meta)
    errors = validate_report(report)
    if errors:  # pragma: no cover - report builder bug guard
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    # --json promises a machine-readable stdout: nothing but the doc.
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_report(report))
    if args.report:
        from repro.core.flushio import atomic_write

        with atomic_write(args.report) as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{args.report}: diagnosis report", file=sys.stderr)
    if args.chrome:
        doc = chrome_trace_from_timeline(tl, meta=meta,
                                         findings=report["findings"])
        write_chrome_trace(args.chrome, doc)
        print(f"{args.chrome}: Chrome trace with findings lane",
              file=sys.stderr)
    return 0


def _pair_matrices(args):
    """(world size, bytes, messages) per rank pair of a replay trace,
    for one wire category or all of them."""
    from repro.replay.engine import compile_trace
    from repro.replay.schema import ReplayTrace

    trace = ReplayTrace.load(args.trace)
    book = compile_trace(trace)
    cats = [args.category] if args.category else list(book.total_sizes)
    return (trace.world_size,
            sum(book.total_sizes[c] for c in cats),
            sum(book.total_counts[c] for c in cats))


def _cmd_top(args) -> int:
    import numpy as np

    n, sizes, counts = _pair_matrices(args)
    flat = sizes.ravel()
    order = np.argsort(flat)[::-1][: args.k]
    cat = args.category or "all"
    print(f"top {args.k} rank pairs by bytes "
          f"({cat}, {int(counts.sum())} messages):")
    print(f"{'src':>5} {'dst':>5} {'bytes':>14} {'msgs':>8}")
    for idx in order:
        if flat[idx] == 0:
            break
        src, dst = divmod(int(idx), n)
        print(f"{src:>5} {dst:>5} {int(flat[idx]):>14,} "
              f"{int(counts[src, dst]):>8,}")
    if args.metrics:
        snap = load_snapshot(args.metrics)
        links = {
            k: v for k, v in snap.get("counters", {}).items()
            if k.startswith("repro_net_link_bytes_total")
        }
        if links:
            print("per-link-class bytes:")
            for key, val in sorted(links.items(), key=lambda kv: -kv[1]):
                cls = key.split("link=")[-1].rstrip("}")
                print(f"  {cls:>10} {int(val):>14,}")
    return 0


def _cmd_heatmap(args) -> int:
    from repro.core.viz import render_heatmap

    n, sizes, _ = _pair_matrices(args)
    cat = args.category or "all"
    print(f"byte heatmap ({cat}, {n} ranks):")
    print(render_heatmap(sizes, max_size=n))
    return 0


def _cmd_validate(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:      # not JSON, or not UTF-8 text
            raise TraceSchemaError(
                f"{args.path}: not a Chrome trace ({exc})") from None
    errors = validate_chrome_trace(doc, n_ranks=args.ranks)
    if errors:
        for e in errors:
            print(f"error: {e}")
        return 1
    n_events = sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "X")
    print(f"{args.path}: valid ({n_events} spans)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"export": _cmd_export, "diagnose": _cmd_diagnose,
               "top": _cmd_top, "heatmap": _cmd_heatmap,
               "validate": _cmd_validate}[args.command]
    try:
        return command(args)
    except (OSError, TraceSchemaError) as exc:  # a path, a corrupt file
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
