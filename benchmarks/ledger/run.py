#!/usr/bin/env python3
"""The repo's benchmark: simulate → record → advise → serve, one command.

    python3 benchmarks/ledger/run.py --workload sim_coll --seed 0 \\
            --seconds 15 --trace 0

runs one workload and prints one line per metric (workload, name,
value, unit, direction, sample count, quartiles) and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``; one a workload does not exercise
reads 0).  Without ``--workload`` every workload runs, each in a
process of its own so that peak RSS and pinning are per workload.
``python -m benchmarks.ledger.run`` from the repo root is the same
program.  README.md in this directory explains the workloads, the
metrics and the method.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.ledger import advice, serve, sim  # noqa: E402
from benchmarks.ledger.harness import (Ctx, Outcome, Spans, Stat,  # noqa: E402
                                       peak_rss_mb, pin_plan, timed)

RESULT_SCHEMA = 1
CPUS_ALLOWED = sorted(os.sched_getaffinity(0))  # before the harness pins
#: Set-up is repeated so that ``setup_s`` is a median, not one reading.
SETUP_REPEATS = 3
#: ``--seed`` may be any whole number; the programs' generators take 32
#: bits, and the workloads count upward from the seed they are given.
SEED_SPACE = 1 << 31
WORKLOADS = {w.name: w for w in
             (*sim.WORKLOADS, *advice.WORKLOADS, *serve.WORKLOADS)}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly: the driver's
    checkout is not a repository, and asking git would search upward."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _scratch() -> str:
    """The run's only scratch directory, inside the checkout (the driver
    allows no writes outside it) and git-ignored."""
    base = os.path.join(ROOT, ".bench_scratch")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def _drop_scratch(tmpdir: str) -> None:
    shutil.rmtree(tmpdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(tmpdir))
    except OSError:
        pass  # another run still has its directory there


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, args, tmpdir: str) -> Outcome:
    cpus = pin_plan()
    os.sched_setaffinity(0, {cpus["harness"]})
    workload = WORKLOADS[name]
    ctx = Ctx(seed=args.seed % SEED_SPACE, seconds=args.seconds,
              quick=args.quick, traced=bool(args.trace), tmpdir=tmpdir,
              cpus=cpus, spans=Spans(name, enabled=False))
    out = Outcome()
    out.info["cpus"] = cpus
    import_s, _ = timed(workload.imports)
    try:
        setups: List[float] = []
        for i in range(1 if args.quick else SETUP_REPEATS):
            if i:
                workload.teardown(ctx, None)
            setups.append(import_s + timed(workload.setup, ctx)[0])
        out.put("setup_s", setups)
        workload.measure(ctx, out)
        if ctx.traced:
            ctx.spans.enabled = True
            workload.trace(ctx, out)
    finally:
        workload.teardown(ctx, out)
    out.put("peak_rss_mb", peak_rss_mb(children=name == "serve"))
    out.put("fail_ratio", out.failed / max(out.attempted, 1))
    out.info["spans"] = ctx.spans.rows
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(name: str, out: Outcome, catalog: Dict[str, Dict[str, Any]]) -> Dict:
    """Print one line per metric and return the workload's result record."""
    rows = {}
    for metric, st in out.metrics.items():
        spec = catalog[metric]  # a KeyError here: add it to BENCHMARK.json
        print(f"{name:<10} {metric:<34} {_fmt(st.value):>12} {spec['unit']:<9}"
              f" {spec['better']:<6} n={st.n:<3} q1={_fmt(st.q1)}"
              f" q3={_fmt(st.q3)}")
        rows[metric] = {"value": st.value, "unit": spec["unit"],
                        "better": spec["better"], "n": st.n,
                        "median": st.median, "q1": st.q1, "q3": st.q3,
                        "min": st.min, "max": st.max}
        if "bound" in spec:
            rows[metric]["bound"] = spec["bound"]
    for why in out.failures:
        print(f"{name:<10} FAILED {why}")
    return {"metrics": rows, "attempted": out.attempted, "failed": out.failed,
            "failures": out.failures, "info": out.info}


def contract_line(out: Outcome, listed: List[Dict[str, Any]]) -> str:
    metrics = {}
    for spec in listed:
        st: Optional[Stat] = out.metrics.get(spec["name"])
        value = st.value if st is not None else 0.0
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                       "failed": out.failed, "metrics": metrics})


def result_doc(args, workloads: Dict[str, Dict]) -> Dict[str, Any]:
    return {
        "schema": RESULT_SCHEMA,
        "host": {"nproc": os.cpu_count(),
                 "cpus_allowed": CPUS_ALLOWED,
                 "python": platform.python_version(),
                 "platform": platform.platform(),
                 "commit": _commit()},
        "args": {"seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "quick": args.quick},
        "workloads": workloads,
        # This benchmark defines the numbers; it claims no gain.
        "claim": None,
    }


def _write(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry


def run_each_in_own_process(names: List[str], args, tmpdir: str) -> Dict:
    workloads = {}
    for name in names:
        path = os.path.join(tmpdir, f"{name}.json")
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "-o", path] + (["--quick"] if args.quick else [])
        subprocess.run(cmd, check=True)
        with open(path, encoding="utf-8") as fh:
            workloads.update(json.load(fh)["workloads"])
    return workloads


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0,
                        help="reaches the program only as generated inputs")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also make the traced run and fill the "
                             "per-layer ledger")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the self-test only; never "
                             "for reported numbers")
    parser.add_argument("-o", "--output", metavar="RESULTS.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"{ROOT} holds no src/repro: nothing to benchmark",
              file=sys.stderr)
        return 2

    names = args.workload or list(WORKLOADS)
    tmpdir = _scratch()
    try:
        if len(names) > 1:
            workloads = run_each_in_own_process(names, args, tmpdir)
            last_line = None
        else:
            catalog = {m["name"]: m
                       for m in spec["end_to_end"] + spec["per_layer"]}
            out = run_workload(names[0], args, tmpdir)
            workloads = {names[0]: report(names[0], out, catalog)}
            last_line = contract_line(
                out, spec["per_layer" if args.trace else "end_to_end"])
        if args.output:
            _write(args.output, result_doc(args, workloads))
        if last_line:
            print(last_line, flush=True)
    finally:
        _drop_scratch(tmpdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
