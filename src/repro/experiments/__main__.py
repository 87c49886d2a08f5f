"""CLI: regenerate a paper experiment in-process and print its report.

Usage::

    python -m repro.experiments fig5
    python -m repro.experiments fig6 --sizes 1,100,10000 --seed 3
    python -m repro.experiments fig7 --smoke
    python -m repro.experiments fig5 --smoke --trace-out fig5.trace
    python -m repro.experiments all

A serial, uncached loop over :mod:`repro.sweep.registry` — enumerate the
scenario's cells, compute each, render — so it prints exactly what
``python -m repro.sweep run --filter '^NAME$' --show-reports`` prints;
use that for cached, parallel, fault-tolerant runs.  ``--trace-out PATH``
records every simulated run as a replay trace (``PATH``, ``PATH.1``, …;
check one with ``python -m repro.replay replay --verify PATH``).  Set
``REPRO_FULL=1`` for the paper-scale grids.
"""

from __future__ import annotations

import argparse
import sys

from repro.replay import autorecord
from repro.sweep.registry import (add_grid_flags, get_scenario, grid_config,
                                  scenario_names)

ALIASES = {"fig3": "fig2"}  # same experiment, cumulative view
# --trace-out cannot serve these: table1 simulates nothing and whatif
# owns the recorder while it runs.
UNRECORDABLE = frozenset({"table1", "whatif"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table/figure of the paper.")
    names = scenario_names()
    parser.add_argument("experiment", choices=[*names, *ALIASES, "all"])
    add_grid_flags(parser)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record every simulated run as a replay trace "
                             "(PATH, then PATH.1, PATH.2, ...)")
    args = parser.parse_args(argv)
    selected = names if args.experiment == "all" else [
        ALIASES.get(args.experiment, args.experiment)]
    if args.trace_out:
        if UNRECORDABLE.intersection(selected):
            parser.error("--trace-out needs a simulated figure: not "
                         "table1, whatif or all")
        autorecord.enable_to(args.trace_out,
                             meta={"workload": args.experiment})
    config = grid_config(args)
    try:
        for name in selected:
            spec = get_scenario(name)
            if args.experiment == "all":
                print(f"===== {name} =====")
            print(spec.report([spec.compute(params)
                               for params in spec.enumerate_cells(config)]))
    finally:
        autorecord.disable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
