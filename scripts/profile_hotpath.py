"""Profile the simulator hot path.

Prints the top functions for one of the golden hot-path workloads, in
its generator spelling (:mod:`tests.golden.hotpath_workloads_ev`): every
rank continuation resumes on the calling thread, so one ``cProfile``
around the workload sees everything.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py [workload] [top_n]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    from tests.golden.hotpath_workloads_ev import WORKLOADS_EV

    parser = argparse.ArgumentParser(
        prog="python scripts/profile_hotpath.py",
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", nargs="?", default="fig5_shaped",
                        choices=sorted(WORKLOADS_EV))
    parser.add_argument("top_n", nargs="?", type=int, default=20)
    args = parser.parse_args()

    prof = cProfile.Profile()
    prof.enable()
    try:
        engine, _ = WORKLOADS_EV[args.workload]()
    finally:
        prof.disable()

    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    print(f"\n{args.workload}: {engine.messages} messages, "
          f"{engine.switches} switches, max_clock={engine.max_clock:.6g}")
    print(f"top {args.top_n} by cumulative time:\n")
    stats.print_stats(args.top_n)


if __name__ == "__main__":
    main()
