"""Shared infrastructure for the per-figure experiment drivers.

Cluster presets mirror the paper's testbeds; ``full_scale()`` gates the
paper-scale parameter grids behind the ``REPRO_FULL`` environment
variable (the default grids are scaled down so the whole benchmark
suite runs in minutes on a laptop — the *shapes* are identical, see
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import contextlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "full_scale",
    "Series",
    "render_table",
    "geomean",
    "parse_sizes",
    "experiment_parser",
    "handle_trace_in",
    "trace_capture",
]


def full_scale() -> bool:
    """True when REPRO_FULL=1: run the paper-scale grids."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


@dataclass
class Series:
    """One labelled series of (x, y) points, as plotted in a figure."""

    label: str
    x: List[Any] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, x: Any, y: float) -> None:
        self.x.append(x)
        self.y.append(float(y))

    def as_rows(self) -> List[tuple]:
        return list(zip(self.x, self.y))


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Fixed-width text table (the bench harness prints these)."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.4g}"
    return str(v)


def parse_sizes(text: str) -> Tuple[int, ...]:
    """``"1000,2e6,5_000"`` → ``(1000, 2000000, 5000)``.

    Accepts comma-separated integers with ``_`` separators or scientific
    notation (``2e8``), matching how the paper states its grids.
    """
    out = []
    for token in text.split(","):
        token = token.strip().replace("_", "")
        if not token:
            continue
        value = float(token)
        if value != int(value):
            raise argparse.ArgumentTypeError(f"size {token!r} is not an integer")
        out.append(int(value))
    if not out:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return tuple(out)


def experiment_parser(
    prog: str,
    description: str,
    sizes_help: str = "comma-separated grid of sizes (module default if omitted)",
    default_seed: Optional[int] = 0,
) -> argparse.ArgumentParser:
    """The shared CLI skeleton for every ``experiments/fig*.py`` driver.

    Every driver accepts ``--seed`` and ``--sizes`` with the same
    spelling and semantics, so the sweep registry
    (:mod:`repro.sweep.registry`) can enumerate any experiment's grid
    without duplicating per-script defaults.  Drivers add their own
    experiment-specific options on top.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    seed_note = "module default" if default_seed is None else str(default_seed)
    parser.add_argument("--seed", type=int, default=default_seed,
                        help=f"RNG seed (default {seed_note})")
    parser.add_argument("--sizes", type=parse_sizes, default=None,
                        metavar="N,N,...", help=sizes_help)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record every simulated run inside this driver "
                             "to PATH as a replay trace (subsequent runs go "
                             "to PATH.1, PATH.2, ...)")
    parser.add_argument("--trace-in", default=None, metavar="PATH",
                        help="skip the live simulation: load a recorded "
                             "replay trace, re-cost it through the network "
                             "model (verified bit-exact) and print a summary")
    # Recorded traces carry the workload name in their header metadata.
    parser.set_defaults(_prog=prog)
    return parser


def handle_trace_in(args: argparse.Namespace, consumer=None) -> bool:
    """Serve ``--trace-in``: consume a recorded trace instead of
    running live.

    Call first thing in a driver's ``main``; a True return means the
    run was served from the trace and the driver should exit.  The
    default consumer replays the trace *verified* (every recomputed
    clock cross-checked against the recorded one), so a stale or
    corrupted trace fails loudly rather than printing plausible
    numbers.  Tools that want the trace itself (``repro.obs export
    --trace-in`` / ``diagnose --trace-in``) pass a ``consumer`` called
    with the loaded :class:`~repro.replay.schema.ReplayTrace`; its
    return value is ignored — the shared code only owns the
    load-and-dispatch step.
    """
    path = getattr(args, "trace_in", None)
    if not path:
        return False
    from repro.replay.schema import ReplayTrace

    trace = ReplayTrace.load(path)
    if consumer is not None:
        consumer(trace)
        return True
    from repro.replay.engine import replay

    res = replay(trace, verify=True)
    total = int(res.byte_matrix().sum())
    meta = trace.meta or {}
    workload = meta.get("workload", "?")
    print(f"replayed {path} (workload {workload}): "
          f"{trace.world_size} ranks, {trace.n_events} events, "
          f"{res.n_messages} messages, {total} bytes on the wire")
    print(f"  makespan {res.max_clock:.6f}s (bit-exact vs recorded run)")
    return True


@contextlib.contextmanager
def trace_capture(args: argparse.Namespace):
    """Honour ``--trace-out`` around a driver body (no-op without it)."""
    path = getattr(args, "trace_out", None)
    if not path:
        yield
        return
    from repro.replay import autorecord

    # "python -m repro.experiments.fig5_collectives" -> "fig5_collectives"
    prog = getattr(args, "_prog", "experiment")
    meta = {"workload": prog.rsplit(".", 1)[-1]}
    autorecord.enable_to(path, meta=meta)
    try:
        yield
    finally:
        autorecord.disable()
    print(f"trace(s) recorded to {path}")


def geomean(values: Sequence[float]) -> float:
    import numpy as np

    vals = np.asarray([v for v in values if v > 0], dtype=float)
    if len(vals) == 0:
        return float("nan")
    return float(np.exp(np.log(vals).mean()))
