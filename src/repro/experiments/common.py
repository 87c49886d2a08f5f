"""Shared infrastructure for the per-figure experiment modules.

``full_scale()`` gates the paper-scale parameter grids behind the
``REPRO_FULL`` environment variable (the default grids are scaled down
so every figure regenerates in minutes on a laptop — the *shapes* are
identical, see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Iterable, Sequence, Tuple

__all__ = [
    "full_scale",
    "render_table",
    "parse_sizes",
    "experiment_parser",
]


def full_scale() -> bool:
    """True when REPRO_FULL=1: run the paper-scale grids."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


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
) -> argparse.ArgumentParser:
    """The CLI skeleton the ``repro.apps.*`` demo mains share: ``--seed``
    and ``--sizes`` with one spelling and one size syntax
    (:func:`parse_sizes`); each demo adds its own options on top."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    parser.add_argument("--sizes", type=parse_sizes, default=None,
                        metavar="N,N,...", help=sizes_help)
    return parser
