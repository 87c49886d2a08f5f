"""``repro.experiments`` — one module per paper table/figure.

Each module holds the figure's *cell function* (the smallest
independently computable unit — ``fig2_counters.run``,
``fig4_overhead.run_point``, ``fig5_collectives.run_cell``,
``fig6_allgather.run_cell``, ``fig7_cg.run_one``,
``table1_treematch.run_order``), its result dataclass and a
``report(results)`` rendering the rows the paper plots.  Which cells make
up a figure at which scale is defined once, in
:mod:`repro.sweep.registry`; ``python -m repro.experiments NAME`` and
``python -m repro.sweep run`` both loop over that.  See DESIGN.md §5 for
the experiment index and EXPERIMENTS.md for paper-vs-measured results.
"""

import importlib

from repro.experiments.common import full_scale, render_table  # noqa: F401

__all__ = ["full_scale", "render_table", "fig2_counters", "fig4_overhead",
           "fig5_collectives", "fig6_allgather", "fig7_cg", "table1_treematch"]


def __getattr__(name: str):
    """PEP 562: a figure module is imported when first named (DESIGN.md
    "Import rule"), so ``repro.experiments.common`` costs no figure."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
