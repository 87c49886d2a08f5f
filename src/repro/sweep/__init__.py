"""``repro.sweep`` — sharded experiment orchestration.

The paper's evaluation is a grid of scenarios (collective × size ×
cluster × placement policy, Figs. 2–7 + Table 1).  This subsystem runs
that fleet of simulations fast, resumable and fault-tolerant:

* :mod:`repro.sweep.registry` — every experiment decomposed into pure,
  picklable parameter cells;
* :mod:`repro.sweep.executor` — cells on the supervised worker pool
  (:mod:`repro.core.pool`: per-cell timeouts, bounded retries with
  backoff, crashed-worker replacement);
* :mod:`repro.sweep.cache` — a content-addressed JSON result cache
  keyed on (scenario, params, code fingerprint), so re-runs and
  partially failed sweeps resume instead of recomputing;
* :mod:`repro.sweep.runner` — orchestration + run report;
* :mod:`repro.sweep.cli` — ``python -m repro.sweep run|ls|clean``.

See DESIGN.md §4.2 for the architecture and failure semantics.
"""

from repro.sweep.cache import ResultCache, canonical_dumps, cell_key  # noqa: F401
from repro.sweep.executor import (CellOutcome, CellTask,  # noqa: F401
                                  SweepExecutor)
from repro.sweep.registry import (SCENARIOS, ScenarioSpec,  # noqa: F401
                                  SweepConfig, cell_id, get_scenario,
                                  scenario_names)
from repro.sweep.runner import (RunReport, render_reports,  # noqa: F401
                                results_by_scenario, run_sweep,
                                select_cells)
