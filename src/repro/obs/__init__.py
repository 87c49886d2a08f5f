"""repro.obs — the unified observability layer.

Four pillars:

* **metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  published by the engine, network, monitoring component, and session
  runtime;
* **spans** (:mod:`repro.obs.spans` + :mod:`repro.obs.export`) —
  begin/end tracing over *virtual* time (collectives, reorder phases,
  app iterations) plus a wall-clock self-profile lane, exported as
  Chrome trace-event JSON for Perfetto (with cross-layer counter
  tracks and a diagnosis-findings lane);
* **analysis** (:mod:`repro.obs.timeline` + :mod:`repro.obs.diagnose`)
  — the columnar cross-layer timeline store joining spans, NIC/link
  counter series and PML epochs on virtual time, plus the automated
  "why is this slow" diagnosis passes;
* **surfaces** — the ``python -m repro.obs`` CLI (``export`` /
  ``diagnose`` / ``top`` / ``heatmap`` / ``validate``) and the sweep
  run report's per-cell telemetry.

The layer is **disabled by default** and near-free when off (a flag
read at ``Engine`` construction); an engine built while it is on
records its run, and obs reads its counters and spans from the rows.
Turn it on with ``REPRO_OBS=1`` in the environment
(read once at import) or programmatically::

    from repro import obs
    registry, spans = obs.enable()
    engine = Engine(cluster)        # built *after* enable()
    engine.run(program)
    print(registry.snapshot())

:func:`registry` always returns a usable object — the live registry
when enabled, the shared no-op singleton otherwise — so cold call
sites record unconditionally.  :func:`spans` returns ``None`` when
disabled; span call sites are expected to check (they sit closer to
hot paths).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.spans import SpanRecorder

__all__ = ["is_enabled", "enable", "disable", "registry", "spans"]

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "0").strip().lower() in _TRUTHY


_enabled: bool = _env_enabled()
_registry: Optional[MetricsRegistry] = MetricsRegistry() if _enabled else None
_spans: Optional[SpanRecorder] = SpanRecorder() if _enabled else None


def is_enabled() -> bool:
    return _enabled


def enable(fresh: bool = True) -> Tuple[MetricsRegistry, SpanRecorder]:
    """Turn the layer on; returns ``(registry, span_recorder)``.

    ``fresh=True`` (default) starts empty collectors; ``fresh=False``
    keeps any existing ones (resuming after a :func:`disable`).  Only
    engines built *while enabled* are instrumented.
    """
    global _enabled, _registry, _spans
    if fresh or _registry is None:
        _registry = MetricsRegistry()
        _spans = SpanRecorder()
    _enabled = True
    return _registry, _spans


def disable() -> None:
    """Turn the layer off (existing engines keep their references)."""
    global _enabled
    _enabled = False


def registry() -> MetricsRegistry:
    """The live registry, or the no-op singleton when disabled."""
    return _registry if _enabled else NOOP_REGISTRY


def spans() -> Optional[SpanRecorder]:
    """The live span recorder, or ``None`` when disabled."""
    return _spans if _enabled else None
