"""Process-local metrics registry: counters, gauges, histograms.

The registry is deliberately tiny — no wire formats, no background
threads, no locks (the simulator's baton guarantees single-writer
access, and the sweep layer aggregates per-process snapshots itself).
Instruments are looked up by ``(name, labels)``; repeated lookups
return the same object, so hot code can resolve an instrument once and
then mutate a plain attribute.

Disabled mode is a *structural* no-op: :data:`NOOP_REGISTRY` hands out
the shared :data:`NOOP_COUNTER` / :data:`NOOP_GAUGE` /
:data:`NOOP_HISTOGRAM` singletons whose mutators do nothing and whose
snapshot is empty.  Code that resolves instruments through
:func:`repro.obs.registry` therefore needs no per-call enabled check.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NoopCounter", "NoopGauge", "NoopHistogram", "NoopRegistry",
    "NOOP_COUNTER", "NOOP_GAUGE", "NOOP_HISTOGRAM", "NOOP_REGISTRY",
    "DEFAULT_BUCKETS", "SNAPSHOT_SCHEMA", "dump_snapshot", "load_snapshot",
]

#: On-disk metrics-snapshot format version.  The in-memory
#: :meth:`MetricsRegistry.snapshot` shape is unversioned (it has
#: in-process consumers asserting its exact keys); only the JSON file
#: carries the ``"schema"`` field, the same discipline as the replay
#: trace and flush-profile formats.
SNAPSHOT_SCHEMA = 1

#: Powers-of-two upper bounds, a reasonable default for counts/depths.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Counter:
    """Monotonically increasing value (ints or float totals)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """Last-written value (plus a running-max convenience)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies observations
    ``<= uppers[i]``, with one overflow slot past the last bound."""

    __slots__ = ("uppers", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        uppers = tuple(float(b) for b in buckets)
        if not uppers or any(a >= b for a, b in zip(uppers, uppers[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.uppers = uppers
        self.counts = [0] * (len(uppers) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.uppers, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Families of labelled instruments, keyed by metric name."""

    def __init__(self):
        # name -> (kind, {sorted-label-items: instrument})
        self._families: Dict[str, Tuple[str, Dict[Tuple, Any]]] = {}

    def _child(self, name: str, kind: str, labels: Dict[str, Any],
               factory, *args):
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = (kind, {})
        elif fam[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {fam[0]}, "
                f"not a {kind}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        inst = fam[1].get(key)
        if inst is None:
            inst = fam[1][key] = factory(*args)
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._child(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._child(name, "gauge", labels, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._child(name, "histogram", labels, Histogram,
                           buckets if buckets is not None else DEFAULT_BUCKETS)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able dump: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with ``name{k=v,...}`` keys."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name, (kind, children) in sorted(self._families.items()):
            for key, inst in sorted(children.items()):
                label = name if not key else (
                    name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}")
                if kind == "counter":
                    out["counters"][label] = inst.value
                elif kind == "gauge":
                    out["gauges"][label] = inst.value
                else:
                    out["histograms"][label] = {
                        "buckets": list(inst.uppers),
                        "counts": list(inst.counts),
                        "sum": inst.sum,
                        "count": inst.count,
                    }
        return out


# -- snapshot files --------------------------------------------------------


def dump_snapshot(path: str, registry_or_snap: Any) -> None:
    """Write a metrics snapshot as schema-versioned JSON, atomically.

    Accepts a registry (``snapshot()`` is called) or an already-built
    snapshot dict; the file gains a ``"schema"`` field on top of the
    snapshot's ``counters``/``gauges``/``histograms`` sections."""
    from repro.core.flushio import atomic_write

    snap = (registry_or_snap.snapshot()
            if hasattr(registry_or_snap, "snapshot") else registry_or_snap)
    doc = {"schema": SNAPSHOT_SCHEMA}
    doc.update(snap)
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load a metrics snapshot JSON written by :func:`dump_snapshot`.

    Raises :class:`repro.core.errors.TraceSchemaError` on a file that
    is not JSON, whose ``counters`` is not an object of finite numbers,
    or whose schema this reader does not understand; legacy files
    without a ``"schema"`` field still load, with a warning."""
    from repro.core.errors import TraceSchemaError

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:          # not JSON, or not UTF-8 text
        raise TraceSchemaError(
            f"{path}: not a metrics snapshot ({exc})") from None
    counters = doc.get("counters") if isinstance(doc, dict) else None
    if not isinstance(counters, dict) or not all(
            isinstance(v, (int, float)) and math.isfinite(v)
            for v in counters.values()):
        raise TraceSchemaError(f"{path}: not a metrics snapshot "
                               "(counters must be an object of numbers)")
    schema = doc.get("schema")
    if schema is None:
        warnings.warn(f"{path}: legacy metrics snapshot without a schema "
                      f"field; assuming schema={SNAPSHOT_SCHEMA}",
                      stacklevel=2)
    elif schema != SNAPSHOT_SCHEMA:
        raise TraceSchemaError(
            f"{path}: metrics snapshot schema={schema}, this reader "
            f"understands schema={SNAPSHOT_SCHEMA}")
    return doc


# -- disabled mode ---------------------------------------------------------


class NoopCounter:
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class NoopGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class NoopHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_HISTOGRAM = NoopHistogram()


class NoopRegistry:
    """Same surface as :class:`MetricsRegistry`, zero state."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> NoopCounter:
        return NOOP_COUNTER

    def gauge(self, name: str, **labels) -> NoopGauge:
        return NOOP_GAUGE

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> NoopHistogram:
        return NOOP_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_REGISTRY = NoopRegistry()
