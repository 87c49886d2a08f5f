"""Plumbing shared by the ledger workloads: CPU pinning, sample
statistics, spans, digests, and the per-workload outcome record.

Nothing here imports ``repro``; the workloads do that themselves so
the import cost lands in their ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: What a child process needs on PYTHONPATH to import ``repro``.
SRC = os.path.join(ROOT, "src")

#: A timed phase keeps at least this many samples, whatever ``--seconds``
#: says: a median of fewer is a single reading.
MIN_SAMPLES = 3


# ---------------------------------------------------------------------------
# host


def pin_plan() -> Dict[str, int]:
    """CPUs for the harness and for a daemon it spawns.  The simulator
    is logically single-threaded, and an unpinned thread-per-rank run is
    bimodal on a multi-core host (README, "Pinning"), so the harness
    owns one CPU; the serve daemon gets a different one when there is
    one."""
    cpus = sorted(os.sched_getaffinity(0))
    return {"harness": cpus[0], "daemon": cpus[1] if len(cpus) > 1 else cpus[0]}


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process in MiB; with ``children`` the
    largest waited-for descendant (daemon or worker) is added."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# statistics


@dataclass
class Stat:
    """A reported number and the ``n`` samples behind it.

    ``value`` is what the benchmark reports.  For host time it is the
    *best* sample (fastest pass, highest rate), not the median: on a
    shared host interference only ever adds time, so the least
    disturbed sample repeats from run to run where the median drifts
    with the neighbours (README, "Noise").  The median and quartiles
    of the same samples are kept beside it.
    """

    value: float
    n: int
    median: float
    q1: float
    q3: float
    min: float
    max: float


def stat(samples: Iterable[float],
         pick: Callable[[List[float]], float] = statistics.median) -> Stat:
    xs = [float(x) for x in samples]
    q1, q3 = (xs[0], xs[0]) if len(xs) == 1 \
        else statistics.quantiles(xs, n=4)[::2]
    return Stat(pick(xs), len(xs), statistics.median(xs), q1, q3,
                min(xs), max(xs))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    xs = sorted(values)
    return xs[min(len(xs) - 1, int(round(q * (len(xs) - 1))))]


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def unit_cost_us(loop: Callable[[Any], int],
                 prepare: Callable[[], Any] = lambda: None,
                 repeats: int = 5) -> float:
    """Median µs per iteration of ``loop(prepare())``; only the loop is
    timed, and it returns how many iterations it made."""
    costs = []
    for _ in range(repeats):
        arg = prepare()
        t0 = time.perf_counter()
        n = loop(arg)
        costs.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(costs)


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall τ-a of two equally long score lists."""
    pairs = [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))]
    s = sum(_sign(xs[i] - xs[j]) * _sign(ys[i] - ys[j]) for i, j in pairs)
    return s / len(pairs)


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# digests


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON of ``obj``; floats must already be
    spelled exactly (see :func:`fhex`)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def fhex(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# spans


class Spans:
    """In-memory spans around the harness's own calls into a layer.

    Off by default: end-to-end metrics are measured without them, and
    ``span`` is then a bare ``yield``."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        row = {"name": name, "workload": self.workload,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()


# ---------------------------------------------------------------------------
# one workload's run


@dataclass
class Ctx:
    """What a workload is given: only generated inputs reach the program."""

    seed: int
    seconds: float
    quick: bool
    traced: bool
    tmpdir: str
    cpus: Dict[str, int]
    spans: Spans

    @property
    def measure_seconds(self) -> float:
        """The untraced phase gets the whole budget, or half of it when a
        traced phase follows in the same run."""
        return self.seconds / 2 if self.traced else self.seconds

    @property
    def min_samples(self) -> int:
        """Reported medians rest on MIN_SAMPLES; the self-test and the
        traced run's reference reading make do with one."""
        return 1 if self.quick or self.traced else MIN_SAMPLES


@dataclass
class Outcome:
    metrics: Dict[str, Stat] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value, pick=statistics.median) -> None:
        """Report ``name`` from one reading or a list of samples; ``pick``
        (``min`` for host seconds, ``max`` for host rates) chooses the
        reported value among them."""
        if name in self.metrics:
            raise KeyError(f"metric {name} reported twice")
        self.metrics[name] = stat(
            value if isinstance(value, (list, tuple)) else [value], pick)

    def value(self, name: str) -> float:
        return self.metrics[name].value

    def op(self, ok: bool, why: str = "") -> bool:
        """Count one operation; a wrong output is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(why)
        return ok

    def ops(self, attempted: int, failures: Sequence[str] = ()) -> None:
        """Count a batch of operations, ``failures`` of which went wrong."""
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)

    def guarded(self, what: str, fn: Callable, *args,
                check: Optional[Callable[[Any], bool]] = None, **kwargs):
        """Call ``fn`` as one operation: it fails if it raises or if
        ``check(result)`` is false.  Returns the result, or None when
        ``fn`` raised."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run must go on and report it
            self.op(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.op(check is None or bool(check(result)), f"{what}: wrong output")
        return result


def rounds(seconds: float, body: Callable[[int], None],
           minimum: int = MIN_SAMPLES) -> int:
    """Repeat ``body(i)`` until ``seconds`` are used, never starting a
    round that would overrun once ``minimum`` rounds are done."""
    t0 = time.perf_counter()
    walls: List[float] = []
    while True:
        r0 = time.perf_counter()
        body(len(walls))
        walls.append(time.perf_counter() - r0)
        spent = time.perf_counter() - t0
        if len(walls) >= minimum and \
                spent + statistics.median(walls) > seconds:
            return len(walls)


def engine_core_kwargs(core: str) -> Dict[str, str]:
    """``{"core": core}`` while ``Engine`` still has the knob, so the
    "one engine core" item can delete it without editing this benchmark."""
    import inspect

    from repro.simmpi import Engine

    return {"core": core} \
        if "core" in inspect.signature(Engine).parameters else {}
