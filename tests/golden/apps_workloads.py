"""Application-level workloads pinned by ``apps_golden.json``.

The hot-path golden covers collectives and the monitoring session; this
table covers what rides on top: NAS CG under the three Fig. 7 mappings,
the halo-exchange stencil, one smoke-sized cell each of Fig. 2, Fig. 4
and Fig. 6, collective MPI-IO, and one-sided windows.  Every entry
returns ``(engines, results)``: the engines the workload built (most of
the experiment functions build their own — see :func:`built_engines`),
and a JSON-comparable result with every float in ``float.hex`` form.

``apps_golden.json`` was captured from the thread-per-rank engine (the
blocking spellings, before the apps were written as generators);
results, ``engine.switches`` and ``engine.messages`` must match it
exactly.  Run
``python -m tests.golden.apps_workloads`` only to add a workload: it
rewrites the golden file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List

import numpy as np

from repro.simmpi import SUM, Cluster, Engine
from tests.golden.hotpath_workloads import _hx

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "apps_golden.json")


def _hx_all(xs) -> List[str]:
    return [_hx(x) for x in np.asarray(xs).ravel()]


def _fields(obj) -> Dict[str, Any]:
    """A result dataclass with every float spelled exactly."""
    out = {}
    for key, value in dataclasses.asdict(obj).items():
        if isinstance(value, np.ndarray):
            out[key] = _hx_all(value)
        elif isinstance(value, float):
            out[key] = _hx(value)
        else:
            out[key] = value
    return out


@contextlib.contextmanager
def built_engines():
    """Collect every Engine constructed inside the block, in order."""
    made: List[Engine] = []
    init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    Engine.__init__ = recording_init
    try:
        yield made
    finally:
        Engine.__init__ = init


def _fig7(mapping):
    def build():
        from repro.experiments import fig7_cg

        with built_engines() as engines:
            point = fig7_cg.run_one("S", 16, mapping, seed=0)
        return engines, _fields(point)

    return build


def stencil():
    from repro.apps.stencil import StencilConfig, run_stencil

    engine = Engine(Cluster.plafrim(2, n_ranks=12, binding="rr"), seed=0)

    def program(comm):
        stats = run_stencil(comm, StencilConfig(tile=16), 4)
        return {k: v if isinstance(v, int) else _hx(v)
                for k, v in stats.items()}

    return [engine], engine.run(program)


def stencil_reordered():
    """The whole Fig. 1 loop (``reorder_iterative``) around the stencil,
    with a payload to redistribute."""
    from repro.apps.stencil import (StencilConfig, stencil_iteration,
                                    stencil_setup)
    from repro.placement.reorder import reorder_iterative

    engine = Engine(Cluster.plafrim(2, n_ranks=12, binding="rr"), seed=0)

    def program(comm):
        cfg = StencilConfig(tile=256, numeric=False, compute_rate=2e12)
        states = {}

        def iteration(it, c):
            if c.id not in states:
                states[c.id] = stencil_setup(c, cfg)
            stencil_iteration(c, states[c.id], it)

        opt, k = reorder_iterative(comm, iteration, max_it=4,
                                   payload=np.full(4, float(comm.rank)))
        return [int(k[comm.rank]), opt.rank, _hx(comm.time)]

    return [engine], engine.run(program)


def stencil_reordered_co():
    """:func:`stencil_reordered` written against the ``co_*`` API, with
    a generator iteration callback."""
    from repro.apps.stencil import (StencilConfig, co_stencil_iteration,
                                    stencil_setup)
    from repro.placement.reorder import co_reorder_iterative

    engine = Engine(Cluster.plafrim(2, n_ranks=12, binding="rr"), seed=0)

    def program(comm):
        cfg = StencilConfig(tile=256, numeric=False, compute_rate=2e12)
        states = {}

        def iteration(it, c):
            if c.id not in states:
                states[c.id] = stencil_setup(c, cfg)
            yield from co_stencil_iteration(c, states[c.id], it)

        opt, k = yield from co_reorder_iterative(
            comm, iteration, max_it=4, payload=np.full(4, float(comm.rank)))
        return [int(k[comm.rank]), opt.rank, _hx((yield from comm.co_time()))]

    return [engine], engine.run(program)


def fig2_cell():
    from repro.experiments import fig2_counters

    with built_engines() as engines:
        result = fig2_counters.run(duration=3.0, seed=42)
    return engines, _fields(result)


def fig4_cell():
    from repro.experiments import fig4_overhead

    with built_engines() as engines:
        point = fig4_overhead.run_point(2, 100, reps=4, seed=0)
    return engines, _fields(point)


def fig6_cell():
    from repro.experiments import fig6_allgather

    with built_engines() as engines:
        cell = fig6_allgather.run_cell(2, 100, 10, seed=0)
    return engines, _fields(cell)


def _io_cluster():
    return Cluster.plafrim(2, n_ranks=16, binding="rr", jitter=0.05)


def _io_result(times, raw):
    return [_hx_all(times), hashlib.sha256(raw or b"").hexdigest()]


def io_collective():
    """Collective and independent MPI-IO under monitoring and jitter."""
    from repro.simmpi.io import File

    engine = Engine(_io_cluster(), seed=5)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me = comm.rank
        f = File.open(comm, "golden.dat")
        f.write_at_all(0, np.full(8, float(me)))
        t_write = comm.time
        f.write_at(4096 + 1000 * me, None, nbytes=100 * (me + 1))
        raw = f.read_at_all(0, 64)
        t_read = comm.time
        f.close()
        return _io_result([t_write, t_read, comm.time], raw)

    return [engine], engine.run(program)


def io_collective_co():
    """:func:`io_collective` written against the ``co_*`` API."""
    from repro.simmpi.io import File

    engine = Engine(_io_cluster(), seed=5)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me = comm.rank
        f = yield from File.co_open(comm, "golden.dat")
        yield from f.co_write_at_all(0, np.full(8, float(me)))
        t_write = yield from comm.co_time()
        yield from f.co_write_at(4096 + 1000 * me, None,
                                 nbytes=100 * (me + 1))
        raw = yield from f.co_read_at_all(0, 64)
        t_read = yield from comm.co_time()
        yield from f.co_close()
        t_end = yield from comm.co_time()
        return _io_result([t_write, t_read, t_end], raw)

    return [engine], engine.run(program)


def _osc_result(got, local, time):
    return [_hx_all(got), _hx_all(local), _hx(time)]


def osc_window():
    """put / get / accumulate between fences, monitored."""
    engine = Engine(_io_cluster(), seed=9, monitoring_overhead=1e-6)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        win = comm.win_create(np.arange(4, dtype=np.float64) + me)
        win.put(np.full(4, float(me)), target=(me + 1) % n)
        win.fence()
        got = win.get((me + 2) % n)
        win.fence()
        win.accumulate(np.ones(4), target=(me + 3) % n, op=SUM)
        win.fence()
        local = win.local()
        win.free()
        return _osc_result(got, local, comm.time)

    return [engine], engine.run(program)


def osc_window_co():
    """:func:`osc_window` written against the ``co_*`` API."""
    engine = Engine(_io_cluster(), seed=9, monitoring_overhead=1e-6)

    def program(comm):
        comm.engine.pml.set_mode(2)
        me, n = comm.rank, comm.size
        win = yield from comm.co_win_create(
            np.arange(4, dtype=np.float64) + me)
        yield from win.co_put(np.full(4, float(me)), target=(me + 1) % n)
        yield from win.co_fence()
        got = yield from win.co_get((me + 2) % n)
        yield from win.co_fence()
        yield from win.co_accumulate(np.ones(4), target=(me + 3) % n, op=SUM)
        yield from win.co_fence()
        local = win.local()
        yield from win.co_free()
        return _osc_result(got, local, (yield from comm.co_time()))

    return [engine], engine.run(program)


WORKLOADS: Dict[str, Any] = {
    "fig7_cg_S16_rr": _fig7("rr"),
    "fig7_cg_S16_random": _fig7("random"),
    "fig7_cg_S16_standard": _fig7("standard"),
    "stencil": stencil,
    "stencil_reordered": stencil_reordered,
    "fig2_cell": fig2_cell,
    "fig4_cell": fig4_cell,
    "fig6_cell": fig6_cell,
    "io_collective": io_collective,
    "osc_window": osc_window,
}

#: Generator spellings of the workloads above, pinned to the same entry.
WORKLOADS_CO: Dict[str, Any] = {
    "stencil_reordered": stencil_reordered_co,
    "io_collective": io_collective_co,
    "osc_window": osc_window_co,
}


def snapshot(engines, results) -> Dict[str, Any]:
    """What the golden pins for one workload."""
    return {
        "results": results,
        "switches": [e.switches for e in engines],
        "messages": [e.messages for e in engines],
        "max_clock": [_hx(e.max_clock) for e in engines],
    }


def main() -> None:
    data = {}
    for name, build in WORKLOADS.items():
        data[name] = snapshot(*build())
        print(f"{name}: switches={data[name]['switches']} "
              f"messages={data[name]['messages']}")
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
