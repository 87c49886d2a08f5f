"""Shared fixture: one instrumented + recorded golden workload.

The live run costs a few seconds, so a single session-scoped run
(obs enabled, ambient replay capture) serves every timeline/diagnosis
test; treat the products as read-only.
"""

import pytest

from repro import obs
from repro.replay import autorecord


@pytest.fixture(scope="session")
def _fig5_run():
    from tests.golden.hotpath_workloads import fig5_shaped

    registry, spans = obs.enable()
    try:
        with autorecord.capture(meta={"workload": "fig5_shaped"}) as traces:
            engine, results = fig5_shaped()
    finally:
        obs.disable()
    assert len(traces) == 1
    return engine, spans, traces[0], results, registry.snapshot()["counters"]


@pytest.fixture(scope="session")
def instrumented_fig5(_fig5_run):
    """(engine, spans, trace, results) for fig5_shaped with the obs
    layer enabled and an ambient replay capture active."""
    return _fig5_run[:4]


@pytest.fixture(scope="session")
def fig5_live_counters(_fig5_run):
    """The metrics registry's counters after that run: what the live
    PML hook and the engine counted, independently of the trace."""
    return _fig5_run[4]


@pytest.fixture(scope="session")
def fig5_timelines(instrumented_fig5):
    """(from_run timeline, from_trace timeline) off the shared run."""
    from repro.obs.timeline import Timeline

    engine, spans, trace, _ = instrumented_fig5
    tl_run = Timeline.from_run(engine, spans=spans, trace=trace)
    tl_trace = Timeline.from_trace(trace)
    return tl_run, tl_trace
