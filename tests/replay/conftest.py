"""Shared fixtures: record the golden fig5-shaped workload once.

The live run costs a few seconds, so one session-scoped recording
serves every replay test; treat the trace as read-only.  Tests that
hand-build a trace spell its events as tuples and pass
``columns_of(events)``.
"""

import pytest

from repro.replay import autorecord
from repro.replay.schema import (CAT_CODE, K_B, K_E, K_F, K_R, K_S, KINDS,
                                 RowPacker, TraceColumns)


def _row(ev: tuple, colls: dict) -> tuple:
    """An event tuple as its row (the inverse of ``schema._decode``)."""
    k, r = ev[0], ev[1]
    if k == "S":
        return (ev[7], ev[8], ev[3], r, ev[2], ev[6], K_S,
                CAT_CODE[ev[4]], CAT_CODE[ev[5]])
    if k == "R":
        return (ev[3], ev[4], 0, r, 0, ev[2], K_R, 0, 0)
    if k == "F":
        return (ev[2], ev[3], 0, r, 0, 0, K_F, 0, 0)
    if k == "P" or k == "G":
        return (ev[5], ev[6], ev[3], r, ev[2], 0, KINDS.index(k),
                CAT_CODE["osc"], CAT_CODE[ev[4]])
    if k == "B":
        return (0.0, 0.0, 0, r, colls.setdefault(ev[2:], len(colls)), 0, K_B,
                0, 0)
    if k == "E":
        return (0.0, 0.0, 0, r, 0, 0, K_E, 0, 0)
    raise ValueError(f"unknown event kind {k!r}")


def columns_of(events) -> TraceColumns:
    """The columns a recording of ``events`` (tuples, in the spelling of
    ``ReplayTrace.events``) would hold."""
    packer = RowPacker()
    for ev in events:
        try:
            packer.rows += _row(ev, packer.colls)
        except KeyError as exc:
            raise ValueError(
                f"unknown message category {exc.args[0]!r}") from None
    return packer.columns()


def answer_bits(doc):
    """A search answer document (``SearchResult.to_dict()``, read back
    or not) with every float as its ``float.hex`` and the host-time
    ``wall_seconds`` dropped: equal means equal to the bit."""
    if isinstance(doc, float):
        return float(doc).hex()
    if isinstance(doc, dict):
        return {k: answer_bits(v) for k, v in doc.items()
                if k != "wall_seconds"}
    if isinstance(doc, (list, tuple)):
        return [answer_bits(v) for v in doc]
    return doc


@pytest.fixture(scope="session")
def fig5_recording():
    """(trace, engine, results) for the golden fig5_shaped workload."""
    from tests.golden.hotpath_workloads import fig5_shaped

    with autorecord.capture(meta={"workload": "fig5_shaped"}) as traces:
        engine, results = fig5_shaped()
    assert len(traces) == 1
    return traces[0], engine, results


@pytest.fixture(scope="session")
def fig5_trace(fig5_recording):
    return fig5_recording[0]
