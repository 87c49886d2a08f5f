"""What building costs: compiling a book and substituting an algorithm
each hold their output plus about one column of temporaries
(DESIGN.md §4.4), and the book is the one a per-event build gives, box
for box.

The budgets are traced peaks (``tracemalloc``) over one call, taken
after a first call has paid for imports and caches.
"""

import tracemalloc

import numpy as np
import pytest

from repro.replay import ReplayTrace, patterns
from repro.replay.engine import _compile_trace
from repro.replay.schema import K_B, K_F, K_G, K_P, K_R, K_S
from tests.replay.test_columnar import (DATA, FIXTURES, _hand_built,
                                        _one_sided_recording)


def _fresh(trace: ReplayTrace) -> ReplayTrace:
    """The same columns with no compiled book cached."""
    return trace._with_columns(trace.columns())


def _traced_peak(step):
    """``step()``'s result and the most it held at once, in bytes; the
    result is held at the end, so it counts."""
    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = step()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_compile_holds_its_book_plus_one_column(fig5_trace):
    book, peak = _traced_peak(lambda: _compile_trace(_fresh(fig5_trace)))
    assert peak <= 1.5 * book.nbytes(), (peak, book.nbytes())


def test_substitution_holds_its_output_plus_one_column(fig5_trace):
    out, peak = _traced_peak(lambda: patterns.apply_substitution(
        fig5_trace, {"reduce": "binomial"}))
    size = out.columns().footprint()
    assert peak <= 2.5 * size, (peak, size)


def _reference_book(trace: ReplayTrace):
    """The three list columns and the class table, event by event: one
    box per rank, per cost class, for the finish and for a ``+0.0``
    gap; each receive's ordinal and each other gap is a box of its
    own."""
    c = trace.columns()
    kind, rank, peer, seq, nbytes, mcat = (
        col.tolist() for col in (c.kind, c.rank, c.peer, c.seq, c.nbytes,
                                 c.mcat))
    gap, gap_bits = c.gap.tolist(), c.gap.view(np.int64).tolist()
    timed = [i for i, k in enumerate(kind) if k < K_B]
    messages = [i for i in timed if kind[i] in (K_S, K_P, K_G)]

    def key(i):
        get = kind[i] == K_G
        src, dst = (peer[i], rank[i]) if get else (rank[i], peer[i])
        charged = mcat[i] != 0 and trace.monitoring_overhead > 0.0
        return (not get, src, dst, nbytes[i], int(charged))

    classes = sorted({key(i) for i in messages})
    operand_of = {k: j - len(classes) for j, k in enumerate(classes)}
    ordinal_of = {seq[i]: o for o, i in enumerate(messages)
                  if kind[i] == K_S}
    finish, zero, ranks = -len(classes) - 1, 0.0, {}
    columns = ([], [], [])
    for i in timed:
        if kind[i] == K_R:
            operand = ordinal_of.get(seq[i], len(messages))
        elif kind[i] == K_F:
            operand = finish
        else:
            operand = operand_of[key(i)]
        columns[0].append(ranks.setdefault(rank[i], rank[i]))
        columns[1].append(operand)
        columns[2].append(zero if gap_bits[i] == 0 else gap[i])
    return columns, [list(k[1:]) for k in classes], \
        sum(1 for k in classes if not k[0])


@pytest.mark.parametrize(
    "source", ["fig5_shaped", "osc_and_overhead", "hand-built", *FIXTURES])
def test_book_equals_the_per_event_build(source, fig5_trace):
    trace = {"fig5_shaped": lambda: fig5_trace,
             "osc_and_overhead": _one_sided_recording,
             "hand-built": _hand_built}.get(
        source, lambda: ReplayTrace.load(str(DATA / source)))()
    book = _compile_trace(_fresh(trace))
    columns, classes, n_get = _reference_book(trace)
    assert book.classes.T.tolist() == classes
    assert book.n_get == n_get
    for got, want in zip((book.rank, book.operand, book.gap), columns):
        assert list(map(repr, got)) == list(map(repr, want))   # -0.0 too
        assert list(map(type, got)) == list(map(type, want))
        assert len(set(map(id, got))) == len(set(map(id, want)))
