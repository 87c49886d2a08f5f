"""CompiledTrace: public compile API, resident-size accounting."""

import math
import sys

import numpy as np
import pytest

from repro.replay import CompiledTrace, ReplayTrace, compile_trace
from tests.replay.conftest import columns_of
from tests.replay.test_columnar import (DATA, FIXTURES, _hand_built,
                                        _one_sided_recording)


def test_compile_trace_is_cached_and_tuple_compatible(fig5_trace):
    book = compile_trace(fig5_trace)
    assert isinstance(book, CompiledTrace)
    assert compile_trace(fig5_trace) is book        # cached on the trace
    # Positional destructuring still works (NamedTuple): three list
    # columns over the timed events, the class table, the books, each
    # rank's finish clock in a float64 column, and no unsent receive.
    (rank, operand, gap, classes, n_get, counts, sizes, total_counts,
     total_sizes, n_messages, finish, unsent, op_bytes) = book
    assert rank is book.rank and operand is book.operand
    assert n_messages == book.n_messages
    assert n_messages > 0
    assert finish.dtype == np.float64
    assert finish.tolist() == fig5_trace.clocks
    assert unsent is None
    assert len(rank) == len(operand) == len(gap)
    assert classes.shape == (4, len(set(zip(*classes.tolist()))))
    assert n_get == 0                               # fig5 has no one-sided op


def test_nbytes_counts_numpy_tables_and_op_stream(fig5_trace):
    book = compile_trace(fig5_trace)
    nbytes = book.nbytes()
    matrix_bytes = sum(
        int(mat.nbytes)
        for table in (book.counts, book.sizes, book.total_counts,
                      book.total_sizes)
        for mat in table.values())
    assert nbytes > matrix_bytes + book.finish.nbytes  # op columns too
    assert book.op_bytes <= _one_box_per_value_bound(book)
    # Every matrix really is a dense numpy buffer over the world.
    n = fig5_trace.world_size
    for mat in book.total_sizes.values():
        assert isinstance(mat, np.ndarray)
        assert mat.shape == (n, n)


def test_nbytes_scales_with_trace_size(fig5_trace):
    from repro.replay.schema import ReplayTrace

    book = compile_trace(fig5_trace)
    half = ReplayTrace(
        world_size=fig5_trace.world_size,
        topology=fig5_trace.topology,
        binding=fig5_trace.binding,
        params=fig5_trace.params,
        seed=fig5_trace.seed,
        monitoring_overhead=fig5_trace.monitoring_overhead,
        comms=fig5_trace.comms,
        clocks=fig5_trace.clocks,
        columns=columns_of(fig5_trace.events[: len(fig5_trace.events) // 2]),
        meta=fig5_trace.meta,
    )
    assert compile_trace(half).nbytes() < book.nbytes()


def _one_box_per_value_bound(book) -> int:
    """What three list columns cost when equal values share one box:
    the spines, 28 B per receive ordinal and per cost class, 24 B per
    gap whose bits are not +0.0's, and the shared +0.0 and finish."""
    spines = 3 * (sys.getsizeof([]) + 8 * len(book.gap))
    receives = sum(1 for x in book.operand if x >= 0)
    nonzero = int(np.count_nonzero(
        np.asarray(book.gap, dtype=np.float64).view(np.int64)))
    return spines + 28 * (receives + book.classes.shape[1]) \
        + 24 * nonzero + 24 + 28


def _walked_nbytes(book) -> int:
    """The ``sys.getsizeof`` walk over every slot (the oracle of the
    arithmetic in ``nbytes()``): each distinct box counts once, however
    many slots hold it, and the ints CPython keeps as singletons cost a
    book nothing."""
    total = int(book.classes.nbytes)
    if book.finish is not None:
        total += int(book.finish.nbytes)
    for table in (book.counts, book.sizes,
                  book.total_counts, book.total_sizes):
        for mat in table.values():
            total += int(mat.nbytes)
    boxes = {}
    for column in (book.rank, book.operand, book.gap):
        total += sys.getsizeof(column)
        boxes.update((id(v), v) for v in column
                     if not (isinstance(v, int) and -5 <= v <= 256))
    return total + sum(map(sys.getsizeof, boxes.values()))


def test_a_book_holds_one_box_per_value(fig5_trace):
    """Every send of one class reads one object, as does every +0.0
    gap and every finish; a receive's ordinal is its own box."""
    book = compile_trace(fig5_trace)
    n_cls = book.classes.shape[1]
    ids = {}
    for x in book.operand:
        if x < 0:
            ids.setdefault(x, set()).add(id(x))
    assert len(ids) == n_cls + 1                    # every class, the finish
    assert all(len(same) == 1 for same in ids.values())
    sends = sum(1 for x in book.operand if -n_cls <= x < 0)
    assert sends > 5 * n_cls                        # ... shared by many
    zero = {id(g) for g in book.gap
            if g == 0.0 and math.copysign(1.0, g) > 0}
    assert len(zero) == 1
    assert sum(1 for g in book.gap if id(g) in zero) > len(book.gap) // 2


@pytest.mark.parametrize(
    "source", ["fig5_shaped", "osc_and_overhead", "hand-built", *FIXTURES])
def test_nbytes_arithmetic_equals_the_walk(source, fig5_trace, tmp_path):
    """Every record kind (the one-sided fixtures have P and G), as
    handed over and as loaded back from a file."""
    trace = {"fig5_shaped": lambda: fig5_trace,
             "osc_and_overhead": _one_sided_recording,
             "hand-built": _hand_built}.get(
        source, lambda: ReplayTrace.load(str(DATA / source)))()
    path = str(tmp_path / "schema2.trace")
    trace.dump(path)
    for form in (trace, ReplayTrace.load(path)):
        book = compile_trace(form)
        assert book.nbytes() == _walked_nbytes(book)
        assert book.nbytes() > book.op_bytes >= 3 * sys.getsizeof(book.gap)
