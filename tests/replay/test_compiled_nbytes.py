"""CompiledTrace: public compile API, resident-size accounting."""

import sys

import numpy as np
import pytest

from repro.replay import CompiledTrace, ReplayTrace, compile_trace
from tests.replay.test_columnar import (DATA, FIXTURES, _hand_built,
                                        _one_sided_recording)


def test_compile_trace_is_cached_and_tuple_compatible(fig5_trace):
    book = compile_trace(fig5_trace)
    assert isinstance(book, CompiledTrace)
    assert compile_trace(fig5_trace) is book        # cached on the trace
    # Positional destructuring still works (NamedTuple): three list
    # columns over the timed events, the class table, the books, and
    # the recorded issue times in a float64 column parallel to the lists.
    (rank, operand, gap, classes, n_get, counts, sizes, total_counts,
     total_sizes, n_messages, t, op_bytes) = book
    assert rank is book.rank and operand is book.operand
    assert n_messages == book.n_messages
    assert n_messages > 0
    assert t.dtype == np.float64
    assert len(t) == len(rank) == len(operand) == len(gap)
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
    assert nbytes > matrix_bytes + book.t.nbytes    # op columns counted too
    assert nbytes > len(book.gap) * (3 * 8 + 24)    # three slots, a boxed gap
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
        events=fig5_trace.events[: len(fig5_trace.events) // 2],
        meta=fig5_trace.meta,
    )
    assert compile_trace(half).nbytes() < book.nbytes()


def _walked_nbytes(book) -> int:
    """The ``sys.getsizeof`` walk over every slot (the oracle of the
    arithmetic in ``nbytes()``): each element is a box of its own,
    except the ints CPython keeps as singletons, which cost a book
    nothing."""
    total = int(book.t.nbytes) + int(book.classes.nbytes)
    for table in (book.counts, book.sizes,
                  book.total_counts, book.total_sizes):
        for mat in table.values():
            total += int(mat.nbytes)
    for column in (book.rank, book.operand, book.gap):
        boxes = [v for v in column
                 if not (isinstance(v, int) and -5 <= v <= 256)]
        assert len({id(v) for v in boxes}) == len(boxes)
        total += sys.getsizeof(column) + sum(map(sys.getsizeof, boxes))
    return total


@pytest.mark.parametrize(
    "source", ["fig5_shaped", "osc_and_overhead", "hand-built", *FIXTURES])
def test_nbytes_arithmetic_equals_the_walk(source, fig5_trace, tmp_path):
    """Every record kind (the one-sided fixtures have P and G), both
    in-memory forms, both file schemas."""
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
