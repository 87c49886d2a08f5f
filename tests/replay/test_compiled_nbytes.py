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
    # Positional destructuring still works (NamedTuple); the recorded
    # issue times ride in a column parallel to the op stream.
    (prog, counts, sizes, total_counts, total_sizes, n_messages, max_seq, t,
     op_bytes) = book
    assert prog is book.prog
    assert n_messages == book.n_messages
    assert n_messages > 0
    assert t.dtype == np.float64 and len(t) == len(prog)


def test_nbytes_counts_numpy_tables_and_op_stream(fig5_trace):
    book = compile_trace(fig5_trace)
    nbytes = book.nbytes()
    matrix_bytes = sum(
        int(mat.nbytes)
        for table in (book.counts, book.sizes, book.total_counts,
                      book.total_sizes)
        for mat in table.values())
    assert nbytes > matrix_bytes + book.t.nbytes    # op stream counted too
    assert nbytes > len(book.prog) * 32             # per-slot floor
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
    """The walk over every record that ``nbytes()`` was (the oracle of
    the arithmetic that replaced it)."""
    total = int(book.t.nbytes)
    for table in (book.counts, book.sizes,
                  book.total_counts, book.total_sizes):
        for mat in table.values():
            total += int(mat.nbytes)
    total += sys.getsizeof(book.prog)
    for rec in book.prog:
        total += sys.getsizeof(rec) + 32 * (len(rec) - 1)
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
        assert book.nbytes() > book.op_bytes >= sys.getsizeof(book.prog)
