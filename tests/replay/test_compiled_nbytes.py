"""CompiledTrace: public compile API, resident-size accounting."""

import numpy as np

from repro.replay import CompiledTrace, compile_trace


def test_compile_trace_is_cached_and_tuple_compatible(fig5_trace):
    book = compile_trace(fig5_trace)
    assert isinstance(book, CompiledTrace)
    assert compile_trace(fig5_trace) is book        # cached on the trace
    # Positional destructuring still works (NamedTuple); the recorded
    # issue times ride in a column parallel to the op stream.
    prog, counts, sizes, total_counts, total_sizes, n_messages, max_seq, t = \
        book
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
