"""Dynamic rank reordering with introspection monitoring (paper §5, Fig. 1).

The algorithm, for an iterative computation:

1. monitor the first iteration with a monitoring session;
2. gather the byte matrix (``size_mat``) on rank 0
   (``MPI_M_rootgather_data``);
3. rank 0 computes an optimized mapping ``k`` with TreeMatch, from the
   machine topology and the measured communication pattern;
4. broadcast ``k``; build the optimized communicator with
   ``MPI_Comm_split(comm, 0, k[rank])`` — the process of original rank
   i gets rank k[i];
5. redistribute data (rank i receives the payload of its new logical
   role from rank k[i]);
6. run the remaining iterations on the optimized communicator.

The TreeMatch computation itself takes time (paper Table 1); rank 0's
virtual clock is charged with :func:`treematch_model_seconds`, a power
law fitted to Table 1, so the trade-off heatmap of Fig. 6 (reordering
cost vs. iteration gain) is reproduced honestly.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.core.errors import raise_for_code
from repro.obs.spans import virtual_span
from repro.placement.mapping import invert_permutation, reorder_permutation
from repro.placement.treematch import treematch
from repro.simmpi.engine import _drive

__all__ = [
    "treematch_model_seconds",
    "compute_mapping",
    "reorder_from_matrix",
    "co_reorder_from_matrix",
    "redistribute_data",
    "co_redistribute_data",
    "reorder_iterative",
    "co_reorder_iterative",
]


def treematch_model_seconds(n: int) -> float:
    """Modeled TreeMatch wall-clock for an n×n communication matrix.

    Power law fitted to the paper's Table 1 (2.6 s at 8192 … 88.7 s at
    65536, slope ≈ 1.7); extrapolates to ~7 ms at 256 processes, in
    line with the paper's "up to 0.02 seconds" for 256 ranks (§7).
    """
    if n <= 1:
        return 0.0
    return 2.6 * (n / 8192.0) ** 1.7


def compute_mapping(size_mat: np.ndarray, cluster, world_ranks) -> np.ndarray:
    """The paper's ``compute_mapping(local_topology, size_mat)``.

    Returns the permutation ``k`` (original rank → new rank) for the
    processes whose world ranks are ``world_ranks``, pinned per the
    cluster binding.
    """
    n = len(world_ranks)
    mat = np.asarray(size_mat, dtype=np.float64).reshape(n, n)
    pus = [cluster.binding[w] for w in world_ranks]
    placement = treematch(mat, cluster.topology, allowed_pus=pus)
    return reorder_permutation(placement, pus)


def reorder_from_matrix(comm, size_mat: Optional[np.ndarray],
                        charge_mapping_time: bool = True
                        ) -> Tuple[object, np.ndarray]:
    """Blocking :func:`co_reorder_from_matrix`."""
    return _drive(co_reorder_from_matrix(comm, size_mat, charge_mapping_time))


def co_reorder_from_matrix(
    comm,
    size_mat: Optional[np.ndarray],
    charge_mapping_time: bool = True,
):
    """Lines 7–11 of Fig. 1: mapping at rank 0, bcast of k, comm split.

    ``size_mat`` is only significant at rank 0 (the gathered byte
    matrix).  Returns ``(opt_comm, k)`` on every rank.
    """
    me = comm.rank
    rec = comm.engine._obs_spans
    proc = comm._current() if rec is not None else None
    with virtual_span(rec, proc, "reorder.from_matrix"):
        if me == 0:
            if size_mat is None:
                raise ValueError("rank 0 must supply the gathered size matrix")
            with virtual_span(rec, proc, "treematch.compute_mapping",
                              {"n": comm.size}):
                k = compute_mapping(size_mat, comm.engine.cluster, comm.group)
                if charge_mapping_time:
                    yield from comm.co_compute(treematch_model_seconds(comm.size))
            k = np.asarray(k, dtype=np.int32)
        else:
            k = None
        k = yield from comm.co_bcast(k, root=0)
        opt_comm = yield from comm.co_split(0, int(k[me]))
    return opt_comm, k


def redistribute_data(comm, k: np.ndarray, payload=None, nbytes: int = 0) -> object:
    """Blocking :func:`co_redistribute_data`."""
    return _drive(co_redistribute_data(comm, k, payload, nbytes))


def co_redistribute_data(comm, k: np.ndarray, payload=None, nbytes: int = 0):
    """Line 12 of Fig. 1: move each logical rank's data to its new owner.

    The process that takes over logical rank j (the one with k[i] == j)
    receives the payload from the process whose *original* rank is j —
    i.e. rank i receives from rank k[i] and sends to rank
    k⁻¹[i].  Returns the received payload (or the local one when the
    rank keeps its role).
    """
    k = np.asarray(k, dtype=np.intp)
    me = comm.rank
    inv = invert_permutation(k)
    send_to = int(inv[me])  # the process whose new logical rank is me's old one
    recv_from = int(k[me])
    if send_to == me and recv_from == me:
        return payload
    req = comm.irecv(source=recv_from, tag=4242) if recv_from != me else None
    if send_to != me:
        yield from comm.co_isend(payload, dest=send_to, tag=4242,
                                 nbytes=nbytes if payload is None else None)
    if req is not None:
        msg = yield from req.co_wait()
        return msg.payload
    return payload


def _co_call(fn, *args):
    """Call a rank-program callback written in either spelling: a
    generator function is run in place, a plain callable just called
    (its blocking calls park through the caller's thread)."""
    result = fn(*args)
    if inspect.isgenerator(result):
        result = yield from result
    return result


def reorder_iterative(comm, compute_iteration: Callable[[int, object], None],
                      max_it: int, **options) -> Tuple[object, np.ndarray]:
    """Blocking :func:`co_reorder_iterative`."""
    return _drive(co_reorder_iterative(comm, compute_iteration, max_it,
                                       **options))


def co_reorder_iterative(
    comm,
    compute_iteration: Callable[[int, object], None],
    max_it: int,
    flags: Flags = Flags.ALL_COMM,
    payload=None,
    redistribute_nbytes: int = 0,
    manage_env: bool = True,
    charge_mapping_time: bool = True,
):
    """The complete Fig. 1 algorithm.

    Runs ``compute_iteration(1, comm)`` under monitoring, reorders, and
    runs iterations ``2..max_it`` on the optimized communicator.
    ``compute_iteration`` may be a generator function or a plain
    (blocking) callable.  Returns ``(opt_comm, k)``.

    The monitoring calls are the plain local ones: the ``co_sync``
    before each settles the caller's deferred send, so their internal
    settles find nothing to park on (DESIGN.md §4.5).
    """
    rec = comm.engine._obs_spans
    proc = comm._current() if rec is not None else None
    yield from comm.co_sync()
    if manage_env:
        raise_for_code(mapi.mpi_m_init())
    err, msid = mapi.mpi_m_start(comm)
    raise_for_code(err)
    with virtual_span(rec, proc, "reorder.monitored_iteration",
                      {"iteration": 1}):
        yield from _co_call(compute_iteration, 1, comm)
    yield from comm.co_sync()
    raise_for_code(mapi.mpi_m_suspend(msid))
    err, _, size_mat = yield from mapi.co_mpi_m_rootgather_data(
        msid, 0, MPI_M_DATA_IGNORE, None, flags
    )
    raise_for_code(err)
    yield from comm.co_sync()
    raise_for_code(mapi.mpi_m_free(msid))

    opt_comm, k = yield from co_reorder_from_matrix(
        comm, size_mat, charge_mapping_time=charge_mapping_time)
    with virtual_span(rec, proc, "reorder.redistribute"):
        yield from co_redistribute_data(comm, k, payload=payload,
                                        nbytes=redistribute_nbytes)
    for it in range(2, max_it + 1):
        with virtual_span(rec, proc, f"iteration[{it}]"):
            yield from _co_call(compute_iteration, it, opt_comm)
    if manage_env:
        yield from comm.co_sync()
        raise_for_code(mapi.mpi_m_finalize())
    return opt_comm, k
