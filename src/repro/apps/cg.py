"""NAS Parallel Benchmarks CG kernel (paper §6.5).

The conjugate-gradient kernel with NPB 3.3's parallel structure: a 2-D
processor grid (``num_proc_rows × num_proc_cols``, ``npcols = 2·nprows``
when log₂ p is odd), pairwise exchange ladders along processor rows for
scalar reductions and for the reduce-scatter of the partial
matrix-vector product, a transpose exchange, and a doubling ladder
along processor columns to rebuild the q vector.  All point-to-point
traffic goes through the *world* communicator with explicitly computed
global ranks, exactly like the NPB source — which is why the paper's
reordering experiment works by swapping the communicator the iteration
uses.

Two execution modes:

* ``numeric`` — a real distributed sparse CG solve.  A deterministic
  diagonally-dominant SPD matrix replaces NPB's ``makea`` (whose exact
  random sparse generator is irrelevant to communication behaviour);
  results are validated against a sequential solve in the test suite.
  Requires the block sizes to divide evenly.
* ``modeled`` — identical message pattern and sizes, abstract payloads,
  compute time charged analytically from the flop count.  This is how
  classes B/C/D run (class D has ≈ 7·10⁸ nonzeros — the paper ran it on
  256 cores of PlaFRIM; we model the compute and simulate every
  message).

The kernel is written once, as generators over the ``co_*`` API
(``yield from co_run_cg(comm, config)``); ``run_cg`` and
``cg_outer_iteration`` are the blocking spellings for plain-callable
rank programs.

Per-rank statistics mirror the paper's measurement: total time and
time spent in MPI calls ("we have added a timer that measures the time
spent by rank 0 in MPI calls").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from repro.simmpi.comm import Communicator
from repro.simmpi.engine import _drive

__all__ = ["CGClass", "CG_CLASSES", "CGConfig", "CGState", "cg_setup",
           "cg_outer_iteration", "co_cg_outer_iteration", "run_cg",
           "co_run_cg", "grid_shape", "make_spd_matrix", "sequential_cg"]


@dataclass(frozen=True)
class CGClass:
    """An NPB problem class."""

    name: str
    na: int
    nonzer: int
    niter: int
    shift: float

    @property
    def approx_nnz(self) -> int:
        """NPB's nz bound: na·(nonzer+1)² (used for the flop model)."""
        return self.na * (self.nonzer + 1) ** 2


CG_CLASSES: Dict[str, CGClass] = {
    "S": CGClass("S", 1400, 7, 15, 10.0),
    "W": CGClass("W", 7000, 8, 15, 12.0),
    "A": CGClass("A", 14000, 11, 15, 20.0),
    "B": CGClass("B", 75000, 13, 75, 60.0),
    "C": CGClass("C", 150000, 15, 75, 110.0),
    "D": CGClass("D", 1500000, 21, 100, 500.0),
}


def grid_shape(p: int) -> Tuple[int, int]:
    """NPB processor grid: (num_proc_rows, num_proc_cols), both powers
    of two, ``npcols == nprows`` or ``npcols == 2·nprows``."""
    if p < 1 or p & (p - 1):
        raise ValueError(f"CG needs a power-of-two process count, got {p}")
    log2p = p.bit_length() - 1
    npcols = 1 << ((log2p + 1) // 2)
    nprows = p // npcols
    return nprows, npcols


@dataclass
class CGConfig:
    """How to run the kernel."""

    cg_class: CGClass
    mode: str = "modeled"  # "numeric" | "modeled"
    cgitmax: int = 25  # NPB's inner iteration count
    niter: Optional[int] = None  # outer iterations (default: class niter)
    # Effective sustained flop/s per core.  CG is memory-bound: NPB
    # class B sustains ~0.1-0.3 GFLOP/s per Haswell core when all 24
    # cores are busy; calibrated so the communication share of class B
    # at 64 ranks matches the share the paper's Fig. 7 ratios imply.
    compute_rate: float = 1.2e8
    seed: int = 1  # matrix generator seed (numeric mode)

    def __post_init__(self):
        if self.mode not in ("numeric", "modeled"):
            raise ValueError(f"unknown CG mode {self.mode!r}")

    @property
    def outer_iterations(self) -> int:
        return self.niter if self.niter is not None else self.cg_class.niter


# ---------------------------------------------------------------------------
# matrix generation (numeric mode)


def make_spd_matrix(na: int, nonzer: int, seed: int = 1) -> sp.csr_matrix:
    """Deterministic sparse symmetric positive-definite matrix.

    ``nonzer`` off-diagonal entries per row (before symmetrization),
    negative off-diagonals and a diagonally dominant diagonal — a
    weighted-Laplacian-plus-identity, guaranteed SPD.  Stands in for
    NPB's ``makea`` (documented substitution; the communication pattern
    does not depend on the matrix values).
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(na), nonzer)
    cols = rng.integers(0, na, size=na * nonzer)
    vals = rng.uniform(0.1, 1.0, size=na * nonzer)
    B = sp.csr_matrix((vals, (rows, cols)), shape=(na, na))
    B = (B + B.T) * 0.5
    B.setdiag(0)
    B.eliminate_zeros()
    off = -B
    diag = np.asarray(B.sum(axis=1)).ravel() + 1.0
    return (off + sp.diags(diag)).tocsr()


def sequential_cg(A: sp.csr_matrix, x: np.ndarray, cgitmax: int) -> np.ndarray:
    """Reference solve: ``cgitmax`` plain CG iterations for A z = x."""
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(cgitmax):
        q = A @ p
        alpha = rho / float(p @ q)
        z += alpha * p
        r -= alpha * q
        rho0, rho = rho, float(r @ r)
        p = r + (rho / rho0) * p
    return z


# ---------------------------------------------------------------------------
# per-rank state


@dataclass
class CGState:
    config: CGConfig
    nprows: int
    npcols: int
    l2npcols: int
    proc_row: int
    proc_col: int
    row_len: int  # rows per processor row (ceil)
    col_len: int  # cols per processor column (ceil)
    chunk: int  # reduce-scatter chunk: row_len / npcols (ceil)
    transpose_send_to: int
    transpose_recv_from: int
    A_local: Optional[sp.csr_matrix] = None
    x_seg: Optional[np.ndarray] = None
    z_seg: Optional[np.ndarray] = None
    comm_time: float = 0.0
    mpi_calls: int = 0
    zeta: float = 0.0

    def rank_of(self, row: int, col: int) -> int:
        return row * self.npcols + col


def _transpose_maps(nprows: int, npcols: int) -> Tuple[List[int], List[int]]:
    """Global send/recv partner per rank for the transpose exchange.

    Square grid: the matrix transpose (an involution).  Non-square
    (npcols = 2·nprows): the chunk (r, c) belongs to column block
    ``2r + (c >= npcols/2)`` and goes to the processor of that column
    whose row index is ``c mod nprows``.
    """
    p = nprows * npcols
    send_to = [0] * p
    for r in range(nprows):
        for c in range(npcols):
            me = r * npcols + c
            if nprows == npcols:
                send_to[me] = c * npcols + r
            else:
                c_new = 2 * r + (1 if c >= npcols // 2 else 0)
                r_new = c % nprows
                send_to[me] = r_new * npcols + c_new
    recv_from = [0] * p
    for me, dst in enumerate(send_to):
        recv_from[dst] = me
    return send_to, recv_from


def cg_setup(comm: Communicator, config: CGConfig) -> CGState:
    """Build the per-rank state (grid position, partners, local data)."""
    p = comm.size
    nprows, npcols = grid_shape(p)
    me = comm.rank
    proc_row, proc_col = divmod(me, npcols)
    na = config.cg_class.na
    row_len = -(-na // nprows)
    col_len = -(-na // npcols)
    chunk = -(-row_len // npcols)
    send_to, recv_from = _transpose_maps(nprows, npcols)
    state = CGState(
        config=config,
        nprows=nprows,
        npcols=npcols,
        l2npcols=npcols.bit_length() - 1,
        proc_row=proc_row,
        proc_col=proc_col,
        row_len=row_len,
        col_len=col_len,
        chunk=chunk,
        transpose_send_to=send_to[me],
        transpose_recv_from=recv_from[me],
    )
    if config.mode == "numeric":
        if nprows != npcols:
            raise ValueError("numeric mode requires a square processor grid")
        if na % (nprows * npcols * npcols) != 0:
            raise ValueError(
                f"numeric mode needs na divisible by nprows*npcols^2; "
                f"na={na}, grid={nprows}x{npcols}"
            )
        A = make_spd_matrix(na, config.cg_class.nonzer, seed=config.seed)
        r0 = proc_row * row_len
        c0 = proc_col * col_len
        state.A_local = A[r0 : r0 + row_len, c0 : c0 + col_len].tocsr()
        state.x_seg = np.ones(col_len, dtype=np.float64)
        state.z_seg = np.zeros(col_len, dtype=np.float64)
    return state


# ---------------------------------------------------------------------------
# communication building blocks (all timed into state.comm_time)
# A ladder reads the clock before its first exchange and after each one
# (``co_wait`` returns with nothing pending, so the read after step i is
# the one before step i + 1); a ladder of no steps reads no clock.


def _row_ladder_sum(comm, state: CGState, value: float, tag: int):
    """Scalar all-sum along the processor row: l2npcols pairwise
    exchanges with reduce_exch_proc (8-byte messages)."""
    c = state.proc_col
    acc = value
    numeric = state.config.mode == "numeric"
    if state.l2npcols:
        t = yield from comm.co_time()
    for i in range(state.l2npcols):
        d = state.npcols >> (i + 1)
        partner = state.rank_of(state.proc_row, c ^ d)
        msg = yield from comm.co_sendrecv(
            np.float64(acc) if numeric else None,
            dest=partner, source=partner, sendtag=tag + i, recvtag=tag + i,
            nbytes=None if numeric else 8,
        )
        t0, t = t, (yield from comm.co_time())
        state.comm_time += t - t0
        state.mpi_calls += 2
        if numeric:
            acc += float(msg.payload)
    return acc


def _reduce_scatter_row(comm, state: CGState, w, tag: int):
    """Recursive halving of the partial mat-vec along the row.

    Step i exchanges segments of ``row_len / 2^(i+1)`` doubles with the
    partner at column distance ``npcols / 2^(i+1)``; the caller ends up
    owning chunk ``proc_col`` of the row sum.
    """
    c = state.proc_col
    numeric = state.config.mode == "numeric"
    seg = w
    lo = 0  # global start of the held segment (numeric bookkeeping)
    length = state.row_len
    if state.l2npcols:
        t = yield from comm.co_time()
    for i in range(state.l2npcols):
        d = state.npcols >> (i + 1)
        partner = state.rank_of(state.proc_row, c ^ d)
        half = length // 2 if numeric else -(-length // 2)
        theirs = None
        if numeric:
            keep_low = (c & d) == 0
            mine = seg[:half] if keep_low else seg[half:]
            theirs = seg[half:] if keep_low else seg[:half]
        msg = yield from comm.co_sendrecv(
            theirs, dest=partner, source=partner, sendtag=tag + i,
            recvtag=tag + i, nbytes=None if numeric else 8 * half)
        t0, t = t, (yield from comm.co_time())
        state.comm_time += t - t0
        state.mpi_calls += 2
        if numeric:
            seg = mine + msg.payload
            if not keep_low:
                lo += half
        length = half
    return seg, lo


def _allgather_column(comm, state: CGState, seg, tag: int):
    """Recursive doubling along the processor column to rebuild the
    q/r vector segment of length ``col_len`` from per-rank chunks."""
    r = state.proc_row
    numeric = state.config.mode == "numeric"
    pieces = {r: seg} if numeric else None
    # col_len == nprows · chunk on both square and non-square grids.
    length = state.chunk
    steps = state.nprows.bit_length() - 1
    if steps:
        t = yield from comm.co_time()
    for i in range(steps):
        d = 1 << i
        partner = state.rank_of(r ^ d, state.proc_col)
        msg = yield from comm.co_sendrecv(
            dict(pieces) if numeric else None, dest=partner, source=partner,
            sendtag=tag + i, recvtag=tag + i,
            nbytes=None if numeric else 8 * length)
        t0, t = t, (yield from comm.co_time())
        state.comm_time += t - t0
        state.mpi_calls += 2
        if numeric:
            pieces.update(msg.payload)
        else:
            length *= 2
    if numeric:
        out = np.concatenate([pieces[j] for j in sorted(pieces)])
        return out
    return None


# ---------------------------------------------------------------------------
# the solver


def _next_tag(state: CGState) -> int:
    """Per-phase tag base; all ranks advance in lockstep (SPMD)."""
    tag = getattr(state, "_tag_seq", 0)
    state._tag_seq = tag + 1
    return (tag % 30_000) * 32


def _ladder(comm, state: CGState, value: float):
    """:func:`_row_ladder_sum` under the next phase tag."""
    return _row_ladder_sum(comm, state, value, tag=_next_tag(state))


def _matvec(comm, state: CGState, p_seg):
    """q = A·p with the NPB communication skeleton:
    local partial product, reduce-scatter along the row, transpose
    exchange, doubling ladder along the column."""
    numeric = state.config.mode == "numeric"
    if numeric:
        w = state.A_local @ p_seg
        yield from comm.co_compute(
            2.0 * state.A_local.nnz / state.config.compute_rate)
    else:
        nnz_local = state.config.cg_class.approx_nnz / (state.nprows * state.npcols)
        yield from comm.co_compute(2.0 * nnz_local / state.config.compute_rate)
        w = None

    seg, _lo = yield from _reduce_scatter_row(comm, state, w,
                                              tag=_next_tag(state))

    tag = _next_tag(state)
    t0 = yield from comm.co_time()
    req = comm.irecv(source=state.transpose_recv_from, tag=tag)
    yield from comm.co_send(seg, dest=state.transpose_send_to, tag=tag,
                            nbytes=None if numeric else 8 * state.chunk)
    msg = yield from req.co_wait()
    state.comm_time += (yield from comm.co_time()) - t0
    state.mpi_calls += 2

    chunk = msg.payload if numeric else None
    return (yield from _allgather_column(comm, state, chunk,
                                         tag=_next_tag(state)))


def _vector_ops_cost(comm, state: CGState, n_ops: int):
    """Charge modeled time for n_ops AXPY/dot passes over the segment."""
    yield from comm.co_compute(
        n_ops * state.col_len / state.config.compute_rate)


def _co_conj_grad(comm, state: CGState):
    """One NPB ``conj_grad`` call: cgitmax inner CG iterations plus the
    residual-norm evaluation.  Returns (z_seg, rnorm) in numeric mode,
    (None, 0.0) in modeled mode."""
    numeric = state.config.mode == "numeric"
    if numeric:
        x = state.x_seg
        z = np.zeros_like(x)
        r = x.copy()
        p = r.copy()
        rho = yield from _ladder(comm, state, float(r @ r))
    else:
        z = r = p = x = None
        yield from _ladder(comm, state, 0.0)
        rho = 1.0

    for _ in range(state.config.cgitmax):
        q = yield from _matvec(comm, state, p)
        if numeric:
            d = yield from _ladder(comm, state, float(p @ q))
            alpha = rho / d
            z += alpha * p
            r -= alpha * q
            rho0 = rho
            rho = yield from _ladder(comm, state, float(r @ r))
            p = r + (rho / rho0) * p
        else:
            yield from _vector_ops_cost(comm, state, 5)
            yield from _ladder(comm, state, 0.0)
            yield from _ladder(comm, state, 0.0)

    # Residual norm ||x - A z|| (one extra mat-vec, as in NPB).
    az = yield from _matvec(comm, state, z)
    if numeric:
        local = float(((x - az) ** 2).sum())
        rnorm = np.sqrt((yield from _ladder(comm, state, local)))
        return z, float(rnorm)
    yield from _vector_ops_cost(comm, state, 2)
    yield from _ladder(comm, state, 0.0)
    return None, 0.0


def _conj_grad(comm, state: CGState):
    """Blocking :func:`_co_conj_grad`."""
    return _drive(_co_conj_grad(comm, state))


def co_cg_outer_iteration(comm, state: CGState, it: int):
    """One outer iteration: conj_grad + zeta + renormalization of x.

    Returns the residual norm (numeric) or 0.0 (modeled).
    """
    z, rnorm = yield from _co_conj_grad(comm, state)
    numeric = state.config.mode == "numeric"
    if numeric:
        tnorm1 = yield from _ladder(comm, state, float(state.x_seg @ z))
        tnorm2 = yield from _ladder(comm, state, float(z @ z))
        state.zeta = state.config.cg_class.shift + 1.0 / tnorm1
        state.x_seg = z / np.sqrt(tnorm2)
        state.z_seg = z
    else:
        yield from _ladder(comm, state, 0.0)
        yield from _ladder(comm, state, 0.0)
        yield from _vector_ops_cost(comm, state, 2)
    return rnorm


def cg_outer_iteration(comm, state: CGState, it: int) -> float:
    """Blocking :func:`co_cg_outer_iteration`."""
    return _drive(co_cg_outer_iteration(comm, state, it))


def co_run_cg(comm, config: CGConfig, skip_init: bool = False,
              niter: Optional[int] = None):
    """Run the kernel like the NPB main program: one untimed
    initialization iteration (the one the paper monitors for its
    reordering), then ``niter`` timed iterations.

    Returns per-rank stats: total/communication virtual seconds over
    the timed phase, iteration count, MPI call count, final zeta.
    """
    state = cg_setup(comm, config)
    if not skip_init:
        yield from co_cg_outer_iteration(comm, state, 0)
        if state.config.mode == "numeric":
            state.x_seg = np.ones(state.col_len, dtype=np.float64)
    n = niter if niter is not None else config.outer_iterations
    t0 = yield from comm.co_time()
    c0, m0 = state.comm_time, state.mpi_calls
    for it in range(1, n + 1):
        yield from co_cg_outer_iteration(comm, state, it)
    return {
        "time": (yield from comm.co_time()) - t0,
        "comm_time": state.comm_time - c0,
        "mpi_calls": state.mpi_calls - m0,
        "iterations": n,
        "zeta": state.zeta,
    }


def run_cg(comm, config: CGConfig, skip_init: bool = False,
           niter: Optional[int] = None) -> Dict[str, float]:
    """Blocking :func:`co_run_cg`."""
    return _drive(co_run_cg(comm, config, skip_init, niter))


def main(argv=None) -> int:
    """Demo entry point: modeled NPB CG on a simulated cluster
    (``python -m repro.apps.cg``)."""
    from repro.experiments.common import experiment_parser, render_table
    from repro.simmpi import Cluster, Engine

    parser = experiment_parser(
        "python -m repro.apps.cg",
        "NAS CG kernel (modeled mode) on a simulated cluster.",
        sizes_help="power-of-two rank counts (default 16)",
    )
    parser.add_argument("--cg-class", dest="cg_class", default="S",
                        choices=sorted(CG_CLASSES))
    parser.add_argument("--iters", type=int, default=2,
                        help="timed outer iterations (default 2)")
    args = parser.parse_args(argv)
    rank_counts = args.sizes or (16,)

    rows = []
    for np_count in rank_counts:
        cluster = Cluster.plafrim(
            max(1, -(-np_count // 24)), n_ranks=np_count, binding="rr")
        engine = Engine(cluster, seed=args.seed)
        config = CGConfig(CG_CLASSES[args.cg_class], mode="modeled",
                          niter=args.iters)
        stats = engine.run(co_run_cg, args=(config,))
        r0 = stats[0]
        rows.append((np_count, round(r0["time"], 4),
                     round(r0["comm_time"], 4), r0["mpi_calls"]))
    print(render_table(
        ["NP", "time (s)", "comm (s)", "MPI calls"], rows,
        title=f"CG class {args.cg_class}, {args.iters} timed iterations "
              "(rank-0 view)",
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
