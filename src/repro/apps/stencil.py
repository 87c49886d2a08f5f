"""2-D halo-exchange (Jacobi) stencil — an iterative workload for the
rank-reordering examples.

Ranks form a ``pr × pc`` process grid, each owning a tile of a global
field.  One iteration = exchange halos with the four neighbours
(point-to-point ``sendrecv``), then a 5-point Jacobi sweep.  The halo
pattern is exactly the kind of neighbour-heavy logical pattern the
paper's dynamic reordering benefits from when the initial binding is
round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.simmpi.engine import _drive

__all__ = ["StencilConfig", "StencilState", "stencil_setup",
           "stencil_iteration", "co_stencil_iteration", "run_stencil",
           "co_run_stencil", "process_grid"]


def process_grid(p: int) -> Tuple[int, int]:
    """Near-square factorization of the process count."""
    pr = int(np.sqrt(p))
    while p % pr:
        pr -= 1
    return pr, p // pr


@dataclass
class StencilConfig:
    """Tile size is per-rank: the workload weak-scales like the paper's
    micro-benchmarks."""

    tile: int = 64  # local tile edge (cells)
    numeric: bool = True  # False: abstract halos, modeled compute
    compute_rate: float = 2.0e9
    periodic: bool = False


@dataclass
class StencilState:
    config: StencilConfig
    pr: int
    pc: int
    my_r: int
    my_c: int
    field: Optional[np.ndarray]
    neighbours: Dict[str, int]
    comm_time: float = 0.0


def _neighbour(pr, pc, r, c, dr, dc, periodic) -> int:
    nr, nc = r + dr, c + dc
    if periodic:
        nr %= pr
        nc %= pc
    elif not (0 <= nr < pr and 0 <= nc < pc):
        return -1
    return nr * pc + nc


def stencil_setup(comm, config: StencilConfig) -> StencilState:
    pr, pc = process_grid(comm.size)
    r, c = divmod(comm.rank, pc)
    t = config.tile
    field = None
    if config.numeric:
        rng = np.random.default_rng(1000 + comm.rank)
        field = rng.random((t + 2, t + 2))
        # Dirichlet-0 boundary: the halo ring starts at zero and is only
        # ever overwritten by neighbour exchanges (never at the physical
        # domain boundary).
        field[0, :] = field[-1, :] = 0.0
        field[:, 0] = field[:, -1] = 0.0
    return StencilState(
        config=config,
        pr=pr,
        pc=pc,
        my_r=r,
        my_c=c,
        field=field,
        neighbours={
            "n": _neighbour(pr, pc, r, c, -1, 0, config.periodic),
            "s": _neighbour(pr, pc, r, c, +1, 0, config.periodic),
            "w": _neighbour(pr, pc, r, c, 0, -1, config.periodic),
            "e": _neighbour(pr, pc, r, c, 0, +1, config.periodic),
        },
    )


def stencil_iteration(comm, state: StencilState, it: int) -> None:
    """Blocking :func:`co_stencil_iteration`."""
    _drive(co_stencil_iteration(comm, state, it))


def co_stencil_iteration(comm, state: StencilState, it: int):
    """Halo exchange + Jacobi sweep.  ``comm`` may be the reordered
    communicator: neighbours are *logical ranks*, so reordering changes
    which physical process plays which grid role."""
    cfg = state.config
    t = cfg.tile
    f = state.field
    nb = state.neighbours
    pairs = [("n", "s"), ("s", "n"), ("w", "e"), ("e", "w")]
    extract = {
        "n": (lambda: f[1, 1:-1].copy()) if f is not None else None,
        "s": (lambda: f[-2, 1:-1].copy()) if f is not None else None,
        "w": (lambda: f[1:-1, 1].copy()) if f is not None else None,
        "e": (lambda: f[1:-1, -2].copy()) if f is not None else None,
    }
    halo_nbytes = 8 * t
    t0 = yield from comm.co_time()
    reqs = []
    for send_dir, recv_dir in pairs:
        dst = nb[send_dir]
        src = nb[recv_dir]
        tag = 100 + it % 1000
        if src >= 0:
            reqs.append((recv_dir, comm.irecv(source=src, tag=tag)))
        if dst >= 0:
            payload = extract[send_dir]() if cfg.numeric else None
            yield from comm.co_isend(
                payload, dest=dst, tag=tag,
                nbytes=None if cfg.numeric else halo_nbytes)
    received = {}
    for direction, req in reqs:
        received[direction] = (yield from req.co_wait()).payload
    state.comm_time += (yield from comm.co_time()) - t0

    if cfg.numeric:
        if "n" in received:
            f[0, 1:-1] = received["n"]
        if "s" in received:
            f[-1, 1:-1] = received["s"]
        if "w" in received:
            f[1:-1, 0] = received["w"]
        if "e" in received:
            f[1:-1, -1] = received["e"]
        inner = 0.25 * (f[:-2, 1:-1] + f[2:, 1:-1] + f[1:-1, :-2] + f[1:-1, 2:])
        f[1:-1, 1:-1] = inner
    yield from comm.co_compute(5.0 * t * t / cfg.compute_rate)


def run_stencil(comm, config: StencilConfig, iterations: int) -> Dict[str, float]:
    """Blocking :func:`co_run_stencil`."""
    return _drive(co_run_stencil(comm, config, iterations))


def co_run_stencil(comm, config: StencilConfig, iterations: int):
    """Run the stencil; returns per-rank total and communication time."""
    state = stencil_setup(comm, config)
    t0 = yield from comm.co_time()
    for it in range(iterations):
        yield from co_stencil_iteration(comm, state, it)
    return {
        "time": (yield from comm.co_time()) - t0,
        "comm_time": state.comm_time,
        "iterations": iterations,
        "checksum": float(state.field.sum()) if state.field is not None else 0.0,
    }


def main(argv=None) -> int:
    """Demo entry point: run the stencil on a round-robin simulated
    cluster for a few tile sizes (``python -m repro.apps.stencil``)."""
    from repro.experiments.common import experiment_parser, render_table
    from repro.simmpi import Cluster, Engine

    parser = experiment_parser(
        "python -m repro.apps.stencil",
        "2-D halo-exchange stencil on a simulated cluster.",
        sizes_help="per-rank tile edges in cells (default 32,64)",
    )
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args(argv)
    tiles = args.sizes or (32, 64)

    rows = []
    for tile in tiles:
        cluster = Cluster.plafrim(args.nodes, binding="rr")
        engine = Engine(cluster, seed=args.seed)
        stats = engine.run(co_run_stencil,
                           args=(StencilConfig(tile=tile), args.iters))
        worst = max(stats, key=lambda s: s["time"])
        rows.append((tile, round(worst["time"], 5),
                     round(worst["comm_time"], 5)))
    print(render_table(
        ["tile", "time (s)", "comm (s)"], rows,
        title=f"{args.iters} Jacobi iterations on "
              f"{cluster.n_ranks} round-robin ranks",
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
