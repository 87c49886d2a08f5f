"""Paper Fig. 2 + Fig. 3 (§6.1): hardware counters vs. introspection.

Two ranks on two Infiniband nodes.  Rank 0 repeatedly sends a random
1–800 KB message and sleeps 50–1000 ms; a sampler polls, every 10 ms,
both the NIC's ``port_xmit_data`` counter (multiplied by the lane
count, as the Mellanox documentation prescribes) and the introspection
library (session read + reset, "we use the reset features of the
library session to monitor only what has happened between two
measurements").

Fig. 2 is the two per-window time series; Fig. 3 the cumulative curves.
The claim to reproduce: the two monitors report the same volumes with a
barely-visible time offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core import api as mapi
from repro.core.constants import Flags, MPI_M_DATA_IGNORE
from repro.core.errors import raise_for_code
from repro.experiments.common import render_table
from repro.simmpi import Cluster, Engine

__all__ = ["CounterComparison", "run", "report", "DEFAULT_SIZE_RANGE"]

DEFAULT_SIZE_RANGE = (1_000, 800_000)  # the paper's random 1–800 KB sends

_SENTINEL_TAG = 99
_DATA_TAG = 7


@dataclass
class CounterComparison:
    """The experiment outcome: aligned 10 ms samples of both monitors."""

    times: np.ndarray  # sample instants (s)
    hw_window: np.ndarray  # bytes seen by the NIC counter per window
    mon_window: np.ndarray  # bytes seen by the introspection library
    total_sent: int  # ground truth: bytes rank 0 passed to send()

    @property
    def hw_cumulative(self) -> np.ndarray:
        return np.cumsum(self.hw_window)

    @property
    def mon_cumulative(self) -> np.ndarray:
        return np.cumsum(self.mon_window)

    @property
    def max_cumulative_lag(self) -> int:
        """Largest instantaneous |HW − introspection| cumulative gap."""
        return int(np.abs(self.hw_cumulative - self.mon_cumulative).max())


def _sender(comm, duration: float, sample_dt: float, seed: int,
            size_range=DEFAULT_SIZE_RANGE, sleep_range=(0.05, 1.0)):
    engine = comm.engine
    nic = engine.network.nic
    lanes = nic.lanes
    my_node = engine.cluster.node_of_rank(comm.world_rank(comm.rank))

    raise_for_code(mapi.mpi_m_init())
    err, msid = mapi.mpi_m_start(comm)
    raise_for_code(err)

    rng = np.random.default_rng(seed)
    times: List[float] = []
    hw: List[int] = []
    mon: List[int] = []
    def now():
        return comm.co_time()

    hw_prev = nic.port_xmit_data(my_node, (yield from now())) * lanes
    next_sample = (yield from now()) + sample_dt
    total_sent = 0

    def sample(t: float) -> None:
        # ``t`` is the caller's clock, read (and its deferred send
        # settled) just now, so the plain monitoring calls below find
        # nothing to park on.
        nonlocal hw_prev
        hw_now = nic.port_xmit_data(my_node, t) * lanes
        raise_for_code(mapi.mpi_m_suspend(msid))
        err, _, sizes = mapi.mpi_m_get_data(
            msid, MPI_M_DATA_IGNORE, None, Flags.ALL_COMM
        )
        raise_for_code(err)
        raise_for_code(mapi.mpi_m_reset(msid))
        raise_for_code(mapi.mpi_m_continue(msid))
        times.append(t)
        hw.append(hw_now - hw_prev)
        mon.append(int(sizes.sum()))
        hw_prev = hw_now

    t_end = (yield from now()) + duration
    while (yield from now()) < t_end:
        size = int(rng.integers(size_range[0], size_range[1]))
        yield from comm.co_send(None, dest=1, tag=_DATA_TAG, nbytes=size)
        total_sent += size
        sleep_for = float(rng.uniform(*sleep_range))
        target = (yield from now()) + sleep_for
        while (yield from now()) < target:
            if next_sample <= target:
                yield from comm.co_sleep(
                    max(0.0, next_sample - (yield from now())))
                sample((yield from now()))
                next_sample += sample_dt
            else:
                yield from comm.co_sleep(target - (yield from now()))
    # Final drain sample, then stop the receiver.
    yield from comm.co_sleep(max(0.0, next_sample - (yield from now())))
    sample((yield from now()))
    yield from comm.co_send(None, dest=1, tag=_SENTINEL_TAG, nbytes=0)
    yield from comm.co_sync()
    raise_for_code(mapi.mpi_m_suspend(msid))
    raise_for_code(mapi.mpi_m_free(msid))
    raise_for_code(mapi.mpi_m_finalize())
    return CounterComparison(
        times=np.asarray(times),
        hw_window=np.asarray(hw, dtype=np.int64),
        mon_window=np.asarray(mon, dtype=np.int64),
        total_sent=total_sent,
    )


def _receiver(comm):
    while True:
        msg = yield from comm.co_recv(source=0)
        if msg.tag == _SENTINEL_TAG:
            return None


def run(duration: float = 5.0, sample_dt: float = 0.010, seed: int = 42,
        jitter: float = 0.0, size_range=DEFAULT_SIZE_RANGE) -> CounterComparison:
    """Run the §6.1 comparison; returns the aligned sample series."""
    cluster = Cluster.ib_pair(jitter=jitter, seed=seed)
    engine = Engine(cluster, seed=seed)

    def program(comm):
        if comm.rank == 0:
            return (yield from _sender(comm, duration, sample_dt, seed,
                                       size_range=size_range))
        return (yield from _receiver(comm))

    results = engine.run(program)
    return results[0]


def report(result: CounterComparison) -> str:
    """Text rendering of Fig. 2/3's takeaways."""
    rows = [
        ("bytes sent by the program", result.total_sent),
        ("bytes seen by HW counters", int(result.hw_window.sum())),
        ("bytes seen by introspection", int(result.mon_window.sum())),
        ("max cumulative lag (bytes)", result.max_cumulative_lag),
        ("samples (10 ms windows)", len(result.times)),
    ]
    return render_table(
        ["quantity", "value"], rows,
        title="Fig. 2/3 — HW counters vs introspection monitoring",
    )
