"""Simulated network-interface hardware counters.

The paper's §6.1 experiment compares the introspection library against
the Infiniband ``port_xmit_data`` hardware counter, which counts *in
units of four bytes* (one per lane) — readers must multiply by the
number of lanes (see the Mellanox note cited as [1] in the paper).

:class:`NicCounters` reproduces that interface for the simulated
cluster: every time a message crosses a node boundary the network model
appends to the source node's transmit and the destination node's
receive history, and any process (or a monitoring thread) can
read the counter *as of a given virtual time*, exactly like polling the
``/sys/class/infiniband/.../port_xmit_data`` file.
"""

from __future__ import annotations

import bisect
from array import array
from typing import List, Tuple

__all__ = ["NicCounters"]


class _Series:
    """One counter's history: event times and cumulative byte totals in
    typed arrays (16 B per event), plus the running tail (last time,
    running total) as plain numbers, so a writer never unboxes an array
    element.  Events arrive in simulation order, which can differ
    slightly from virtual-time order, so a time is clamped to the tail
    to keep the series monotone (a real counter is too).  :meth:`add` is
    the one writer of the tail, reached from ``Network.transfer`` (every
    cross-node message) and :meth:`NicCounters.record_xmit` /
    :meth:`~NicCounters.record_rcv`.  A total that leaves int64 raises
    ``OverflowError`` and changes nothing.
    """

    __slots__ = ("times", "totals", "last", "total")

    def __init__(self) -> None:
        self.times = array("d")
        self.totals = array("q")
        self.last = float("-inf")
        self.total = 0

    def add(self, time: float, nbytes: int) -> None:
        if time < self.last:
            time = self.last
        total = self.total + nbytes
        self.totals.append(total)
        self.times.append(time)
        self.last = time
        self.total = total


class NicCounters:
    """Per-node transmit/receive byte counters with timestamped history."""

    def __init__(self, n_nodes: int, lanes: int = 4):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.n_nodes = n_nodes
        self.lanes = lanes
        self._xmit: List[_Series] = [_Series() for _ in range(n_nodes)]
        self._rcv: List[_Series] = [_Series() for _ in range(n_nodes)]

    # -- recording (called by the network model) ------------------------

    def record_xmit(self, node: int, time: float, nbytes: int) -> None:
        self._xmit[node].add(time, int(nbytes))

    def record_rcv(self, node: int, time: float, nbytes: int) -> None:
        self._rcv[node].add(time, int(nbytes))

    # -- reading (what the experiment's sampler thread does) ------------

    def port_xmit_data(self, node: int, time: float) -> int:
        """The raw counter value at virtual ``time``, in 4-byte lane units.

        Like the hardware counter, the value must be multiplied by
        :attr:`lanes` to obtain bytes.
        """
        return self.xmit_bytes(node, time) // self.lanes

    def xmit_bytes(self, node: int, time: float) -> int:
        """Cumulative bytes transmitted by ``node``'s NIC up to ``time``."""
        return self._read(self._xmit, node, time)

    def rcv_bytes(self, node: int, time: float) -> int:
        return self._read(self._rcv, node, time)

    def _read(self, table: List[_Series], node: int, time: float) -> int:
        series = self._series(table, node)
        i = bisect.bisect_right(series.times, time)
        return series.totals[i - 1] if i else 0

    def _series(self, table: List[_Series], node: int) -> _Series:
        """``table[node]`` for an existing node only: a negative index
        would silently answer for another node."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"no node {node}")
        return table[node]

    # -- introspection helpers ------------------------------------------

    def xmit_events(self, node: int) -> List[Tuple[float, int]]:
        """The full (time, cumulative bytes) transmit history of a node."""
        series = self._series(self._xmit, node)
        return list(zip(series.times, series.totals))

    def rcv_events(self, node: int) -> List[Tuple[float, int]]:
        """The full (time, cumulative bytes) receive history of a node."""
        series = self._series(self._rcv, node)
        return list(zip(series.times, series.totals))

    def total_xmit_bytes(self, node: int) -> int:
        return self._series(self._xmit, node).total
