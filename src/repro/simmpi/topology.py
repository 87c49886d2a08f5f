"""Hierarchical hardware topology, in the style of hwloc / TreeMatch.

A :class:`Topology` is a balanced tree described by a list of
``(level_name, arity)`` pairs from the root down.  Leaves are processing
units (PUs, i.e. cores).  For example PlaFRIM nodes from the paper —
two 12-core Haswell sockets per node — with 4 nodes::

    Topology([("node", 4), ("socket", 2), ("core", 12)])

has 96 PUs.  The *depth of the deepest common ancestor* of two PUs
determines which latency/bandwidth class a message between them pays
(see :mod:`repro.simmpi.network`) and is the distance notion TreeMatch
optimizes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Topology"]


class Topology:
    """A balanced tree of hardware components.

    Parameters
    ----------
    levels:
        ``(name, arity)`` pairs from the root's children down to the
        leaves.  ``arity`` is the number of children of each component of
        the level *above*; the first entry is the number of top-level
        components (e.g. nodes in the cluster).
    """

    def __init__(self, levels: Sequence[Tuple[str, int]]):
        if not levels:
            raise ValueError("topology needs at least one level")
        names = [str(n) for n, _ in levels]
        arities = [int(a) for _, a in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names: {names}")
        if any(a < 1 for a in arities):
            raise ValueError(f"level arities must be >= 1: {arities}")
        self._names: List[str] = names
        self._arities: List[int] = arities
        # strides[d] = number of leaves under one component at depth d+1;
        # used to convert a leaf index into per-level coordinates.
        strides = []
        acc = 1
        for a in reversed(arities):
            strides.append(acc)
            acc *= a
        self._strides = list(reversed(strides))
        self._n_pus = acc
        # sharing class of two PUs, by the depth of their common ancestor
        self._classes = ["cluster"] + names[:-1] + ["self"]

    # -- basic shape ---------------------------------------------------

    @property
    def level_names(self) -> List[str]:
        return list(self._names)

    @property
    def arities(self) -> List[int]:
        """Arity list from root down — the input TreeMatch consumes."""
        return list(self._arities)

    @property
    def depth(self) -> int:
        """Number of levels below the root."""
        return len(self._arities)

    @property
    def n_pus(self) -> int:
        """Total number of leaves (cores)."""
        return self._n_pus

    # -- coordinates ---------------------------------------------------

    def coords(self, pu: int) -> Tuple[int, ...]:
        """Per-level component indices of a PU, root-side first.

        ``coords(pu)[d]`` is the index (within its parent) of the depth-d
        component containing ``pu``.
        """
        self._check_pu(pu)
        out = []
        rem = pu
        for stride, arity in zip(self._strides, self._arities):
            out.append((rem // stride) % arity)
            rem %= stride
        return tuple(out)

    def component_of(self, pu: int, level: str) -> int:
        """Global index of the ``level`` component containing ``pu``."""
        d = self._level_index(level)
        self._check_pu(pu)
        stride = self._strides[d]
        return pu // stride

    def node_of(self, pu: int) -> int:
        """Convenience: index of the first-level component (the node)."""
        return self.component_of(pu, self._names[0])

    def n_components(self, level: str) -> int:
        d = self._level_index(level)
        n = 1
        for a in self._arities[: d + 1]:
            n *= a
        return n

    # -- distances -----------------------------------------------------

    def common_depth(self, pu_a: int, pu_b: int) -> int:
        """Depth of the deepest common ancestor of two PUs.

        ``depth`` (== ``self.depth``) means the same PU; ``0`` means the
        PUs share only the root (different nodes).
        """
        self._check_pu(pu_a)
        self._check_pu(pu_b)
        if pu_a == pu_b:
            return self.depth
        d = 0
        for stride in self._strides:
            if pu_a // stride != pu_b // stride:
                return d
            d += 1
        return self.depth

    def common_level_name(self, pu_a: int, pu_b: int) -> str:
        """Name of the deepest level whose component both PUs share.

        Returns ``"self"`` for identical PUs and ``"cluster"`` when the
        PUs share nothing below the root.
        """
        return self._classes[self.common_depth(pu_a, pu_b)]

    @property
    def sharing_classes(self) -> List[str]:
        """:meth:`common_level_name` by :meth:`common_depth`:
        ``"cluster"``, every level but the leaves', ``"self"``."""
        return list(self._classes)

    def common_depths(self, pus_a, pus_b) -> np.ndarray:
        """:meth:`common_depth` of many PU pairs at once: two integer
        arrays of one length in, their depths out."""
        a = np.asarray(pus_a, dtype=np.int64)
        b = np.asarray(pus_b, dtype=np.int64)
        for pus in (a, b):
            if len(pus) and not 0 <= pus.min() <= pus.max() < self._n_pus:
                raise ValueError(f"PU out of range [0, {self._n_pus})")
        # Strides nest, so the components that match are a prefix of the
        # levels and counting them gives the depth (all of them: same PU).
        depth = np.zeros(len(a), dtype=np.intp)
        for stride in self._strides:
            depth += a // stride == b // stride
        return depth

    def hop_distance(self, pu_a: int, pu_b: int) -> int:
        """Tree distance: number of edges on the leaf-to-leaf path."""
        return 2 * (self.depth - self.common_depth(pu_a, pu_b))

    # -- helpers ---------------------------------------------------------

    def _level_index(self, level: str) -> int:
        try:
            return self._names.index(level)
        except ValueError:
            raise ValueError(f"unknown level {level!r}; have {self._names}") from None

    def _check_pu(self, pu: int) -> None:
        if not 0 <= pu < self._n_pus:
            raise ValueError(f"PU {pu} out of range [0, {self._n_pus})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spec = ", ".join(f"{n}x{a}" for n, a in zip(self._names, self._arities))
        return f"Topology({spec}; {self._n_pus} PUs)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Topology)
            and self._names == other._names
            and self._arities == other._arities
        )

    def __hash__(self) -> int:
        return hash((tuple(self._names), tuple(self._arities)))
