"""Cluster description: topology + process binding + network parameters.

A :class:`Cluster` bundles everything the engine needs to time messages:
the hardware tree, where each rank is pinned, and the link parameters.
Presets reproduce the paper's two testbeds (PlaFRIM and the Infiniband
EDR pair of §6.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.simmpi.binding import make_binding, validate_binding
from repro.simmpi.network import NetworkParams, ib_pair_params, plafrim_params
from repro.simmpi.topology import Topology

__all__ = ["Cluster"]


class Cluster:
    """A simulated machine plus a rank→core binding.

    Parameters
    ----------
    topology:
        The hardware tree.
    n_ranks:
        Number of MPI ranks (``<=`` number of PUs).
    binding:
        Either a strategy name (``"packed"``/``"standard"``,
        ``"round_robin"``/``"rr"``, ``"random"``) or an explicit PU list.
    params:
        Network cost parameters; defaults to the PlaFRIM preset.
    seed:
        Seed for the ``random`` binding strategy.
    """

    def __init__(
        self,
        topology: Topology,
        n_ranks: int,
        binding: Union[str, Sequence[int]] = "packed",
        params: Optional[NetworkParams] = None,
        seed: int = 0,
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_ranks > topology.n_pus:
            raise ValueError(f"{n_ranks} ranks exceed {topology.n_pus} PUs")
        self.topology = topology
        self.n_ranks = int(n_ranks)
        if isinstance(binding, str):
            self.binding: List[int] = make_binding(topology, n_ranks, binding, seed)
            self.binding_strategy = binding
        else:
            self.binding = validate_binding(topology, binding, n_ranks)
            self.binding_strategy = "explicit"
        self.params = params if params is not None else plafrim_params()

    # -- presets ------------------------------------------------------------

    @classmethod
    def plafrim(
        cls,
        n_nodes: int,
        n_ranks: Optional[int] = None,
        binding: Union[str, Sequence[int]] = "packed",
        jitter: float = 0.0,
        seed: int = 0,
    ) -> "Cluster":
        """The paper's main testbed: dual-socket 12-core nodes, OmniPath.

        Default rank count is one rank per core (24 per node), matching
        the paper's "one MPI process per core" setup.
        """
        topo = Topology([("node", n_nodes), ("socket", 2), ("core", 12)])
        n = topo.n_pus if n_ranks is None else n_ranks
        return cls(topo, n, binding=binding, params=plafrim_params(jitter), seed=seed)

    @classmethod
    def ib_pair(cls, jitter: float = 0.0, seed: int = 0) -> "Cluster":
        """The §6.1 testbed: two Infiniband EDR nodes, one rank each.

        Ranks 0 and 1 are pinned on *different* nodes so every message
        crosses the NIC, as in the hardware-counter comparison.
        """
        topo = Topology([("node", 2), ("socket", 2), ("core", 18)])
        binding = [0, topo.n_pus // 2]  # core 0 of node 0 and of node 1
        return cls(topo, 2, binding=binding, params=ib_pair_params(jitter), seed=seed)

    # -- conveniences ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.topology.n_components(self.topology.level_names[0])

    def node_of_rank(self, rank: int) -> int:
        return self.topology.node_of(self.binding[rank])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.topology!r}, n_ranks={self.n_ranks}, "
            f"binding={self.binding_strategy})"
        )
