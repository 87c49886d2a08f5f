"""``repro.simmpi`` — a deterministic, simulated MPI runtime.

The simulator replaces the Open MPI + PlaFRIM-cluster substrate of the
paper (see DESIGN.md §2): rank programs are generators over the ``co_*``
API — or ordinary blocking Python functions, run through a thread
adapter — resumed one at a time by a deterministic scheduler with
per-rank virtual clocks; collectives are decomposed into point-to-point messages at a
single monitored choke point; message timing follows a hierarchical
Hockney model over an hwloc-like topology with per-node NIC
serialization and simulated hardware counters.
"""

from repro.simmpi.cluster import Cluster  # noqa: F401
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, Communicator  # noqa: F401
from repro.simmpi.datatypes import (  # noqa: F401
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    UNSIGNED,
    UNSIGNED_LONG,
    Buffer,
    Datatype,
)
from repro.simmpi.engine import Engine, SimProcess, current_process  # noqa: F401
from repro.simmpi.errorsim import (  # noqa: F401
    CommError,
    DeadlockError,
    RankFailure,
    SimError,
)
from repro.simmpi.network import (  # noqa: F401
    LinkParams,
    Network,
    NetworkParams,
    ib_pair_params,
    plafrim_params,
)
from repro.simmpi.op import BAND, BOR, LAND, LOR, MAX, MIN, PROD, SUM, Op  # noqa: F401
from repro.simmpi.osc import Window  # noqa: F401
from repro.simmpi.topology import Topology  # noqa: F401

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BOR",
    "BYTE",
    "Buffer",
    "CHAR",
    "Cluster",
    "CommError",
    "Communicator",
    "DOUBLE",
    "Datatype",
    "DeadlockError",
    "Engine",
    "FLOAT",
    "INT",
    "LAND",
    "LONG",
    "LOR",
    "LinkParams",
    "MAX",
    "MIN",
    "Network",
    "NetworkParams",
    "Op",
    "PROD",
    "RankFailure",
    "SUM",
    "SimError",
    "SimProcess",
    "Topology",
    "UNSIGNED",
    "UNSIGNED_LONG",
    "Window",
    "current_process",
    "ib_pair_params",
    "plafrim_params",
]
