"""Reproduction of *Improving MPI Application Communication Time with an
Introspection Monitoring Library* (Jeannot & Sartori, Inria RR-9292 /
IPDPS-W 2020).

The package is organised as:

``repro.simmpi``
    A deterministic, simulated MPI runtime.  Collective operations are
    implemented on top of the simulator's point-to-point layer, so the
    monitoring component observes collectives *after* decomposition into
    point-to-point messages — the same vantage point as the Open MPI
    monitoring component the paper builds on.

``repro.core``
    The paper's contribution: the ``MPI_M`` introspection monitoring
    library (sessions, data accessors, flush files) implemented strictly
    against the simulated MPI_T interface, plus a Pythonic
    context-manager front-end.

``repro.placement``
    TreeMatch process placement, baseline mappers, placement metrics, and
    the paper's dynamic rank-reordering algorithm (Fig. 1).

``repro.apps``
    Workloads: the NAS CG kernel (paper §6.5), a halo-exchange stencil,
    and the grouped-allgather micro-benchmark (paper §6.4).

``repro.experiments``
    One cell function per paper table/figure; the grids are the
    scenarios of ``repro.sweep.registry``.  See DESIGN.md §5.
"""

__version__ = "1.0.0"

from repro.simmpi import Cluster, Engine  # noqa: F401
from repro.core import (  # noqa: F401
    MonitoringError,
    MonitoringSession,
    mpi_m_allgather_data,
    mpi_m_continue,
    mpi_m_finalize,
    mpi_m_flush,
    mpi_m_free,
    mpi_m_get_data,
    mpi_m_get_info,
    mpi_m_init,
    mpi_m_reset,
    mpi_m_rootflush,
    mpi_m_rootgather_data,
    mpi_m_start,
    mpi_m_suspend,
)
