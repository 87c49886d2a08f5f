"""Collective operations, all decomposed into point-to-point messages.

Every algorithm here is implemented strictly on top of
``Communicator._co_isend`` / ``_irecv`` with the ``"coll"`` category, so
the monitoring component records the *decomposition* of each collective
— the paper's headline capability (§1, §4.5): a reduce is seen as its
tree of sends, not as one opaque API call.

Each module offers several algorithms (mirroring Open MPI's tuned
collective component); the paper's experiments use the binomial-tree
broadcast and the in-order binary-tree reduce (Fig. 5 captions).
Every rooted tree lives in :func:`bcast.tree` / :func:`reduce.tree`:
gather, scatter, the tree barrier and replay substitution walk them,
and per-rank pieces travel packed by :func:`util.pack`.

Every decomposition is written once, as a ``co_*`` generator; the
blocking spelling is the ``Communicator`` method of the same name.  An
entry point that only validates and picks an algorithm returns that
algorithm's generator (``()`` or ``util.done`` on one rank), so a
parked rank holds no frame for it.  What each entry runs when the
caller names no algorithm is :func:`default_algorithm`.
"""

from repro.simmpi.collectives.barrier import co_barrier  # noqa: F401
from repro.simmpi.collectives.bcast import co_bcast  # noqa: F401
from repro.simmpi.collectives.reduce import co_reduce  # noqa: F401
from repro.simmpi.collectives.allreduce import co_allreduce  # noqa: F401
from repro.simmpi.collectives.gather import co_gather  # noqa: F401
from repro.simmpi.collectives.scatter import co_scatter  # noqa: F401
from repro.simmpi.collectives.allgather import co_allgather  # noqa: F401
from repro.simmpi.collectives.alltoall import co_alltoall  # noqa: F401
from repro.simmpi.collectives.util import default_algorithm  # noqa: F401
