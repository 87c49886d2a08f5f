"""The oracle of re-placed replay: the program itself, run again.

``reference.py`` holds the recorded-order loop to the live *arithmetic*
(every message through the real ``Network.transfer``, in the recorded
order).  This holds the ready-set scheduler to the live *schedule*: the
same program on the cluster the trace was recorded on, under another
binding, through the real engine — the answer a replay under that
binding is an estimate of.
"""

from repro.replay.schema import build_cluster
from repro.simmpi import Engine


def live_clocks(trace, program, binding=None):
    """Per-rank final clocks of ``program`` re-run on ``trace``'s
    cluster (``binding``: rank -> PU, default the recorded one)."""
    engine = Engine(build_cluster(trace, binding), seed=trace.seed,
                    monitoring_overhead=trace.monitoring_overhead)
    engine.run(program)
    return list(engine.clocks())
