"""The oracle of recorded-order replay: the timing rules of
``repro.replay.engine``'s docstring, one event tuple at a time, every
S/P/G through the real :meth:`Network.transfer`.

This is the interpreter the engine itself used before it priced
messages by cost class; it stays here because it is the *live*
arithmetic — the engine's loop is pinned ``==`` to it, never to itself.
"""

from repro.replay.engine import ReplayError, _build_network


def reference_replay(trace, binding=None, topology=None, params=None,
                     seed=None, exact=False):
    """``(clocks, n_messages)`` of ``trace`` re-costed in recorded
    order; ``exact`` issues every event at its recorded ``t`` instead of
    its rank's clock plus the recorded gap."""
    net = _build_network(trace, binding, topology, params, seed)
    overhead = trace.monitoring_overhead
    last = [0.0] * trace.world_size
    arrivals = {}
    for ev in trace.events:
        kind, r = ev[0], ev[1]
        if kind in "BE":
            continue
        tt = ev[-2] if exact else last[r] + ev[-1]
        if kind == "R":
            if ev[2] not in arrivals:
                raise ReplayError(
                    f"receive references unsent message #{ev[2]}")
            last[r] = max(tt, arrivals[ev[2]]) + net.recv_overhead
        elif kind == "F":
            last[r] = tt
        else:
            peer, nbytes = ev[2], ev[3]
            if (ev[5] if kind == "S" else ev[4]) and overhead > 0.0:
                tt = tt + overhead          # the monitoring charge
            if kind == "G":
                # The request flies to the target, the data comes back.
                t_req = tt + net._alpha_l[r * net._n_ranks + peer]
                _, arr = net.transfer(peer, r, nbytes, t_req)
                last[r] = max(tt, arr) + net.recv_overhead
            else:
                last[r], arr = net.transfer(r, peer, nbytes, tt)
                if kind == "S":
                    arrivals[ev[6]] = arr
    return last, net.n_messages
