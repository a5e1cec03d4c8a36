"""Deadlock peeling over the flow/channel bipartite graph.

The graph is the routing incidence (`model.RoutingSystem`) that
`build_routing_system` validated: each path is a flow node attached to its
directed channels, each numbered 2 * edge + direction (its `directed` ids,
which sort as (edge, direction) pairs do, so the opposite direction of
channel c is c ^ 1). The routing's `directed_paths` view finds the flows a
processed channel touches. Single-hop flows guarantee their channel's
reverse direction can always be refilled, so those reverse directions seed
a ripple of known-good directed channels. Processing a channel deletes it
from every flow; flows shrinking to one hop vouch for that hop's reverse,
and flows shrinking to zero vouch for the reverses of everything they
initially used.

A flow is never rebuilt: it keeps the count of its hops not yet processed
and the sum of their channel ids. Processing a channel lowers the count by
one and the sum by the channel's id, so when the count reaches one the sum
is the last hop. A validated path crosses each edge at most once, which
makes the count and the sum exact.

Peeling every directed channel proves the instance deadlock-free. A stall
proves nothing by itself: the unpeeled edge set is only an upper bound on
the deadlock-prone region (exact answers live in the oracle module).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .model import CreditNetwork, PathSet, RoutingSystem, build_routing_system

SUCCESS = "Success"
FAILURE = "Failure"


@dataclass(frozen=True)
class PeelResult:
    processed: frozenset[tuple[int, int]]  # (edge, direction) pairs
    unpeeled_edges: frozenset[int]
    ripple_trace: tuple[tuple[int, int, int], ...]
    outcome: str


def build_peeling_graph(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """The bipartite graph peeling runs on: the validated routing incidence."""
    return build_routing_system(network, paths)


def peel(routing: RoutingSystem, seed: int, pairing: bool = False) -> PeelResult:
    """Run the ripple process to exhaustion; the input routing is left untouched.

    The routing must come from `build_routing_system` (or
    `build_peeling_graph`): the per-flow count and sum rely on its check
    that no path uses an edge twice.

    Pop order over the ripple is uniform via the seeded generator. With
    `pairing` on, a processed channel whose reverse is already rippling pulls
    that reverse forward to be processed immediately after it.
    """
    rng = random.Random(seed)
    total = 2 * routing.edge_count
    on_channel = routing.directed_paths
    hops = routing.directed.tolist()
    starts = routing.indptr.tolist()
    # per flow: the hops not yet processed, and the sum of their ids
    left = np.diff(routing.indptr).tolist()
    running = np.concatenate(([0], np.cumsum(routing.directed)))
    rest = (running[routing.indptr[1:]] - running[routing.indptr[:-1]]).tolist()
    processed = bytearray(total)
    released = bytearray(total)  # rippling or processed
    # kept sorted, so the seeded pick goes by rank without a sort per step
    ripple: list[int] = []

    def release(channel: int) -> None:
        if not released[channel]:
            released[channel] = 1
            insort(ripple, channel)

    # single-hop flows seed the ripple
    for i, count in enumerate(left):
        if count == 1:
            release(rest[i] ^ 1)

    trace = [(0, len(ripple), total)]
    step = 0
    forced: list[int] = []
    while ripple:
        if forced:
            current = forced.pop()
        else:
            current = rng.choice(ripple)
        del ripple[bisect_left(ripple, current)]
        processed[current] = 1
        step += 1
        for i in on_channel[current]:
            count = left[i] - 1
            left[i] = count
            rest[i] -= current
            if count == 1:
                release(rest[i] ^ 1)
            elif count == 0:
                for channel in hops[starts[i]:starts[i + 1]]:
                    release(channel ^ 1)
        trace.append((step, len(ripple), total - step))
        if pairing:
            twin = current ^ 1
            if released[twin] and not processed[twin]:
                forced.append(twin)

    unpeeled = frozenset(
        e for e, both in enumerate(zip(processed[0::2], processed[1::2]))
        if not all(both)
    )
    return PeelResult(
        processed=frozenset(divmod(c, 2) for c in range(total) if processed[c]),
        unpeeled_edges=unpeeled,
        ripple_trace=tuple(trace),
        outcome=SUCCESS if step == total else FAILURE,
    )


def ripple_trace_csv(result: PeelResult) -> str:
    lines = ["unprocessed_symbols,ripple_size"]
    for _, ripple_size, unprocessed in result.ripple_trace:
        lines.append(f"{unprocessed},{ripple_size}")
    return "\n".join(lines) + "\n"
