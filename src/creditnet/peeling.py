"""Deadlock peeling over the flow/channel bipartite graph.

The graph is the routing incidence (`model.RoutingSystem`): each path is a
flow node attached to its directed channels (an edge index plus a
direction), and the routing's channel -> path view finds the flows a
processed channel touches. Single-hop flows guarantee their channel's reverse
direction can always be refilled, so those reverse directions seed a ripple
of known-good directed channels. Processing a channel deletes it from every
flow; flows shrinking to one hop vouch for that hop's reverse, and flows
shrinking to zero vouch for the reverses of everything they initially used.

Peeling every directed channel proves the instance deadlock-free. A stall
proves nothing by itself: the unpeeled edge set is only an upper bound on
the deadlock-prone region (exact answers live in the oracle module).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from .model import (
    BACKWARD,
    FORWARD,
    CreditNetwork,
    PathSet,
    RoutingSystem,
    build_routing_system,
)

SUCCESS = "Success"
FAILURE = "Failure"

DirectedChannel = tuple[int, int]


def opposite(channel: DirectedChannel) -> DirectedChannel:
    edge, direction = channel
    return (edge, BACKWARD if direction == FORWARD else FORWARD)


@dataclass(frozen=True)
class PeelResult:
    processed: frozenset[DirectedChannel]
    unpeeled_edges: frozenset[int]
    ripple_trace: tuple[tuple[int, int, int], ...]
    outcome: str


def build_peeling_graph(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """The bipartite graph peeling runs on: the validated routing incidence."""
    return build_routing_system(network, paths)


def peel(routing: RoutingSystem, seed: int, pairing: bool = False) -> PeelResult:
    """Run the ripple process to exhaustion; the input routing is left untouched.

    Pop order over the ripple is uniform via the seeded generator. With
    `pairing` on, a processed channel whose reverse is already rippling pulls
    that reverse forward to be processed immediately after it.
    """
    rng = random.Random(seed)
    hops = [list(h) for h in routing.hops]
    total = 2 * routing.edge_count
    processed: set[DirectedChannel] = set()
    released: set[DirectedChannel] = set()  # rippling or processed
    # kept sorted, so the seeded pick goes by rank without a sort per step
    ripple: list[DirectedChannel] = []

    def release(channel: DirectedChannel) -> None:
        if channel not in released:
            released.add(channel)
            insort(ripple, channel)

    for i, initial in enumerate(routing.hops):
        if len(initial) == 1:
            hops[i] = []
            release(opposite(initial[0]))

    trace = [(0, len(ripple), total)]
    step = 0
    forced: list[DirectedChannel] = []
    while ripple:
        if forced:
            current = forced.pop()
        else:
            current = rng.choice(ripple)
        del ripple[bisect_left(ripple, current)]
        processed.add(current)
        step += 1
        edge, direction = current
        for i, d in routing.channel_paths[edge]:
            # a flow with no hops left is done: single-hop flows from the
            # start, the others once their last channel is processed
            if d != direction or not hops[i]:
                continue
            hops[i] = [c for c in hops[i] if c != current]
            degree = len(hops[i])
            if degree == 1:
                release(opposite(hops[i][0]))
            elif degree == 0:
                for channel in routing.hops[i]:
                    release(opposite(channel))
        trace.append((step, len(ripple), total - step))
        if pairing:
            twin = opposite(current)
            if twin in released and twin not in processed:
                forced.append(twin)

    unpeeled = frozenset(
        e
        for e in range(routing.edge_count)
        if (e, FORWARD) not in processed or (e, BACKWARD) not in processed
    )
    outcome = SUCCESS if len(processed) == total else FAILURE
    return PeelResult(
        processed=frozenset(processed),
        unpeeled_edges=unpeeled,
        ripple_trace=tuple(trace),
        outcome=outcome,
    )


def ripple_trace_csv(result: PeelResult) -> str:
    lines = ["unprocessed_symbols,ripple_size"]
    for _, ripple_size, unprocessed in result.ripple_trace:
        lines.append(f"{unprocessed},{ripple_size}")
    return "\n".join(lines) + "\n"
