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

The processed set is the least fixed point of that monotone release rule:
the stopping set of erasure decoding, the same for every pick order (Di,
Proietti, Telatar, Richardson & Urbanke, "Finite-length analysis of
low-density parity-check codes on the binary erasure channel", IEEE Trans.
Inf. Theory 48(6), 2002). So `processed`, `unpeeled_edges` and `outcome`
do not depend on the seed or on `pairing`; only the ripple trace does.
Two decoders compute it:

- `peel` pops one directed channel per Python step and records the ripple
  trace. `creditnet analyze` (which writes the trace) and `creditnet
  verify` use it, and the tests take it as the reference.
- `residue` processes the whole ripple at once in numpy rounds, at
  O(channels + hops) a round. The sweep cell uses it: its routes are
  shortest paths on generated graphs, which peel in a few rounds, where it
  is several times faster than `peel`. A route file can be a chain that
  releases one channel a round, and there it is far slower (thousands of
  rounds), so the commands that read route files keep `peel`.
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


@dataclass(frozen=True)
class Residue:
    processed: frozenset[tuple[int, int]]  # (edge, direction) pairs
    unpeeled_edges: frozenset[int]
    rounds: tuple[int, ...]  # channels processed in each round
    outcome: str


def build_peeling_graph(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """`build_routing_system` under its old name, kept because perfbench imports it."""
    return build_routing_system(network, paths)


def _unprocessed(routing: RoutingSystem) -> tuple[np.ndarray, np.ndarray]:
    """Per flow: the count of its hops not yet processed, and the sum of
    their ids, before any channel is processed."""
    running = np.concatenate(([0], np.cumsum(routing.directed)))
    return (np.diff(routing.indptr),
            running[routing.indptr[1:]] - running[routing.indptr[:-1]])


def peel(routing: RoutingSystem, seed: int, pairing: bool = False) -> PeelResult:
    """Run the ripple process to exhaustion; the input routing is left untouched.

    The routing must come from `build_routing_system`: the per-flow count
    and sum rely on its check that no path uses an edge twice.

    Pop order over the ripple is uniform via the seeded generator. With
    `pairing` on, a processed channel whose reverse is already rippling pulls
    that reverse forward to be processed immediately after it.
    """
    rng = random.Random(seed)
    total = 2 * routing.edge_count
    on_channel = routing.directed_paths
    hops = routing.directed.tolist()
    starts = routing.indptr.tolist()
    left, rest = (a.tolist() for a in _unprocessed(routing))
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


def residue(routing: RoutingSystem) -> Residue:
    """`peel`'s processed set, unpeeled edges and outcome, in numpy rounds.

    Each round processes the whole ripple (the frontier) at once: it lowers
    every flow's count and hop-id sum by the frontier hops it holds, then
    releases by `peel`'s rule, the last hop's reverse for flows brought to
    one hop and every hop's reverse for flows brought to zero. A flow that
    skips from two or more hops to zero in one round releases a superset of
    what one hop would, so the fixed point is `peel`'s. Hopless flows start
    at zero and release nothing. Takes a routing from
    `build_routing_system`, for the same reason as `peel`.
    """
    total = 2 * routing.edge_count
    hops, path = routing.directed, routing.path
    flows = routing.path_count
    left, rest = _unprocessed(routing)
    frontier = np.zeros(total, dtype=bool)
    frontier[rest[left == 1] ^ 1] = True
    # each round processes what the round before released
    released = frontier.copy()
    rounds = []
    while True:
        size = int(np.count_nonzero(frontier))
        if not size:
            break
        rounds.append(size)
        hit = frontier[hops]
        on = path[hit]
        drop = np.bincount(on, minlength=flows)
        left -= drop
        rest -= np.bincount(on, weights=hops[hit], minlength=flows).astype(np.int64)
        touched = drop > 0
        frontier = np.zeros(total, dtype=bool)
        frontier[rest[touched & (left == 1)] ^ 1] = True
        emptied = touched & (left == 0)
        if emptied.any():
            frontier[hops[emptied[path]] ^ 1] = True
        frontier &= ~released
        released |= frontier
    ids = np.flatnonzero(released)
    both = released.reshape(-1, 2).all(axis=1)
    return Residue(
        processed=frozenset(zip((ids >> 1).tolist(), (ids & 1).tolist())),
        unpeeled_edges=frozenset(np.flatnonzero(~both).tolist()),
        rounds=tuple(rounds),
        outcome=SUCCESS if both.all() else FAILURE,
    )


def ripple_trace_csv(result: PeelResult) -> str:
    lines = ["unprocessed_symbols,ripple_size"]
    for _, ripple_size, unprocessed in result.ripple_trace:
        lines.append(f"{unprocessed},{ripple_size}")
    return "\n".join(lines) + "\n"
