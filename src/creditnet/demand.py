"""Sender/receiver pair sampling and shortest-path route construction.

Demand is binary: a pair either wants to transact or it does not, and
each chosen pair rides exactly one shortest route.  The skewed sampling
mode concentrates traffic on a small set of hub nodes to mimic the
uneven activity seen in deployed payment networks.

Routes come off the package's one hop-distance kernel,
`model.hop_levels`, run on 64 distinct roots at a time, and a next-hop
table that keeps, for every node and root, the first closer neighbour
in id order; the tie-break is the lexicographically smallest shortest
route read from the lower-numbered endpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .model import (BACKWARD, FORWARD, CreditNetwork, Path, PathSet,
                    closed_arcs, hop_distances)

UNIFORM = "Uniform"
SKEWED = "Skewed"

MODES = (UNIFORM, SKEWED)

DEFAULT_HEAVY_FRACTION = 0.10
DEFAULT_HEAVY_PROBABILITY = 0.70

# Roots routed together: one uint64 word of source bits per node row.
_BLOCK = 64


@dataclass(frozen=True)
class DemandSpec:
    pair_count: int
    mode: str = UNIFORM
    heavy_fraction: float = DEFAULT_HEAVY_FRACTION
    heavy_probability: float = DEFAULT_HEAVY_PROBABILITY
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown demand mode {self.mode!r}")
        if self.pair_count < 0:
            raise ValueError("pair_count must be non-negative")
        if not 0.0 < self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must lie in (0, 1]")
        if not 0.0 <= self.heavy_probability <= 1.0:
            raise ValueError("heavy_probability must lie in [0, 1]")


@dataclass(frozen=True)
class DemandMatrix:
    """Distinct ordered (sender, receiver) pairs, kept in draw order."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for s, r in self.pairs:
            if s == r:
                raise ValueError(f"node {s} cannot pay itself")
            if (s, r) in seen:
                raise ValueError(f"duplicate pair {(s, r)}")
            seen.add((s, r))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def sample_demand(network: CreditNetwork, spec: DemandSpec) -> DemandMatrix:
    """Draw pair_count distinct ordered pairs, rejecting repeats."""
    n = network.node_count
    if spec.pair_count > n * (n - 1):
        raise ValueError(
            f"cannot place {spec.pair_count} distinct pairs among "
            f"{n * (n - 1)} possible ones")
    rng = random.Random(spec.seed)

    if spec.mode == SKEWED:
        heavy_count = max(1, round(spec.heavy_fraction * n))
        # A pool picked with certainty holds every draw; with no light
        # nodes the heavy pool is all n nodes, checked above.
        for certain, kind, size in ((1.0, "heavy", heavy_count),
                                    (0.0, "light", n - heavy_count)):
            pairs = size * (size - 1)
            if (spec.heavy_probability == certain and size
                    and spec.pair_count > pairs):
                raise ValueError(f"cannot place {spec.pair_count} distinct pairs "
                                 f"among the {pairs} between {size} {kind} nodes")
        heavy = rng.sample(range(n), heavy_count)
        heavy_set = set(heavy)
        light = [v for v in range(n) if v not in heavy_set]

        def draw_node():
            pool = heavy
            if light and rng.random() >= spec.heavy_probability:
                pool = light
            return pool[rng.randrange(len(pool))]
    else:
        def draw_node():
            return rng.randrange(n)

    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(chosen) < spec.pair_count:
        s = draw_node()
        r = draw_node()
        if s == r or (s, r) in seen:
            continue
        seen.add((s, r))
        chosen.append((s, r))
    return DemandMatrix(pairs=tuple(chosen))


def build_paths(network: CreditNetwork, demand: DemandMatrix,
                seed: int = 0) -> PathSet:
    """One shortest route per pair, with a direction-blind tie-break.

    Among equally short routes the one whose node sequence is
    lexicographically smallest read from the lower-numbered endpoint
    wins.  Tie-breaking from a fixed end (rather than from whichever
    node happens to send) makes a pair and its reverse use the same
    channels, which keeps round-trip experiments symmetric.  The seed
    parameter is accepted for interface stability but unused.

    Distances depend only on the higher endpoint, the pair's root.  The
    distinct roots go through `model.hop_distances` in blocks of 64, one
    uint64 word per node row.  For each (node, root) of a block the
    next-hop table keeps the first arc in (tail, head) order that is one
    hop closer to the root, so a walk from the lower endpoint that always
    takes it is the lexicographically smallest shortest route.  Each
    block's pairs then walk the table together, one gather per hop.
    Raises ValueError for the first pair, in demand order, that names a
    node outside the graph, else for the first that has no route.
    """
    del seed
    n = network.node_count
    for s, r in demand:
        if not (0 <= s < n and 0 <= r < n):
            raise ValueError(f"pair ({s}, {r}) names a node outside "
                             f"0..{n - 1}")
    arcs = closed_arcs(n, network.edges)
    arc_count = len(arcs.heads)
    # One shared hop tuple per arc, and its reverse for walks that are
    # read from the root back to the lower endpoint.
    direction = np.where(arcs.tails < arcs.heads, FORWARD, BACKWARD)
    forward = list(zip(arcs.edge.tolist(), direction.tolist()))
    backward = list(zip(arcs.edge.tolist(), (1 - direction).tolist()))
    self_arc = np.flatnonzero(arcs.edge < 0)[:, None]
    arc_ids = np.arange(arc_count, dtype=np.int32)[:, None]

    pairs = np.array(demand.pairs, dtype=np.int64).reshape(-1, 2)
    lows = pairs.min(axis=1)
    roots, root_of = np.unique(pairs.max(axis=1), return_inverse=True)
    order = np.argsort(root_of, kind="stable")
    bounds = np.searchsorted(root_of[order],
                             np.arange(0, len(roots) + _BLOCK, _BLOCK))
    routes: list[Path | None] = [None] * len(demand)
    for block, first in enumerate(range(0, len(roots), _BLOCK)):
        dist = hop_distances(arcs, roots[first:first + _BLOCK])
        # Next hop toward each root: the first arc one hop closer, or the
        # node's self-arc where there is none (at the root, or out of
        # reach).  Summed in place to hold fewer arcs x roots arrays.
        closer = dist[arcs.heads]
        closer += 1
        closer = closer == dist[arcs.tails]
        step = np.minimum.reduceat(
            np.where(closer, arc_ids, arc_count), arcs.starts)
        step = np.where(step < arc_count, step, self_arc)
        members = order[bounds[block]:bounds[block + 1]]
        length = dist[lows[members], root_of[members] - first]
        members, length = members[length > 0], length[length > 0]
        column = root_of[members] - first
        here = lows[members]
        walks = np.empty((len(members), length.max(initial=0)), dtype=np.int64)
        for hop in range(walks.shape[1]):
            walks[:, hop] = step[here, column]
            here = arcs.heads[walks[:, hop]]
        for index, walk, hops in zip(members.tolist(), walks.tolist(),
                                     length.tolist()):
            s, r = demand.pairs[index]
            walk = walk[:hops]
            if s < r:
                route = tuple([forward[a] for a in walk])
            else:
                route = tuple([backward[a] for a in reversed(walk)])
            routes[index] = Path(source=s, destination=r, hops=route)
    for (s, r), route in zip(demand, routes):
        if route is None:
            raise ValueError(f"no route between {s} and {r}")
    return PathSet(paths=tuple(routes))
