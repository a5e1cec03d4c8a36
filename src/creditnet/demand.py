"""Sender/receiver pair sampling and shortest-path route construction.

Demand is binary: a pair either wants to transact or it does not, and
each chosen pair rides exactly one shortest route.  The skewed sampling
mode concentrates traffic on a small set of hub nodes to mimic the
uneven activity seen in deployed payment networks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .model import CreditNetwork, PathSet, path_from_nodes

UNIFORM = "Uniform"
SKEWED = "Skewed"

MODES = (UNIFORM, SKEWED)

DEFAULT_HEAVY_FRACTION = 0.10
DEFAULT_HEAVY_PROBABILITY = 0.70


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
        light = [v for v in range(n) if v not in set(heavy)]

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
    """
    del seed
    adj = [sorted(nbrs) for nbrs in network.adjacency()]
    n = network.node_count
    # Distances depend only on the higher endpoint, so each distinct
    # root gets one traversal and its pairs are routed off it together.
    by_root: dict[int, list[int]] = {}
    for index, (s, r) in enumerate(demand):
        if not (0 <= s < n and 0 <= r < n):
            raise ValueError(f"pair ({s}, {r}) names a node outside "
                             f"0..{n - 1}")
        by_root.setdefault(max(s, r), []).append(index)
    walks: list[list[int] | None] = [None] * len(demand)
    for root, indices in by_root.items():
        dist = _bfs_distances(adj, root)
        for index in indices:
            lo = min(demand.pairs[index])
            walks[index] = _lex_min_shortest(adj, dist, lo, root)
    routes = []
    for (s, r), walk in zip(demand, walks):
        if walk is None:
            raise ValueError(f"no route between {s} and {r}")
        if s > r:
            walk = walk[::-1]
        routes.append(path_from_nodes(network, walk))
    return PathSet(paths=tuple(routes))


def _lex_min_shortest(adj, dist, source, target):
    """Lexicographically smallest shortest walk, given distances to target."""
    if dist[source] is None:
        return None
    walk = [source]
    while walk[-1] != target:
        here = dist[walk[-1]]
        # Neighbor lists are sorted, so the first strictly-closer
        # neighbor is the lexicographic choice.
        for v in adj[walk[-1]]:
            if dist[v] is not None and dist[v] == here - 1:
                walk.append(v)
                break
    return walk


def _bfs_distances(adj, root):
    dist: list[int | None] = [None] * len(adj)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
