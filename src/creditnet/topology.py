"""Random graph generation for credit network experiments.

Every generator hands back a connected CreditNetwork whose channel
capacities split a fixed collateral pool evenly, so throughput numbers
stay comparable across topologies of different density.  Draws that come
out disconnected are retried with the seed shifted by one; the retry
count is part of the deterministic contract, not a tuning knob.

Each draw is the (m, 2) int64 array of its canonical sorted edges, and
one breadth-first search over it from node 0 tests connectivity.
ErdosRenyi, ScaleFreeBA and Star build that array without a networkx
graph, yet draw exactly the edge set of `nx.gnm_random_graph(n, m,
seed=seed)`, `nx.barabasi_albert_graph(n, a, seed=seed)` and
`nx.star_graph(n - 1)`: networkx picks a node as
`random.Random(seed).choice(seq)`, which CPython builds as
`getrandbits(len(seq).bit_length())` retried while the value is
`len(seq)` or more, and these loops make the same calls in the same
order (see `demand`'s module note).  RandomRegular, SmallWorld and
PowerLawConfig keep networkx's generators; networkx is imported only by
the calls that draw those three kinds, so a process that draws none of
them never loads it.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from collections import deque
from itertools import chain
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .fileio import read_graph
from .model import CreditNetwork, make_network

if TYPE_CHECKING:
    import networkx as nx

ERDOS_RENYI = "ErdosRenyi"
RANDOM_REGULAR = "RandomRegular"
SCALE_FREE_BA = "ScaleFreeBA"
POWER_LAW_CONFIG = "PowerLawConfig"
SMALL_WORLD = "SmallWorld"
STAR = "Star"
IMPORTED = "Imported"

KINDS = (ERDOS_RENYI, RANDOM_REGULAR, SCALE_FREE_BA, POWER_LAW_CONFIG,
         SMALL_WORLD, STAR, IMPORTED)

# Give up after this many reseeded draws; a spec that keeps producing
# disconnected graphs is almost certainly too sparse to ever connect.
CONNECTIVITY_RETRIES = 100

# Kinds whose edge count may drift from the budget (degree rounding in the
# scale-free generators) must still land within this relative band.
EDGE_BUDGET_SLACK = 0.02

DEFAULT_TOTAL_COLLATERAL = 10_000


@dataclass(frozen=True)
class TopologySpec:
    """Parameters for one topology draw.

    Which fields matter depends on ``kind``: edge_budget drives the
    ErdosRenyi / ScaleFreeBA / PowerLawConfig generators, degree drives
    RandomRegular and SmallWorld, rewire_prob only affects SmallWorld,
    exponent only PowerLawConfig, and graph_path only Imported.
    """

    kind: str
    node_count: int = 0
    edge_budget: int | None = None
    degree: int | None = None
    rewire_prob: float = 0.1
    exponent: float = 2.5
    total_collateral: int | Fraction = DEFAULT_TOTAL_COLLATERAL
    graph_path: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        for name in ("node_count", "edge_budget", "degree", "seed"):
            value = getattr(self, name)
            if value is None and name in ("edge_budget", "degree"):
                continue
            try:  # numpy integers too become ints, which the draws need
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        for name in ("rewire_prob", "exponent"):
            value = getattr(self, name)
            # the concrete types first: they skip the slower ABC check
            if not isinstance(value, (float, int, numbers.Real)):
                raise ValueError(f"{name} must be a number, got {value!r}")


def gen_topology(spec: TopologySpec) -> CreditNetwork:
    """Draw a connected network and spread the collateral pool evenly."""
    if spec.kind == IMPORTED:
        if spec.graph_path is None:
            raise ValueError("imported topology needs a graph_path")
        base = read_graph(Path(spec.graph_path))
        return with_uniform_capacities(
            base.node_count, base.edges, spec.total_collateral)

    _validate(spec)
    for attempt in range(CONNECTIVITY_RETRIES):
        edges = _realize(spec, spec.seed + attempt)
        if _connected(spec.node_count, edges):
            break
    else:
        raise RuntimeError(
            f"no connected {spec.kind} graph in {CONNECTIVITY_RETRIES} "
            f"attempts from seed {spec.seed}; the requested topology "
            f"is too sparse")
    return with_uniform_capacities(spec.node_count, edges,
                                   spec.total_collateral)


def with_uniform_capacities(node_count, edges, total_collateral):
    """The network on `edges` with the collateral split evenly over them."""
    if not len(edges):
        raise ValueError("topology has no channels to carry collateral")
    cap = Fraction(total_collateral) / len(edges)
    return make_network(node_count, edges, [cap] * len(edges))


def _connected(node_count: int, edges: np.ndarray) -> bool:
    """Whether a breadth-first search from node 0 reaches every node."""
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * node_count
    seen[0] = True
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return len(queue) == node_count


def _validate(spec: TopologySpec) -> None:
    n = spec.node_count
    if n < 2:
        raise ValueError("need at least two nodes")
    if spec.kind in (ERDOS_RENYI, SCALE_FREE_BA, POWER_LAW_CONFIG):
        m = spec.edge_budget
        if m is None or m < n - 1:
            raise ValueError(
                f"{spec.kind} needs an edge budget of at least {n - 1}")
        if m > n * (n - 1) // 2:
            raise ValueError("edge budget exceeds the simple-graph maximum")
    if spec.kind == RANDOM_REGULAR:
        d = spec.degree
        if d is None or d < 1 or d >= n:
            raise ValueError("regular degree must be in [1, node_count)")
        if (n * d) % 2:
            raise ValueError("node_count * degree must be even")
    if spec.kind == SMALL_WORLD:
        d = spec.degree
        if d is None or d < 2 or d % 2 or d >= n:
            raise ValueError(
                "small-world ring degree must be even, >= 2 and < node_count")
        if not 0.0 <= spec.rewire_prob <= 1.0:
            raise ValueError("rewire_prob must lie in [0, 1]")
    if spec.kind == POWER_LAW_CONFIG:
        if not math.isfinite(spec.exponent):
            raise ValueError(f"power-law exponent must be finite, got {spec.exponent}")
        if spec.exponent <= 2.0:
            # The target mean degree is finite only above exponent 2.
            raise ValueError("power-law exponent must exceed 2")


def _realize(spec: TopologySpec, seed: int) -> np.ndarray:
    n = spec.node_count
    if spec.kind == ERDOS_RENYI:
        return _erdos_renyi(n, spec.edge_budget, seed)
    if spec.kind == SCALE_FREE_BA:
        return _scale_free(n, spec.edge_budget, seed)
    if spec.kind == STAR:
        return np.stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n)), axis=1)
    import networkx as nx
    if spec.kind == RANDOM_REGULAR:
        graph = nx.random_regular_graph(spec.degree, n, seed=seed)
    elif spec.kind == POWER_LAW_CONFIG:
        graph = _power_law(n, spec.edge_budget, spec.exponent, seed)
    elif spec.kind == SMALL_WORLD:
        graph = nx.watts_strogatz_graph(n, spec.degree, spec.rewire_prob,
                                        seed=seed)
    else:
        raise AssertionError(spec.kind)
    ends = np.fromiter(chain.from_iterable(graph.edges()), np.int64,
                       2 * graph.number_of_edges()).reshape(-1, 2)
    return _from_keys(ends.min(axis=1) * n + ends.max(axis=1), n)


def _from_keys(key: np.ndarray, n: int) -> np.ndarray:
    """The edges whose keys u * n + v these are, in sorted order."""
    key.sort()
    ends = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(ends[:, 0], ends[:, 1]))
    return ends


def _erdos_renyi(n: int, m: int, seed: int) -> np.ndarray:
    """The edges of `nx.gnm_random_graph(n, m, seed=seed)`: draw u, then v,
    and keep the pair unless u == v or it is already an edge; m at the
    simple-graph maximum is the complete graph, drawn without a call."""
    if m >= n * (n - 1) // 2:
        return np.stack(np.triu_indices(n, 1), axis=1).astype(np.int64)
    getrandbits, bits = random.Random(seed).getrandbits, n.bit_length()
    keys: set[int] = set()
    while len(keys) < m:
        u = getrandbits(bits)
        while u >= n:
            u = getrandbits(bits)
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        if u != v:
            keys.add(u * n + v if u < v else v * n + u)
    return _from_keys(np.fromiter(keys, np.int64, m), n)


def _scale_free(n: int, budget: int, seed: int) -> np.ndarray:
    attach = max(1, round(budget / n))
    produced = (n - attach) * attach
    if abs(produced - budget) > EDGE_BUDGET_SLACK * budget:
        raise ValueError(
            f"preferential attachment can only produce {produced} edges "
            f"here, outside the +-{EDGE_BUDGET_SLACK:.0%} band around "
            f"{budget}")
    return _barabasi_albert(n, attach, seed)


def _barabasi_albert(n: int, m: int, seed: int) -> np.ndarray:
    """The edges of `nx.barabasi_albert_graph(n, m, seed=seed)`: from the
    star on nodes 0..m, each new node links to m distinct draws from the
    list that holds every node once per edge end.  The draws gather in a
    set and extend the list in that set's iteration order, as networkx
    does; later draws index the list, so that order matters."""
    getrandbits = random.Random(seed).getrandbits
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        size = len(repeated)
        bits = size.bit_length()
        targets: set[int] = set()
        while len(targets) < m:
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            targets.add(repeated[r])
        repeated.extend(targets)
        repeated.extend([source] * m)
    # past the star, each node's block is its m targets, then m copies of it
    block = np.array(repeated[2 * m:], dtype=np.int64).reshape(-1, 2, m)
    star = np.arange(1, m + 1)
    return _from_keys(np.concatenate((star, (block[:, 0] * n + block[:, 1]).ravel())), n)


def _power_law(n: int, budget: int, exponent: float, seed: int) -> nx.Graph:
    """Heavy-tailed degree sequence realized with exact edge count.

    A plain configuration model loses close to a tenth of its stubs to
    self-loops and parallel edges at these densities, far outside the
    edge band.  Instead the drawn sequence is clamped so its stub total
    is exactly twice the budget, repaired until graphical, laid out by
    Havel-Hakimi, and then shuffled with connectivity-preserving double
    edge swaps so the deterministic layout does not leak structure.  A
    disconnected layout is shuffled with plain double edge swaps instead,
    which may join its pieces.  Below four nodes the layout is connected
    and admits no swap, so it is returned as laid out.
    """
    import networkx as nx
    rng = random.Random(seed)
    mean_degree = 2 * budget / n
    # the ratio first, so a huge exponent cannot overflow the product
    scale = mean_degree * ((exponent - 2) / (exponent - 1))
    seq = []
    for _ in range(n):
        draw = scale * (1 - rng.random()) ** (-1 / (exponent - 1))
        seq.append(max(1, min(n - 1, round(draw))))

    order = list(range(n))
    rng.shuffle(order)
    i = 0
    while sum(seq) > 2 * budget:
        j = order[i % n]
        if seq[j] > 1:
            seq[j] -= 1
        i += 1
    i = 0
    while sum(seq) < 2 * budget:
        j = order[i % n]
        if seq[j] < n - 1:
            seq[j] += 1
        i += 1
    while not nx.is_graphical(seq):
        seq[max(range(n), key=seq.__getitem__)] -= 1
        seq[min(range(n), key=seq.__getitem__)] += 1

    graph = nx.havel_hakimi_graph(seq)
    if n < 4:
        return graph
    if nx.is_connected(graph):
        nx.connected_double_edge_swap(graph, nswap=2 * budget, seed=seed)
        return graph
    # the same pieces every attempt (4-regular on 10 nodes is two K5s);
    # gen_topology checks that the swaps joined them
    shuffled = graph.copy()
    try:  # 100 tries per swap, networkx's default for a single one
        nx.double_edge_swap(shuffled, nswap=2 * budget, max_tries=200 * budget, seed=seed)
    except nx.NetworkXException:
        return graph  # networkx gave up: this attempt stays disconnected
    return shuffled


def snowball_sample(network: CreditNetwork, target_nodes: int,
                    seed: int) -> CreditNetwork:
    """Cut out a breadth-first neighborhood around a random root.

    Expansion stops the moment the sample holds target_nodes nodes, so
    the result hits the target exactly whenever the root's component is
    large enough; a smaller component is returned whole.  Kept nodes are
    relabeled to 0..k-1 in ascending original order and kept channels
    retain their capacities.
    """
    if not 1 <= target_nodes <= network.node_count:
        raise ValueError("target_nodes must lie in [1, node_count]")
    rng = random.Random(seed)
    root = rng.randrange(network.node_count)
    adj = network.adjacency()

    member = {root}
    queue = deque([root])
    while queue and len(member) < target_nodes:
        u = queue.popleft()
        neighbours = sorted(adj[u])
        rng.shuffle(neighbours)
        for v in neighbours:
            if v in member:
                continue
            member.add(v)
            queue.append(v)
            if len(member) == target_nodes:
                break

    relabel = {old: new for new, old in enumerate(sorted(member))}
    edges = []
    caps = []
    for k, (u, v) in enumerate(network.edges):
        if u in member and v in member:
            edges.append((relabel[u], relabel[v]))
            caps.append(network.capacities[k])
    return make_network(len(member), edges, caps)
