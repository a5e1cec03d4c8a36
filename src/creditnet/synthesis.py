"""Topology synthesis driven by the ripple analysis.

The pipeline runs in two stages.  First a path-length mix is chosen so
that the predicted ripple trajectory tracks a slowly decaying target
curve: that is a small convex least-squares problem with box bounds, a
fixed flow total and a monotone tail, solved directly by SLSQP.  Second,
joint-degree space is searched with annealed local moves for a
random-graph family whose shortest-path length mix matches the
stage-one output; each candidate joint degree matrix is patched to a
valid joint degree sequence, realized, and scored by the exact
path-length mix over every ordered pair of its realizations' nodes.
The search stops once its best score has not improved for
`STALL_WINDOW` evaluations.

A joint degree mix is one read-only symmetric float64 matrix; the
mass of an unordered degree pair is split over its two mirror cells by
`JointDegreeDistribution.of_pairs` alone, and read back summed by
`JointDegreeDistribution.pairs`.  Float sums on the search path run left
to right, not pairwise: the anneal is chaotic in the last bit, so any
reordering changes which matrices a search visits.

Realizations are wired by the construction of Gjoka, Tillman &
Markopoulou, "Construction of Simple Graphs with a Target Joint Degree
Matrix and Beyond" (IEEE INFOCOM 2015), ported here step for step from
`nx.joint_degree_graph`: the same seed gives the same graph, edge for
edge, without a networkx graph's per-edge bookkeeping.  Where networkx
calls `randrange`, the wiring calls `getrandbits` itself and retries as
`randrange` does, so it reads the same Mersenne Twister words (see
`demand`'s module note) for a fraction of the call overhead.

Every path-length mix here comes from one helper, `_full_pair_mix`: one
whole-array popcount per level of the package's one hop-distance kernel,
`model.hop_levels`, a breadth-first search from all sources at once on
bitset rows, which also routes every demand pair.  Candidates are scored
on edge arrays; only a kept realization becomes a `CreditNetwork`.

scipy.optimize (SLSQP) is imported by the stage-one fit when it runs, and
networkx only by `_initial_guess`'s fallback to a `gnm_random_graph` start,
so importing this module loads neither.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .model import CreditNetwork, closed_arcs, hop_levels
from .ripple import PathLengthDistribution, ripple_add_prob
from .topology import DEFAULT_TOTAL_COLLATERAL, with_uniform_capacities

if TYPE_CHECKING:
    import networkx as nx

RIPPLE_SCALE = 1.7
RIPPLE_DECAY = 2.5

# Stage-one SLSQP stop: absolute change of the half squared residual.
SOLVER_FTOL = 1e-12
SOLVER_MAX_ITERATIONS = 1000

# Annealed joint-degree search defaults.
DEFAULT_SEARCH_BUDGET = 1500
COOLING_FACTOR = 0.95
COOLING_INTERVAL = 50
PROPOSAL_MASS = 0.01
# Evaluations without a new best energy that end the search.  On the
# 1500/300/900 target at budget 1500 (search seeds 1-11), the best energy
# last improved at evaluation 4-314 and successive improvements were at
# most 150 evaluations apart, so every one of those searches returns
# the same result with this stop.
STALL_WINDOW = 200

MATCHED = "Matched"
BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class SynthesisTarget:
    """Budgets and caps for both synthesis stages."""

    channel_budget: int
    node_budget: int
    flow_budget: int
    max_path_length: int = 10
    max_degree: int = 10
    jdd_max_degree: int = 20

    def __post_init__(self):
        if min(self.channel_budget, self.node_budget, self.flow_budget) <= 0:
            raise ValueError("budgets must be positive")
        if self.node_budget < 2:
            raise ValueError("node budget must be >= 2: a channel joins two nodes")
        if self.max_path_length < 2 or self.max_degree < 2:
            raise ValueError("path length and degree caps must be >= 2")
        if self.jdd_max_degree < 1:
            raise ValueError("joint degree cap must be >= 1")


def target_ripple(remaining: int, scale: float = RIPPLE_SCALE,
                  decay: float = RIPPLE_DECAY) -> float:
    """Desired ripple size when `remaining` channels are unprocessed."""
    if remaining <= 0:
        return 0.0
    return min(scale * remaining ** (1.0 / decay), float(remaining))


def target_additions(remaining: int, channel_count: int,
                     scale: float = RIPPLE_SCALE,
                     decay: float = RIPPLE_DECAY) -> float:
    """Additions needed per step to hold the ripple on the target curve."""
    if remaining == channel_count:
        return target_ripple(remaining, scale, decay)
    return (target_ripple(remaining, scale, decay)
            - target_ripple(remaining + 1, scale, decay) + 1.0)


def build_design_matrix(channel_count: int,
                        max_length: int | None = None) -> np.ndarray:
    """Rows are levels k..1; entry (row, length) is the chance one flow
    of that length adds a channel to the target-sized ripple there.

    The ripple size argument for the row at level L is the target value
    one level up, taken as zero above a full board, so the top row has
    only the length-1 start case active.
    """
    top = channel_count if max_length is None else min(max_length,
                                                       channel_count)
    rows = []
    for level in range(channel_count, 0, -1):
        if level == channel_count:
            before = 0.0
        else:
            before = target_ripple(level + 1)
        rows.append([ripple_add_prob(length, level, before, channel_count)
                     for length in range(1, top + 1)])
    return np.array(rows, dtype=float)


def target_vector(channel_count: int) -> np.ndarray:
    return np.array([target_additions(level, channel_count)
                     for level in range(channel_count, 0, -1)])


@dataclass(frozen=True)
class OptimizedPathLengths:
    """Stage-one output: flow counts per length and the fit residual."""

    distribution: PathLengthDistribution
    flow_counts: tuple[float, ...]
    residual: float
    residual_history: tuple[float, ...]
    converged: bool

    @property
    def flow_budget(self) -> float:
        return sum(self.flow_counts)


def _length_upper_bounds(target: SynthesisTarget) -> np.ndarray:
    k = target.channel_budget
    n = target.node_budget
    m = target.flow_budget
    top = min(target.max_path_length, k)
    bounds = np.empty(top)
    for i in range(1, top + 1):
        cap = min(float(m), target.max_degree ** i * m / n)
        if i == 1:
            cap = min(cap, 2.0 * k * m / (n * (n - 1)))
        bounds[i - 1] = cap
    return bounds


def optimize_path_length_dist(target: SynthesisTarget) -> OptimizedPathLengths:
    """Least-squares fit of per-length flow counts to the target ripple.

    Minimizes the residual against the design system subject to
    non-negativity, a fixed flow total, the length-1 budget cap, the
    per-length degree cap, a hard path-length cutoff, and monotone
    non-increase from length 2 onward.  The problem is a small convex
    QP, solved directly by SLSQP with the analytic gradient; the
    residual history holds the start, every solver iterate and the
    result.
    """
    from scipy.optimize import Bounds, minimize

    k = target.channel_budget
    m = float(target.flow_budget)
    bounds = _length_upper_bounds(target)
    if bounds.sum() < m:
        raise ValueError(
            f"length caps only admit {bounds.sum():.1f} flows in total, "
            f"below the required {m:.0f}; the degree cap "
            f"{target.max_degree} (and the length-1 budget cap) bind")
    matrix = build_design_matrix(k, len(bounds))
    goal = target_vector(k)
    size = len(bounds)
    # Row i - 1 reads x[i] - x[i + 1] >= 0 for i >= 1.
    tail = (np.eye(size) - np.eye(size, k=1))[1:-1]
    constraints = [{"type": "eq", "fun": lambda x: np.array([x.sum() - m]),
                    "jac": lambda x: np.ones((1, size))}]
    if len(tail):
        constraints.append({"type": "ineq", "fun": lambda x: tail @ x,
                            "jac": lambda x: tail})

    def residual(x) -> float:
        return float(np.linalg.norm(matrix @ x - goal))

    x0 = np.full(size, m / size)
    history = [residual(x0)]
    solution = minimize(
        lambda x: 0.5 * float(np.sum((matrix @ x - goal) ** 2)), x0,
        jac=lambda x: matrix.T @ (matrix @ x - goal), method="SLSQP",
        bounds=Bounds(np.zeros(size), bounds), constraints=constraints,
        options={"ftol": SOLVER_FTOL, "maxiter": SOLVER_MAX_ITERATIONS},
        callback=lambda xk: history.append(residual(xk)))
    x = solution.x
    history.append(residual(x))
    probabilities = tuple(float(v) for v in x / x.sum())
    return OptimizedPathLengths(
        distribution=PathLengthDistribution(probabilities),
        flow_counts=tuple(float(v) for v in x),
        residual=history[-1],
        residual_history=tuple(history),
        converged=bool(solution.success),
    )


def search_flow_budget(target: SynthesisTarget, low: int, high: int,
                       evaluations: int = 16) -> tuple[int, OptimizedPathLengths]:
    """Golden-section search for the flow total with the best residual."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    cache: dict[int, OptimizedPathLengths] = {}

    def score(flows):
        flows = int(round(flows))
        if flows not in cache:
            cache[flows] = optimize_path_length_dist(
                replace(target, flow_budget=flows))
        return cache[flows].residual

    a, b = float(low), float(high)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(evaluations):
        if score(c) <= score(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    best = min(cache, key=lambda flows: cache[flows].residual)
    return best, cache[best]


@dataclass(frozen=True, eq=False)
class JointDegreeDistribution:
    """Chance that a uniformly random edge joins given endpoint degrees.

    `entries` is a read-only symmetric float64 matrix indexed by degree
    minus one, summing to 1; the mass of an unordered pair (j, l) with
    j != l is split evenly across the two mirror entries (`of_pairs`).
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("joint degree matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("joint degree mass must be finite")
        if (m < -1e-15).any():
            raise ValueError("negative joint degree mass")
        if (np.abs(m - m.T) > 1e-9).any():
            raise ValueError("joint degree matrix must be symmetric")
        total = float(m.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint degree mass sums to {total!r}, not 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @classmethod
    def of_pairs(cls, pairs) -> JointDegreeDistribution:
        """The matrix whose unordered-pair masses are the upper triangle
        of `pairs` (entry [j - 1, l - 1] for degrees j <= l; the rest is
        ignored): diagonal mass stays put, and off-diagonal mass is
        halved into both mirror entries.  No other code splits pair mass.
        """
        pairs = np.asarray(pairs, dtype=np.float64)
        half = np.triu(pairs, 1) / 2.0
        return cls(half + half.T + np.diag(np.diag(pairs)))

    @cached_property
    def pairs(self) -> np.ndarray:
        """Unordered-pair masses, the inverse of `of_pairs`: each mirror
        entry folded onto the upper triangle, zero below the diagonal."""
        pairs = np.triu(self.entries) + np.tril(self.entries, -1).T
        pairs.flags.writeable = False
        return pairs

    def __eq__(self, other):
        return isinstance(other, JointDegreeDistribution) \
            and np.array_equal(self.entries, other.entries)

    @property
    def max_degree(self) -> int:
        return len(self.entries)

    def pair_mass(self, deg_a: int, deg_b: int) -> float:
        """Unordered-pair probability."""
        return float(self.pairs[min(deg_a, deg_b) - 1, max(deg_a, deg_b) - 1])

    def implied_node_count(self, channel_count: int) -> float:
        """Node total consistent with this edge mix at a given size."""
        stubs = 2.0 * channel_count * self.entries.sum(axis=1)
        return float((stubs / np.arange(1, self.max_degree + 1)).sum())


def jdd_from_graph(graph: nx.Graph) -> JointDegreeDistribution:
    return _joint_degree_matrix(graph, max(d for _, d in graph.degree()))


def _joint_degree_matrix(graph: nx.Graph, cap: int) -> JointDegreeDistribution:
    """The graph's edge-endpoint degree mix; degrees above `cap` count as `cap`."""
    degree = dict(graph.degree())
    ends = np.array([(degree[u], degree[v]) for u, v in graph.edges()],
                    dtype=np.int64).reshape(-1, 2)
    ends = np.sort(np.minimum(ends, cap), axis=1) - 1
    pairs = np.zeros((cap, cap))
    # one unbuffered addition per edge, so a cell's mass is a running sum
    np.add.at(pairs, (ends[:, 0], ends[:, 1]), 1.0 / max(len(ends), 1))
    return JointDegreeDistribution.of_pairs(pairs)


def neutral_mixing_jdd(node_counts: dict[int, int],
                       max_degree: int) -> JointDegreeDistribution:
    """Configuration-model (uncorrelated) mixing for a degree histogram.

    The chance a random edge endpoint has degree j is proportional to
    j times the number of degree-j nodes; endpoints pair independently.
    """
    if any(j < 1 or j > max_degree for j in node_counts):
        raise ValueError("degrees must lie in [1, max_degree]")
    degrees = np.array(list(node_counts), dtype=np.int64)
    stubs = degrees * np.array(list(node_counts.values()), dtype=np.int64)
    share = np.zeros(max_degree)
    share[degrees - 1] = stubs / stubs.sum()
    matrix = np.outer(share, share)
    return JointDegreeDistribution(matrix / matrix.sum())


def _edge_count_cells(jdd: JointDegreeDistribution):
    """Degree pairs (j, l), j <= l, with positive mass, row by row, and
    their unordered-pair masses."""
    j, l = np.nonzero(jdd.pairs > 0.0)
    return (list(zip((j + 1).tolist(), (l + 1).tolist())),
            jdd.pairs[j, l].tolist())


def sample_edge_counts(jdd: JointDegreeDistribution, channel_count: int,
                       seed: int) -> dict[int, dict[int, int]]:
    """Stratified draw of per-degree-pair edge counts.

    Expected counts are taken whole and only the fractional leftovers
    are assigned multinomially, so realizations stay close to the mean
    mix and the validity patch stays small.

    Diagonal entries follow the doubled convention (each within-class
    edge counts twice), so a class's stub total is its plain row sum.
    """
    cells, weights = _edge_count_cells(jdd)
    scale = channel_count / sum(weights)
    base = [int(math.floor(w * scale)) for w in weights]
    fractions = np.array([w * scale - b for w, b in zip(weights, base)])
    leftover = channel_count - sum(base)
    draws = list(base)
    if leftover > 0:
        if fractions.sum() <= 0.0:
            fractions = np.ones(len(cells))
        rng = np.random.default_rng(seed)
        extra = rng.multinomial(leftover, fractions / fractions.sum())
        draws = [b + int(e) for b, e in zip(base, extra)]
    counts: dict[int, dict[int, int]] = {}
    for (j, l), c in zip(cells, draws):
        if c == 0:
            continue
        if j == l:
            counts.setdefault(j, {})[j] = 2 * c
        else:
            counts.setdefault(j, {})[l] = c
            counts.setdefault(l, {})[j] = c
    return counts


def _class_sizes(counts: dict[int, dict[int, int]]) -> dict[int, float]:
    return {j: sum(row.values()) / j for j, row in counts.items()}


def validate_jdd_sequence(counts: dict[int, dict[int, int]]):
    """Realizability of a joint degree edge-count matrix, with reasons.

    Uses the doubled-diagonal convention: entry (j, j) is twice the
    number of within-class edges and must be even.
    """
    reasons = []
    degrees = sorted(counts)
    for j in degrees:
        for l, c in counts[j].items():
            if c < 0 or c != int(c):
                reasons.append(f"count for pair ({j},{l}) is not a "
                               f"non-negative integer")
            if counts.get(l, {}).get(j) != c:
                reasons.append(f"counts for pair ({j},{l}) are asymmetric")
        if counts[j].get(j, 0) % 2:
            reasons.append(f"within-class entry ({j},{j}) must be even")
    nodes = _class_sizes(counts)
    for j in degrees:
        stubs = sum(counts[j].values())
        if stubs % j:
            reasons.append(f"degree {j} is owed {stubs} stubs, not a "
                           f"multiple of {j}")
    for j in degrees:
        for l, c in counts[j].items():
            if l < j:
                continue
            if j == l:
                cap = nodes[j] * (nodes[j] - 1)
            else:
                cap = nodes[j] * nodes.get(l, 0)
            if c > cap:
                reasons.append(f"pair ({j},{l}) wants {c} but only "
                               f"{cap:.0f} fit between the degree classes")
    return (not reasons), tuple(reasons)


def patch_jdd_sequence(counts: dict[int, dict[int, int]]
                       ) -> dict[int, dict[int, int]]:
    """Add as few edges as possible until the sequence is realizable.

    Degree-1 nodes absorb any stub count, so each class with a stub
    remainder gets extra edges to the degree-1 class until it divides,
    and any class cap that still overflows is relaxed the same way
    (each batch of extra edges adds one node to the crowded class).
    """
    fixed = {j: dict(row) for j, row in counts.items()}

    def add_edges(j, count):
        if count <= 0:
            return
        if j == 1:
            fixed.setdefault(1, {})[1] = fixed.get(1, {}).get(1, 0) \
                + 2 * count
        else:
            fixed.setdefault(j, {})[1] = fixed.get(j, {}).get(1, 0) + count
            fixed.setdefault(1, {})[j] = fixed[j][1]

    for j in sorted(list(fixed)):
        if j == 1:
            continue
        remainder = sum(fixed[j].values()) % j
        if remainder:
            add_edges(j, j - remainder)
    # Past this point only the class caps can change, so the loop scans
    # them alone and validates in full once no class is crowded.
    for _ in range(10_000):
        nodes = _class_sizes(fixed)
        crowded = None
        for j in sorted(fixed):
            for l, c in fixed[j].items():
                if l < j:
                    continue
                cap = (nodes[j] * (nodes[j] - 1) if j == l
                       else nodes[j] * nodes[l])
                if c > cap:
                    crowded = j
                    break
            if crowded:
                break
        if crowded is None:
            ok, reasons = validate_jdd_sequence(fixed)
            if ok:
                return fixed
            raise RuntimeError(f"cannot patch joint degree sequence: "
                               f"{reasons[0]}")
        add_edges(crowded, crowded)
    raise RuntimeError(f"cannot patch joint degree sequence: degree "
                       f"{crowded} is still crowded after 10000 rounds")


def _realize_edges(jdd: JointDegreeDistribution, channel_budget: int,
                   seed: int) -> tuple[int, np.ndarray]:
    """Node count and sorted (m, 2) int64 edge array of one realization's
    largest component, relabeled to 0..n-1 in node order.

    The patched counts are wired by `_wire_joint_degrees` (Gjoka et al.,
    INFOCOM 2015) into the graph `nx.joint_degree_graph(counts,
    seed=seed)` builds, and `_largest_component` keeps the component
    networkx's `max(connected_components)` keeps.  So every realization
    is bit-identical to networkx's.
    """
    counts = patch_jdd_sequence(sample_edge_counts(jdd, channel_budget, seed))
    adj = _wire_joint_degrees(counts, seed)
    keep = _largest_component(adj)
    n = len(keep)
    fan = np.fromiter(map(len, map(adj.__getitem__, keep)), np.int64, n)
    relabel = np.zeros(len(adj), dtype=np.int64)
    relabel[keep] = np.arange(n)
    heads = relabel[np.fromiter(chain.from_iterable(map(adj.__getitem__, keep)),
                                np.int64, int(fan.sum()))]
    tails = np.repeat(np.arange(n), fan)
    key = (tails * n + heads)[tails < heads]
    key.sort()
    return n, np.stack(np.divmod(key, n), axis=1)


def _largest_component(adj: list[dict[int, None]]) -> list[int]:
    """Sorted nodes of the component `max(nx.connected_components(graph),
    key=len)` picks: the first largest when components are scanned from
    the lowest node id."""
    seen = [False] * len(adj)
    keep: list[int] = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for u in component:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
        if len(component) > len(keep):
            keep = component
    return sorted(keep)


def _wire_joint_degrees(counts: dict[int, dict[int, int]],
                        seed: int) -> list[dict[int, None]]:
    """Adjacency of a simple graph with the given joint degree counts,
    built step for step as `nx.joint_degree_graph(counts, seed=seed)`
    builds it: node ids go to the degree classes in `counts` order, the
    same draws pick each candidate pair, and the unsaturated sets are
    built and shrunk the same way.  Each adjacency is an
    insertion-ordered dict, as in a networkx graph, so every neighbour
    switch picks the same nodes.

    networkx draws a class member as `randrange(size)`, which CPython
    builds as `getrandbits(size.bit_length())` retried while the value is
    `size` or more (see `demand`'s module note); the loop makes those
    calls itself, with the bit count fixed per class pair.
    """
    getrandbits = random.Random(seed).getrandbits
    sizes = {k: sum(row.values()) // k for k, row in counts.items()}
    first = {}
    residual: list[int] = []
    for k, size in sizes.items():
        first[k] = len(residual)
        residual.extend([k] * size)
    adj: list[dict[int, None]] = [{} for _ in residual]
    for k, row in counts.items():
        for l, wanted in row.items():
            if wanted <= 0 or k < l:
                continue
            k_size, l_size = sizes[k], sizes[l]
            if not (k_size and l_size):
                raise ValueError(f"pair ({k},{l}) wants edges but a class "
                                 f"has no nodes")
            k_first, l_first = first[k], first[l]
            k_bits, l_bits = k_size.bit_length(), l_size.bit_length()
            k_unsat = {v for v in range(k_first, k_first + k_size)
                       if residual[v] > 0}
            if k != l:
                l_unsat = {w for w in range(l_first, l_first + l_size)
                           if residual[w] > 0}
            else:
                l_unsat = k_unsat
                wanted //= 2
            while wanted > 0:
                v = getrandbits(k_bits)
                while v >= k_size:
                    v = getrandbits(k_bits)
                w = getrandbits(l_bits)
                while w >= l_size:
                    w = getrandbits(l_bits)
                v += k_first
                w += l_first
                if v == w or w in adj[v]:
                    continue
                if residual[v] == 0:
                    _switch_neighbour(adj, v, k_unsat, residual)
                if residual[w] == 0:
                    _switch_neighbour(adj, w, l_unsat, residual,
                                      v if k == l else None)
                adj[v][w] = None
                adj[w][v] = None
                residual[v] -= 1
                residual[w] -= 1
                wanted -= 1
                if residual[v] == 0:
                    k_unsat.discard(v)
                if residual[w] == 0:
                    l_unsat.discard(w)
    return adj


def _switch_neighbour(adj: list[dict[int, None]], w: int, unsat: set[int],
                      residual: list[int], avoid: int | None = None):
    """Free one stub of the saturated node `w` without changing the
    joint degrees: move one of its edges to an unsaturated node of the
    same degree (never `avoid` while that node has a single stub left).
    """
    skip = avoid if avoid is not None and residual[avoid] <= 1 else None
    for w_prime in unsat:
        if w_prime != skip:
            break
    taken = adj[w_prime]
    for switch in adj[w]:
        if switch not in taken and switch != w_prime:
            break
    del adj[w][switch]
    del adj[switch][w]
    adj[w_prime][switch] = None
    adj[switch][w_prime] = None
    residual[w] += 1
    residual[w_prime] -= 1
    if residual[w_prime] == 0:
        unsat.remove(w_prime)


def synthesize_graph(jdd: JointDegreeDistribution, channel_budget: int,
                     seed: int) -> CreditNetwork:
    """Realize the joint degree mix and keep the largest component, with
    the default collateral spread evenly over its channels.

    The realized size follows from the degree mix and the channel
    budget, and the largest-component cut shaves a few percent off both.
    """
    node_count, edges = _realize_edges(jdd, channel_budget, seed)
    return with_uniform_capacities(node_count, edges, DEFAULT_TOTAL_COLLATERAL)


def _full_pair_mix(node_count: int, edges) -> PathLengthDistribution:
    """Shortest-path length mix over every ordered pair of connected
    nodes: one popcount per level of `model.hop_levels` with every node
    as a source."""
    counts = [np.count_nonzero(np.unpackbits(new.view(np.uint8)))
              for new in hop_levels(closed_arcs(node_count, edges),
                                    np.arange(node_count))]
    total = sum(counts)
    return PathLengthDistribution(tuple(c / total for c in counts))


def exact_path_length_distribution(network: CreditNetwork
                                   ) -> PathLengthDistribution:
    """Full-pair shortest-path length mix of one concrete topology."""
    return _full_pair_mix(network.node_count, network.edge_array)


def distribution_distance(a: PathLengthDistribution,
                          b: PathLengthDistribution,
                          kind: str = "l2") -> float:
    top = max(a.max_length, b.max_length)
    gaps = [a.prob(d) - b.prob(d) for d in range(1, top + 1)]
    if kind == "l1":
        return sum(abs(g) for g in gaps)
    if kind == "l2":
        return math.sqrt(sum(g * g for g in gaps))
    raise ValueError(f"unknown distance kind {kind!r}")


def synthesize_matched(jdd: JointDegreeDistribution,
                       target_dist: PathLengthDistribution,
                       target: SynthesisTarget, seed: int,
                       restarts: int = 6) -> CreditNetwork:
    """Realize the joint degree mix several times and keep the wiring
    whose exact path-length mix lands closest to the target, the first
    such on a tie; only that one is given capacities.

    Stub matching is random, so realizations scatter around the mix the
    joint degrees imply; restart selection removes that wiring noise.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    best = None
    best_gap = math.inf
    for r in range(restarts):
        realized = _realize_edges(jdd, target.channel_budget,
                                  seed + 104_729 * r)
        gap = distribution_distance(_full_pair_mix(*realized), target_dist,
                                    "l1")
        if best is None or gap < best_gap:
            best, best_gap = realized, gap
    return with_uniform_capacities(best[0], best[1].tolist(),
                                   DEFAULT_TOTAL_COLLATERAL)


@dataclass(frozen=True)
class JddSearchResult:
    jdd: JointDegreeDistribution
    distance: float
    evaluations: int
    status: str


# Realized node/edge bands for the search penalty, relative to the
# budgets; the component cut pulls down, the validity patch pushes up.
REALIZED_NODE_BAND = (0.83, 1.01)
REALIZED_EDGE_BAND = (0.90, 1.07)


def _hub_and_chain_jdd(target: SynthesisTarget, chain_nodes: int,
                       chain_len: int, leaves: int
                       ) -> JointDegreeDistribution | None:
    """Degree mix of a hub core with pendant chains and leaves.

    Hubs carry the short-distance mass, anchored degree-2 chains carry
    the long tail, degree-1 leaves pad node count without stub cost.
    Returns None when the stub budget cannot be balanced.
    """
    n = target.node_budget
    k = target.channel_budget
    cap = target.jdd_max_degree
    mid = n - chain_nodes - leaves
    if mid <= 0 or chain_nodes < 0 or leaves < 0:
        return None
    segments = max(1, round(chain_nodes / chain_len)) if chain_nodes else 0
    internal = max(chain_nodes - segments, 0)
    anchors = 2 * segments if chain_nodes else 0
    hub_stubs = 2 * k - 2 * chain_nodes - leaves
    if hub_stubs < 3 * mid:
        return None
    base = hub_stubs // mid
    if base + 1 >= cap or base < 3:
        return None
    high = hub_stubs - base * mid
    hub_classes = {base: mid - high}
    if high:
        hub_classes[base + 1] = high
    stubs = {d: d * c for d, c in hub_classes.items() if c > 0}
    total_hub_stubs = sum(stubs.values())
    cells: dict[tuple[int, int], float] = {}
    if internal:
        cells[(2, 2)] = float(internal)
    for d, s in stubs.items():
        share = s / total_hub_stubs
        if anchors:
            cells[(2, d)] = cells.get((2, d), 0.0) + anchors * share
        if leaves:
            cells[(1, d)] = cells.get((1, d), 0.0) + leaves * share
    core = k - internal - anchors - leaves
    if core <= 0:
        return None
    degs = sorted(stubs)
    for i, d1 in enumerate(degs):
        for d2 in degs[i:]:
            w = (stubs[d1] * stubs[d2]) if d1 != d2 \
                else stubs[d1] ** 2 / 2.0
            cells[(d1, d2)] = cells.get((d1, d2), 0.0) \
                + core * 2.0 * w / total_hub_stubs ** 2
    pairs = np.zeros((cap, cap))
    rows, cols = (np.array(list(cells)) - 1).T
    pairs[rows, cols] = np.array(list(cells.values())) / sum(cells.values())
    return JointDegreeDistribution.of_pairs(pairs)


def _initial_guess(target_dist: PathLengthDistribution,
                   target: SynthesisTarget) -> JointDegreeDistribution:
    """Warm start: size the chain budget from the target's tail mass."""
    n = target.node_budget
    tail = sum(target_dist.prob(d)
               for d in range(4, target_dist.max_length + 1))
    chain_nodes = round(tail * n * 2.0 / 3.0)
    chain_len = target.max_path_length + 2
    for leaves in (round(n / 15), 0):
        guess = _hub_and_chain_jdd(target, chain_nodes, chain_len, leaves)
        if guess is not None:
            return guess
    for chain_nodes in range(chain_nodes - 5, -1, -5):
        guess = _hub_and_chain_jdd(target, chain_nodes, chain_len, 0)
        if guess is not None:
            return guess
    import networkx as nx
    return _joint_degree_matrix(nx.gnm_random_graph(n, target.channel_budget,
                                                    seed=0),
                                target.jdd_max_degree)


def optimize_jdd(target_dist: PathLengthDistribution,
                 target: SynthesisTarget, seed: int,
                 budget: int = DEFAULT_SEARCH_BUDGET,
                 eval_seeds: int = 3, match_tol: float = 0.06,
                 initial: JointDegreeDistribution | None = None
                 ) -> JddSearchResult:
    """Annealed local search over joint degree matrices.

    Moves shift a sliver of probability mass between two degree-pair
    cells.  Candidates are scored by the distance from the exact
    full-pair path-length mix of their realizations to the target,
    averaged over a fixed set of wiring seeds (common random numbers,
    so the landscape is deterministic and the search cannot chase
    sampling luck), plus a penalty on realized node/edge counts that
    drift outside the band around the budgets.
    A geometric cooling schedule decides uphill acceptance.  The search
    ends after `budget` evaluations, or earlier once `STALL_WINDOW`
    evaluations in a row bring no new best energy; `evaluations` in the
    result counts those that ran.  The result is re-checked against the
    start on held-out wiring seeds so a noise-fit regression can never
    leave the optimizer.
    """
    if budget < 1:
        raise ValueError("search budget must be at least one evaluation")
    if eval_seeds < 1:
        raise ValueError("need at least one evaluation seed")
    if not (math.isfinite(match_tol) and match_tol >= 0):
        raise ValueError(f"match tolerance must be finite and >= 0, "
                         f"not {match_tol!r}")
    rng = random.Random(seed)
    k = target.channel_budget
    n = target.node_budget
    cap = target.jdd_max_degree

    if initial is None:
        current = _initial_guess(target_dist, target)
    else:
        current = initial
        if initial.max_degree != cap:
            raise ValueError(f"initial matrix is {initial.max_degree}x"
                             f"{initial.max_degree}, the degree cap is {cap}")

    def energy(jdd, seeds):
        gap_total = 0.0
        penalty = 0.0
        for s in seeds:
            node_count, edges = _realize_edges(jdd, k, s)
            gap_total += distribution_distance(
                _full_pair_mix(node_count, edges), target_dist)
            rn, rk = node_count / n, len(edges) / k
            penalty += max(0.0, REALIZED_NODE_BAND[0] - rn) \
                + max(0.0, rn - REALIZED_NODE_BAND[1]) \
                + max(0.0, REALIZED_EDGE_BAND[0] - rk) \
                + max(0.0, rk - REALIZED_EDGE_BAND[1])
        return gap_total / len(seeds) + 3.0 * penalty / len(seeds)

    train = tuple(seed * 65537 + 211 * s for s in range(eval_seeds))
    holdout = tuple(seed * 65537 + 997 + 389 * s for s in range(eval_seeds))

    start = current
    current_energy = energy(current, train)
    best, best_energy = current, current_energy
    temperature = max(current_energy, 1e-3) * 0.3
    evaluations = improved_at = 1
    proposals = 0
    while evaluations < budget and evaluations - improved_at < STALL_WINDOW:
        proposals += 1
        if proposals > 50 * budget:
            break
        candidate = _move_mass(current, rng)
        if candidate is None:
            continue
        cand_energy = energy(candidate, train)
        evaluations += 1
        delta = cand_energy - current_energy
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_energy = candidate, cand_energy
        if cand_energy < best_energy:
            best, best_energy = candidate, cand_energy
            improved_at = evaluations
        if evaluations % COOLING_INTERVAL == 0:
            temperature = max(temperature * COOLING_FACTOR, 1e-6)
    final_best = energy(best, holdout)
    if best is not start:
        final_start = energy(start, holdout)
        if final_start < final_best:
            best, final_best = start, final_start
    status = MATCHED if final_best <= match_tol else BUDGET_EXHAUSTED
    return JddSearchResult(jdd=best, distance=final_best,
                           evaluations=evaluations, status=status)


def _move_mass(jdd: JointDegreeDistribution, rng: random.Random):
    """Move `PROPOSAL_MASS` of pair mass from a random degree pair that
    holds that much to a random other pair, then renormalize; None when
    the draw picks the donor again or no pair can give."""
    pairs = jdd.pairs.copy()
    donors = np.argwhere(pairs >= PROPOSAL_MASS)
    if not len(donors):
        return None
    dj, dl = donors[rng.randrange(len(donors))].tolist()
    rj = rng.randrange(jdd.max_degree)
    rl = rng.randrange(rj, jdd.max_degree)
    if (dj, dl) == (rj, rl):
        return None
    pairs[dj, dl] -= PROPOSAL_MASS
    pairs[rj, rl] += PROPOSAL_MASS
    moved = JointDegreeDistribution.of_pairs(pairs).entries
    # summed row by row, left to right: the anneal is chaotic in the
    # last bit, and numpy's pairwise sum would move its results
    total = sum(map(sum, moved.tolist()))
    return JointDegreeDistribution(np.maximum(moved, 0.0) / total)


def write_distribution_csv(dist: PathLengthDistribution) -> str:
    lines = ["d,probability"]
    for d in range(1, dist.max_length + 1):
        lines.append(f"{d},{dist.prob(d):.12g}")
    return "\n".join(lines) + "\n"


def read_distribution_csv(text: str) -> PathLengthDistribution:
    """Read what write_distribution_csv writes: rows d = 1, 2, ... in order."""
    rows = [ln for ln in text.strip().splitlines() if ln]
    if not rows or rows[0] != "d,probability":
        raise ValueError("distribution file must start with 'd,probability'")
    probs = []
    for expected, ln in enumerate(rows[1:], start=1):
        d, p = ln.split(",")
        if int(d) != expected:
            raise ValueError(f"distribution row {expected} has d = {d}, not {expected}")
        probs.append(float(p))
    return PathLengthDistribution(tuple(probs))


def write_jdd_csv(jdd: JointDegreeDistribution) -> str:
    """Lower-triangular unordered-pair mass, one row per degree: row j
    holds pairs (1, j) .. (j, j)."""
    return "".join(",".join(f"{v:.12g}" for v in column[:j].tolist()) + "\n"
                   for j, column in enumerate(jdd.pairs.T, start=1))


def read_jdd_csv(text: str) -> JointDegreeDistribution:
    """Read what write_jdd_csv writes."""
    rows = [ln for ln in text.strip().splitlines() if ln]
    for j, ln in enumerate(rows, start=1):
        if ln.count(",") != j - 1:
            raise ValueError(f"row {j} of a triangular matrix needs {j} "
                             f"entries, got {ln.count(',') + 1}")
    lower = np.zeros((len(rows), len(rows)))
    lower[np.tril_indices(len(rows))] = np.array(",".join(rows).split(","),
                                                 dtype=np.float64)
    return JointDegreeDistribution.of_pairs(lower.T)
