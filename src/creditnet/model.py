"""Core model: capacitated channel graphs, balance states, flows, transitions.

A credit network is an undirected graph of payment channels. Each channel
escrows a fixed capacity of tokens, split between its two endpoints; the
split is the channel balance. Sending tokens along a directed path shifts
balance on every channel the path crosses. All arithmetic here is exact
rational; floating point is only tolerated when checking flows produced by
the LP solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

FORWARD = 0   # the canonical (u, v) orientation with u < v
BACKWARD = 1  # the reverse orientation (v, u)

DIRECTION_NAMES = {FORWARD: "forward", BACKWARD: "backward"}

Number = Union[int, Fraction]


def rat(value) -> Fraction:
    """Coerce to an exact rational. Floats are refused: their binary
    expansion is almost never the decimal the caller meant."""
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce float %r to a rational; pass int, str, or Fraction"
            % (value,)
        )
    return Fraction(value)


@dataclass(frozen=True)
class CreditNetwork:
    """Undirected capacitated graph with a canonical edge ordering.

    Edges are stored as (u, v) with u < v, sorted lexicographically. Every
    vector in the package (balances, capacities, routing hops)
    indexes into this order.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    capacities: tuple[Fraction, ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if len(self.edges) != len(self.capacities):
            raise ValueError("edges and capacities must have equal length")
        seen = set()
        prev = None
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u >= v:
                raise ValueError(f"edge {k} not in canonical (u < v) form: ({u}, {v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if prev is not None and (u, v) < prev:
                raise ValueError("edges not sorted lexicographically")
            seen.add((u, v))
            prev = (u, v)
        for k, c in enumerate(self.capacities):
            if not isinstance(c, Fraction):
                raise TypeError(f"capacity {k} is not a Fraction")
            if c <= 0:
                raise ValueError(f"capacity {k} must be positive, got {c}")
        index = {e: k for k, e in enumerate(self.edges)}
        object.__setattr__(self, "_edge_index", index)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_between(self, a: int, b: int) -> tuple[int, int]:
        """Return (edge index, direction) for the directed hop a -> b."""
        key = (a, b) if a < b else (b, a)
        idx = self._edge_index.get(key)
        if idx is None:
            raise ValueError(f"no edge between {a} and {b}")
        return idx, (FORWARD if a < b else BACKWARD)

    def has_edge(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self._edge_index

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def make_network(node_count: int, edges: Iterable[tuple[int, int]],
                 capacities: Iterable) -> CreditNetwork:
    """Build a CreditNetwork, normalizing edge orientation and ordering.

    Capacities are given in the same order as the input edges and are
    permuted along with them into canonical order.
    """
    pairs = []
    for (u, v), c in zip(edges, capacities, strict=True):
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        pairs.append((key, rat(c)))
    pairs.sort(key=lambda item: item[0])
    return CreditNetwork(
        node_count=node_count,
        edges=tuple(p[0] for p in pairs),
        capacities=tuple(p[1] for p in pairs),
    )


@dataclass(frozen=True)
class BalanceState:
    """Per-channel balance at the lower-id endpoint, canonical edge order.

    The balance at the higher-id endpoint is capacity minus this entry and
    is never stored.
    """

    balances: tuple[Fraction, ...]

    def __post_init__(self):
        for k, b in enumerate(self.balances):
            if not isinstance(b, Fraction):
                raise TypeError(f"balance {k} is not a Fraction")

    def __len__(self) -> int:
        return len(self.balances)


def make_state(network: CreditNetwork, values: Iterable) -> BalanceState:
    b = tuple(rat(v) for v in values)
    if len(b) != network.edge_count:
        raise ValueError("balance vector length does not match edge count")
    for k, v in enumerate(b):
        if not (0 <= v <= network.capacities[k]):
            raise ValueError(
                f"balance {v} on edge {k} outside [0, {network.capacities[k]}]"
            )
    return BalanceState(b)


def center_state(network: CreditNetwork) -> BalanceState:
    """The perfectly balanced state C/2."""
    return BalanceState(tuple(c / 2 for c in network.capacities))


@dataclass(frozen=True)
class Path:
    """A simple directed path as hops of (edge index, direction)."""

    source: int
    destination: int
    hops: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for e, d in self.hops:
            if d not in (FORWARD, BACKWARD):
                raise ValueError(f"bad direction {d} on edge {e}")

    def __len__(self) -> int:
        return len(self.hops)


@dataclass(frozen=True)
class PathSet:
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i: int) -> Path:
        return self.paths[i]

    def lengths(self) -> list[int]:
        return [len(p) for p in self.paths]


def path_from_nodes(network: CreditNetwork, nodes: Sequence[int]) -> Path:
    """Convert a node walk into a Path, checking existence and simplicity."""
    if len(nodes) < 2:
        raise ValueError("a path needs at least two nodes")
    hops = []
    used = set()
    for a, b in zip(nodes, nodes[1:]):
        e, d = network.edge_between(a, b)
        if e in used:
            raise ValueError(f"edge {e} repeats; paths must be simple")
        used.add(e)
        hops.append((e, d))
    return Path(source=nodes[0], destination=nodes[-1], hops=tuple(hops))


def path_nodes(network: CreditNetwork, path: Path) -> list[int]:
    """Recover the node sequence of a path."""
    nodes = [path.source]
    for e, d in path.hops:
        u, v = network.edges[e]
        tail, head = (u, v) if d == FORWARD else (v, u)
        if tail != nodes[-1]:
            raise ValueError("path hops are not contiguous")
        nodes.append(head)
    return nodes


@dataclass(frozen=True)
class RoutingSystem:
    """Path x channel incidence: each path's validated (edge, direction) hops.

    The dense (canonical edges) x (ordered paths) views forward, backward and
    delta = forward - backward are built only when read. A feasible flow f
    changes the state by -delta . f, so circulations (delta . f = 0) leave
    balances untouched."""

    hops: tuple[tuple[tuple[int, int], ...], ...]
    edge_count: int

    @property
    def path_count(self) -> int:
        return len(self.hops)

    def _dense(self, forward_entry: int, backward_entry: int):
        rows = [[0] * self.path_count for _ in range(self.edge_count)]
        for p, hops in enumerate(self.hops):
            for e, d in hops:
                rows[e][p] = forward_entry if d == FORWARD else backward_entry
        return tuple(tuple(row) for row in rows)

    forward = property(lambda self: self._dense(1, 0))
    backward = property(lambda self: self._dense(0, 1))
    delta = property(lambda self: self._dense(1, -1))


def build_routing_system(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """Validate a path set and keep its hops as the routing incidence.

    Rejects paths with out-of-range edge indices or non-contiguous hops,
    naming the offending path index.
    """
    ecount = network.edge_count
    for pi, path in enumerate(paths):
        cursor = path.source
        seen_edges = set()
        for e, d in path.hops:
            if not (0 <= e < ecount):
                raise ValueError(f"path {pi}: edge index {e} out of range")
            if e in seen_edges:
                raise ValueError(f"path {pi}: edge {e} used twice")
            seen_edges.add(e)
            u, v = network.edges[e]
            tail, head = (u, v) if d == FORWARD else (v, u)
            if tail != cursor:
                raise ValueError(f"path {pi}: non-contiguous at edge {e}")
            cursor = head
        if cursor != path.destination:
            raise ValueError(f"path {pi}: does not end at its destination")
    return RoutingSystem(hops=tuple(p.hops for p in paths), edge_count=ecount)


@dataclass(frozen=True)
class FlowVector:
    """Non-negative per-path send amounts, aligned with the path order."""

    amounts: tuple

    def __post_init__(self):
        for i, a in enumerate(self.amounts):
            if a < 0:
                raise ValueError(f"flow amount {i} is negative: {a}")

    def __len__(self) -> int:
        return len(self.amounts)

    def is_exact(self) -> bool:
        return all(not isinstance(a, float) for a in self.amounts)


def make_flow(values: Iterable) -> FlowVector:
    """Exact flow vector; use FlowVector directly for float solver output."""
    return FlowVector(tuple(rat(v) for v in values))


def _channel_usage(routing: RoutingSystem, flow: FlowVector):
    """Per-channel totals a flow sends forward and backward, as two lists
    indexed by direction (FORWARD is 0, BACKWARD is 1)."""
    usage = ([0] * routing.edge_count, [0] * routing.edge_count)
    for amount, hops in zip(flow.amounts, routing.hops):
        for e, d in hops:
            usage[d][e] += amount
    return usage


def check_feasible(network: CreditNetwork, routing: RoutingSystem,
                   state: BalanceState, flow: FlowVector, tol=None) -> bool:
    """True iff the flow is nonnegative and, per channel, forward usage
    stays within the sending balance and backward usage within the rest.

    Tolerance defaults to exact zero for rational flows and 1e-9 absolute
    for float flows.
    """
    if len(flow) != routing.path_count or len(state) != routing.edge_count:
        raise ValueError("dimension mismatch between flow, state, and routing")
    if tol is None:
        tol = 0 if flow.is_exact() else 1e-9
    exact = flow.is_exact() and tol == 0
    usage = zip(network.capacities, state.balances, *_channel_usage(routing, flow))
    for cap, bal, fwd, bwd in usage:
        if not exact:
            cap, bal = float(cap), float(bal)
        if fwd > bal + tol or bwd > (cap - bal) + tol:
            return False
    return True


def first_violation(network: CreditNetwork, routing: RoutingSystem,
                    state: BalanceState, flow: FlowVector):
    """Lowest-index (edge, direction) whose balance a flow overdraws, or None."""
    fwd, bwd = _channel_usage(routing, flow)
    for edge in range(routing.edge_count):
        if fwd[edge] > state.balances[edge]:
            return edge, FORWARD
        if bwd[edge] > network.capacities[edge] - state.balances[edge]:
            return edge, BACKWARD
    return None


def apply_flow(network: CreditNetwork, routing: RoutingSystem,
               state: BalanceState, flow: FlowVector) -> BalanceState:
    """One epoch transition: each balance drops by the flow's net shift
    through the channel.  Exact flows only.
    """
    if not flow.is_exact():
        raise TypeError("apply_flow needs exact rational flow amounts")
    violation = first_violation(network, routing, state, flow)
    if violation is not None:
        edge, direction = violation
        raise ValueError(
            f"infeasible flow: channel {edge} overdrawn in the "
            f"{DIRECTION_NAMES[direction]} direction"
        )
    fwd, bwd = _channel_usage(routing, flow)
    return make_state(network, [b - f + r for b, f, r in zip(state.balances, fwd, bwd)])


INTERIOR = "interior"
BOUNDARY = "boundary"
CORNER = "corner"


@dataclass(frozen=True)
class StateClass:
    """Polytope position of a balance state.

    imbalanced lists (edge, direction) pairs whose sending balance is zero:
    (k, FORWARD) when all tokens sit at the higher-id endpoint, (k, BACKWARD)
    when they all sit at the lower-id endpoint.
    """

    kind: str
    imbalanced: tuple[tuple[int, int], ...]


def classify_state(network: CreditNetwork, state: BalanceState) -> StateClass:
    if len(state) != network.edge_count:
        raise ValueError("state length does not match edge count")
    imbalanced = []
    flat = 0
    for edge, bal in enumerate(state.balances):
        cap = network.capacities[edge]
        if not (0 <= bal <= cap):
            raise ValueError(
                f"balance {bal} on edge {edge} outside the polytope")
        if bal == 0:
            imbalanced.append((edge, FORWARD))
            flat += 1
        elif bal == cap:
            imbalanced.append((edge, BACKWARD))
            flat += 1
    if flat == 0:
        kind = INTERIOR
    elif flat == network.edge_count:
        kind = CORNER
    else:
        kind = BOUNDARY
    return StateClass(kind=kind, imbalanced=tuple(imbalanced))
