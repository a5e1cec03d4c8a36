"""Core model: capacitated channel graphs, balance states, flows, transitions.

A credit network is an undirected graph of payment channels. Each channel
escrows a fixed capacity of tokens, split between its two endpoints; the
split is the channel balance. Sending tokens along a directed path shifts
balance on every channel the path crosses. All arithmetic here is exact
rational; floating point is only tolerated when checking flows produced by
the LP solver.

Routes are kept once, as the read-only CSR arrays of a `PathSet`;
`build_routing_system` validates them and the `RoutingSystem` that the
LP, peeling and the oracles read shares them without a copy.  The path set
keeps that routing for the network it was validated against, so one
instance is validated once whichever of them asks first.  Node walks
(path files, the SAT gadget) become arrays through `PathSet.of_walks` and
come back through `PathSet.walks`, which runs that one check first.

Hop distances come from one kernel, `hop_levels`: a breadth-first search
from many sources at once on bitset rows.  Route building and every
path-length mix in synthesis run it with every node as a source.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

FORWARD = 0   # the canonical (u, v) orientation with u < v
BACKWARD = 1  # the reverse orientation (v, u)

DIRECTION_NAMES = {FORWARD: "forward", BACKWARD: "backward"}

Number = Union[int, Fraction]


def rat(value) -> Fraction:
    """Coerce to an exact rational. Floats are refused: their binary
    expansion is almost never the decimal the caller meant."""
    if type(value) is Fraction:  # immutable, so shared as it is
        return value
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
    indexes into this order.  `edge_array` holds the same edges as one
    read-only (edge_count, 2) int64 array, which route building and the
    path checks read; edges given as an array are checked on it and
    stored as the tuple of its rows.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    capacities: tuple[Fraction, ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if len(self.edges) != len(self.capacities):
            raise ValueError("edges and capacities must have equal length")
        ends = _int64_pairs(self.edges)
        if isinstance(self.edges, np.ndarray):
            object.__setattr__(self, "edges", tuple(zip(*self.edges.T.tolist())))
        if ends is None or not _canonical(ends, self.node_count):
            self._check_each_edge()
        # once per distinct object: uniform capacities are one object
        distinct = dict(zip(map(id, self.capacities), self.capacities)).values()
        if not all(isinstance(c, Fraction) and c.numerator > 0 for c in distinct):
            self._check_each_capacity()
        if ends is not None:
            ends.flags.writeable = False
            self.__dict__["edge_array"] = ends

    def _check_each_edge(self):
        """Raise for the first edge that breaks the canonical form; edges
        that will not convert to int64 may pass."""
        prev = None
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u >= v:
                raise ValueError(f"edge {k} not in canonical (u < v) form: ({u}, {v})")
            # in sorted order a duplicate sits next to its twin
            if (u, v) == prev:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if prev is not None and (u, v) < prev:
                raise ValueError("edges not sorted lexicographically")
            prev = (u, v)

    def _check_each_capacity(self):
        for k, c in enumerate(self.capacities):
            if not isinstance(c, Fraction):
                raise TypeError(f"capacity {k} is not a Fraction")
            if c <= 0:
                raise ValueError(f"capacity {k} must be positive, got {c}")

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (edge_count, 2) int64 array."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    def __getstate__(self):
        # the fields alone, as without the cached array, which is rebuilt
        # read-only on demand
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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


def _int64_pairs(pairs) -> np.ndarray | None:
    """`pairs` as an (m, 2) int64 array, or None unless every entry is an
    integer int64 holds and every pair has two (a float, a string or an
    int past int64 would not convert exactly)."""
    if not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    try:
        ends = np.array(pairs)
    except ValueError:  # pairs of unequal length
        return None
    if ends.dtype.kind != "i" or ends.shape != (len(pairs), 2):
        return None
    return ends.astype(np.int64, copy=False)


_LEXICOGRAPHIC = np.array([2, 1])


def _canonical(ends: np.ndarray, node_count) -> bool:
    """Every edge in range with u < v, and the pairs strictly increasing,
    compared u first, then v (u * n + v may be past int64): the sign of
    each step in u, doubled, outweighs its sign in v."""
    if not len(ends):
        return True
    if int(ends.min()) < 0 or int(ends.max()) >= node_count:
        return False
    later = np.sign(ends[1:] - ends[:-1]) @ _LEXICOGRAPHIC > 0
    return bool((ends[:, 0] < ends[:, 1]).all() and later.all())


def make_network(node_count: int, edges: Iterable[tuple[int, int]],
                 capacities: Iterable) -> CreditNetwork:
    """Build a CreditNetwork, normalizing edge orientation and ordering.

    Capacities are given in the same order as the input edges and are
    permuted along with them into canonical order.  Edges that hold
    int64 ids are oriented and ordered at once; the loop below runs for
    any others, and to name the first self-loop or the length mismatch.
    """
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    capacities = list(capacities)
    ends = _int64_pairs(edges)
    ordered = None if ends is None or len(ends) != len(capacities) else _oriented(ends)
    if ordered is None:
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
    capacities = list(map(rat, capacities))
    ends, order = ordered
    return CreditNetwork(
        node_count=node_count,
        edges=ends,
        capacities=tuple(map(capacities.__getitem__, order.tolist())),
    )


def _oriented(ends: np.ndarray):
    """The edges as (low, high) pairs in sorted order, and that order, from
    one stable argsort of the keys low * span + high, ids counted from the
    lowest; None on a self-loop, or where the ids span past 2**31 and the
    keys would pass int64."""
    oriented = np.empty_like(ends)
    low, high = oriented.T
    np.minimum(ends[:, 0], ends[:, 1], out=low)
    np.maximum(ends[:, 0], ends[:, 1], out=high)
    base = int(low.min()) if len(low) else 0
    span = int(high.max(initial=base)) - base + 1
    if span > 2 ** 31 or (low == high).any():
        return None
    order = np.argsort((low - base) * span + high - base, kind="stable")
    return oriented[order], order


class Arcs(NamedTuple):
    """Closed-neighbourhood arc list of an undirected graph, sorted by
    (tail, head): both orientations of every edge plus a self-arc per
    node, so no node's segment is empty (on an empty segment reduceat
    returns the next row, not the identity).  edge[a] is the index of arc
    a's edge in the given edge order, -1 on a self-arc; node v's arcs
    start at starts[v]."""

    tails: np.ndarray
    heads: np.ndarray
    edge: np.ndarray
    starts: np.ndarray


def closed_arcs(node_count: int, edges) -> Arcs:
    """The arc list of nodes 0..node_count-1 joined by (u, v) edges."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    nodes = np.arange(node_count)
    numbered = np.arange(len(ends))
    tails = np.concatenate([nodes, ends[:, 0], ends[:, 1]])
    heads = np.concatenate([nodes, ends[:, 1], ends[:, 0]])
    edge = np.concatenate([np.full(node_count, -1), numbered, numbered])
    order = np.argsort(tails * node_count + heads)  # every arc is distinct
    fan = np.bincount(tails, minlength=node_count)
    return Arcs(tails[order], heads[order], edge[order], np.cumsum(fan) - fan)


def hop_levels(arcs: Arcs, sources) -> Iterator[np.ndarray]:
    """Breadth-first search from every source at once, on bitsets.

    Rows are nodes and bits are sources: bit j of row v says that v is
    reached from sources[j].  Each level ORs together the rows of every
    node's closed neighbourhood (a gather over the arcs, then one
    segmented OR) and yields the bits it newly set, an
    (n, ceil(len(sources) / 64)) uint64 array: level d's bit j of row v
    is set exactly when v lies d hops from sources[j].  The search ends
    at the first level that sets no bit.  On an undirected graph row
    v's bits at level d are also the sources d hops from v, so a row
    popcount with all nodes as sources is a per-node histogram.
    """
    sources = np.asarray(sources, dtype=np.int64)
    column = np.arange(len(sources))
    reach = np.zeros((len(arcs.starts), -(-len(sources) // 64)),
                     dtype=np.uint64)
    np.bitwise_or.at(reach, (sources, column >> 6),
                     np.left_shift(np.uint64(1), (column & 63).astype(np.uint64)))
    while True:
        grown = np.bitwise_or.reduceat(np.take(reach, arcs.heads, axis=0),
                                       arcs.starts, axis=0)
        new = grown & ~reach
        if not new.any():
            return
        reach = grown
        yield new


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


def check_balances(network: CreditNetwork, balances: Sequence) -> None:
    """Raise ValueError unless there is one balance per channel, each within
    [0, capacity]; the message names the first channel out of range."""
    if len(balances) != network.edge_count:
        raise ValueError(f"balance state has {len(balances)} entries for "
                         f"{network.edge_count} channels")
    for k, (v, cap) in enumerate(zip(balances, network.capacities)):
        if not 0 <= v <= cap:
            raise ValueError(f"balance {v} on channel {k} outside [0, {cap}]")


def make_state(network: CreditNetwork, values: Iterable) -> BalanceState:
    b = tuple(rat(v) for v in values)
    check_balances(network, b)
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

    def __len__(self) -> int:
        return len(self.hops)


@dataclass(frozen=True, eq=False)
class PathSet:
    """Routes as read-only CSR int arrays, path by path in hop order: path p
    runs from source[p] to destination[p] over hops indptr[p]:indptr[p + 1]
    of edge (the channel index) and sign (+1 forward, -1 backward).
    Indexing and iteration build `Path`s only when asked."""

    source: np.ndarray
    destination: np.ndarray
    indptr: np.ndarray
    edge: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            array = np.asarray(getattr(self, f.name), dtype=np.int64)
            array.flags.writeable = False
            object.__setattr__(self, f.name, array)

    @classmethod
    def of(cls, paths: Iterable[Path]) -> PathSet:
        """The arrays of a sequence of Paths, unchecked."""
        paths = tuple(paths)
        ends = np.array([(p.source, p.destination) for p in paths], np.int64).reshape(-1, 2)
        hops = np.array([h for p in paths for h in p.hops], np.int64).reshape(-1, 2)
        indptr = np.cumsum([0] + [len(p) for p in paths])
        return cls(ends[:, 0], ends[:, 1], indptr, hops[:, 0], 1 - 2 * hops[:, 1])

    @classmethod
    def of_walks(cls, network: CreditNetwork,
                 walks: Iterable[Sequence[int]]) -> PathSet:
        """The arrays of node walks, source first (one node: no hops), with
        every hop looked up at once among the network's sorted edge keys
        u * n + v. A hop between nodes that share no edge is refused; every
        other check is `build_routing_system`'s."""
        walks = list(walks)
        counts = np.array([len(w) for w in walks], dtype=np.int64)
        if (counts == 0).any():
            raise ValueError("a path needs at least one node")
        try:
            nodes = np.fromiter(chain.from_iterable(walks), np.int64, counts.sum())
        except OverflowError:
            raise ValueError("node id out of the int64 range") from None
        last = np.cumsum(counts) - 1
        first = last - counts + 1
        tail, head = np.delete(nodes, last), np.delete(nodes, first)
        n = network.node_count
        low, high = np.minimum(tail, head), np.maximum(tail, head)
        # ids out of range get key -1, so that low * n + high aliases no edge;
        # the last key, n * n, is no pair's and keeps the lookup in bounds
        pair = np.where((low >= 0) & (high < n), low * n + high, -1)
        keys = np.append(network.edge_array @ [n, 1], n * n)
        edge = np.searchsorted(keys, pair)
        missing = keys[edge] != pair
        if missing.any():
            k = np.argmax(missing)
            raise ValueError(f"no edge between {tail[k]} and {head[k]}")
        return cls(nodes[first], nodes[last], np.append(0, np.cumsum(counts - 1)),
                   edge, np.where(tail < head, 1, -1))

    def walks(self, network: CreditNetwork) -> list[list[int]]:
        """Every path's node walk, source first, once `build_routing_system`
        has accepted the paths: the inverse of `of_walks`."""
        build_routing_system(network, self)
        walk = _hop_ends(network, self, self.edge)[1].tolist()
        bounds = (self.indptr + np.arange(len(self) + 1)).tolist()
        return [walk[a:b] for a, b in zip(bounds, bounds[1:])]

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self) -> Iterator[Path]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> Path:
        i = range(len(self))[i]
        a, b = self.indptr[i:i + 2]
        hops = zip(self.edge[a:b].tolist(), ((1 - self.sign[a:b]) // 2).tolist())
        return Path(int(self.source[i]), int(self.destination[i]), tuple(hops))

    def __eq__(self, other):
        return isinstance(other, PathSet) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class RoutingSystem:
    """Path x channel incidence: a validated path set's CSR arrays, shared
    with its `PathSet`, not copied. As a paths x channels matrix, sign is
    delta = forward - backward; a feasible flow f changes the state by
    -delta^T . f, so circulations (delta^T . f = 0) leave balances
    untouched. The LP, peeling and the exact oracles read it."""

    indptr: np.ndarray
    edge: np.ndarray
    sign: np.ndarray
    edge_count: int

    @property
    def path_count(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def path(self) -> np.ndarray:
        """The path index of every hop, aligned with edge and sign."""
        path = np.repeat(np.arange(self.path_count), np.diff(self.indptr))
        path.flags.writeable = False
        return path

    @cached_property
    def directed(self) -> np.ndarray:
        """The directed channel id 2 * edge + direction of every hop,
        aligned with edge and sign; ids sort as (edge, direction) pairs do."""
        directed = 2 * self.edge + (self.sign < 0)
        directed.flags.writeable = False
        return directed

    @cached_property
    def directed_paths(self) -> tuple[tuple[int, ...], ...]:
        """Directed channel id -> path index, the transpose of the hops:
        entry 2 * e + d lists the paths with hop (e, d), in path order."""
        ids = self.directed
        # hop index breaks ties: path order without a slower stable sort
        order = np.argsort(ids * ids.size + np.arange(ids.size))
        paths = self.path[order].tolist()
        ends = np.cumsum(np.bincount(ids, minlength=2 * self.edge_count)).tolist()
        return tuple(tuple(paths[a:b]) for a, b in zip([0] + ends, ends))


def _hop_ends(network: CreditNetwork, paths: PathSet, edge: np.ndarray):
    """The tail of every hop, read as crossing `edge`, and all node walks,
    source first, in one array: path p's is [indptr[p] + p, indptr[p + 1] + p]."""
    # the placeholder row keeps the lookup valid on a network without edges
    ends = (network.edge_array if network.edge_count else np.zeros((1, 2), np.int64)).ravel()
    # a hop's tail is entry 2 * edge + direction of the flat edge array,
    # its head the other entry of that pair
    tail = 2 * edge + (paths.sign < 0)
    walk = np.empty(len(edge) + len(paths), dtype=np.int64)
    start = np.zeros(len(walk), dtype=bool)
    start[paths.indptr[:-1] + np.arange(len(paths))] = True
    walk[start] = paths.source
    walk[~start] = ends[tail ^ 1]
    return ends[tail], walk


def build_routing_system(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """Validate a path set and wrap its arrays as the routing incidence.

    The path set keeps the routing with the network it was validated
    against, so that peeling, the exact oracles and the LP of one instance
    share one routing (and the LP forms kept on it): a repeat call with the
    same network object returns that routing, and any other network is
    validated anew. A network is immutable, so its identity stands for its
    edges.
    """
    kept = paths.__dict__.get("_routing")
    if kept is not None and kept[0] is network:
        return kept[1]
    routing = _validated_routing(network, paths)
    object.__setattr__(paths, "_routing", (network, routing))
    return routing


def _validated_routing(network: CreditNetwork, paths: PathSet) -> RoutingSystem:
    """The one check of a path set's hops, run over the routing's arrays at
    once. In hop order each hop must name an edge in range, go FORWARD or
    BACKWARD, not repeat an edge of its path and start where the previous
    hop (or the source) ended; the walk must end at the destination, and a
    path without hops must name a node of the network. The error names the
    lowest failing path and the first check it fails.
    """
    routing = RoutingSystem(paths.indptr, paths.edge, paths.sign, network.edge_count)
    edge, sign, path, indptr = routing.edge, routing.sign, routing.path, routing.indptr
    in_range = (edge >= 0) & (edge < network.edge_count)
    directed = np.abs(sign) == 1
    safe = np.where(in_range & directed, edge, 0)
    tail, walk = _hop_ends(network, paths, safe)
    at_end = indptr[1:] + np.arange(routing.path_count)
    repeated = np.ones(edge.size, dtype=bool)
    repeated[np.unique(path * network.edge_count + safe, return_index=True)[1]] = False
    bad_hop = ~in_range | ~directed | repeated | (tail != np.delete(walk, at_end))
    astray = walk[at_end] != paths.destination
    # only a path without hops can pass every other check off the graph
    n = network.node_count
    outside = (paths.source < 0) | (paths.source >= n)
    bad_path = astray | outside
    bad_path[path[bad_hop]] = True
    if not bad_path.any():
        return routing
    pi = int(np.argmax(bad_path))
    hops = np.flatnonzero(bad_hop[indptr[pi]:indptr[pi + 1]]) + indptr[pi]
    if not hops.size:
        raise ValueError(f"path {pi}: does not end at its destination" if astray[pi]
                         else f"path {pi}: node {paths.source[pi]} outside 0..{n - 1}")
    k = hops[0]
    e = int(edge[k])
    problem = (f"edge index {e} out of range" if not in_range[k] else
               f"bad direction {(1 - sign[k]) // 2} on edge {e}" if not directed[k] else
               f"edge {e} used twice" if repeated[k] else
               f"non-contiguous at edge {e}")
    raise ValueError(f"path {pi}: {problem}")


@dataclass(frozen=True)
class FlowVector:
    """Non-negative per-path send amounts, aligned with the path order."""

    amounts: tuple

    def __post_init__(self):
        for i, a in enumerate(self.amounts):
            if not a >= 0:
                raise ValueError(f"flow amount {i} is negative or NaN: {a}")

    def __len__(self) -> int:
        return len(self.amounts)

    def is_exact(self) -> bool:
        return all(not isinstance(a, float) for a in self.amounts)


def make_flow(values: Iterable) -> FlowVector:
    """Exact flow vector; use FlowVector directly for float solver output."""
    return FlowVector(tuple(rat(v) for v in values))


def channel_usage(routing: RoutingSystem, amounts) -> np.ndarray:
    """Per-channel totals of one amount per path, sent forward (row FORWARD)
    and backward (row BACKWARD), in the amounts' dtype: object for Fractions
    and Python ints, int64 or float64 as given."""
    amounts = np.asarray(amounts)
    if amounts.shape != (routing.path_count,):
        raise ValueError(f"{amounts.size} flow amounts for {routing.path_count} paths")
    usage = np.zeros((2, routing.edge_count), dtype=amounts.dtype)
    np.add.at(usage, ((routing.sign < 0).astype(np.intp), routing.edge),
              amounts[routing.path])
    return usage


def _usage_and_limits(network: CreditNetwork, routing: RoutingSystem,
                      state: BalanceState, flow: FlowVector, exact: bool):
    """A flow's channel usage beside the balances it may draw on (the
    sending balance forward, the rest of the capacity backward): Fractions
    when exact, floats otherwise."""
    if not network.edge_count == routing.edge_count == len(state):
        raise ValueError(f"network, routing and state have {network.edge_count}, "
                         f"{routing.edge_count} and {len(state)} channels")
    usage = channel_usage(routing, np.array(
        flow.amounts, dtype=object if flow.is_exact() else float))
    balances, capacities = (np.array(v, dtype=object if exact else float)
                            for v in (state.balances, network.capacities))
    return usage, np.stack((balances, capacities - balances))


def check_feasible(network: CreditNetwork, routing: RoutingSystem,
                   state: BalanceState, flow: FlowVector, tol=None) -> bool:
    """True iff, per channel, forward usage stays within the sending balance
    and backward usage within the rest.

    Tolerance defaults to exact zero for rational flows and 1e-9 absolute
    for float flows.
    """
    if tol is None:
        tol = 0 if flow.is_exact() else 1e-9
    usage, limits = _usage_and_limits(network, routing, state, flow,
                                      flow.is_exact() and tol == 0)
    return bool((usage <= limits + tol).all())


def apply_flow(network: CreditNetwork, routing: RoutingSystem,
               state: BalanceState, flow: FlowVector) -> BalanceState:
    """One epoch transition: each balance drops by the flow's net shift
    through the channel.  Exact flows only.  The error for an infeasible
    flow names the lowest overdrawn channel, forward before backward.
    """
    usage, limits = _usage_and_limits(network, routing, state, flow,
                                      flow.is_exact())
    over = ~(usage <= limits)
    if over.any():
        edge, direction = divmod(int(np.argmax(over.T)), 2)
        raise ValueError(f"infeasible flow: channel {edge} overdrawn in the "
                         f"{DIRECTION_NAMES[direction]} direction")
    if not flow.is_exact():
        raise TypeError("apply_flow needs exact rational flow amounts")
    return make_state(network, limits[FORWARD] - usage[FORWARD] + usage[BACKWARD])


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
    check_balances(network, state.balances)
    imbalanced = []
    flat = 0
    for edge, (bal, cap) in enumerate(zip(state.balances, network.capacities)):
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
