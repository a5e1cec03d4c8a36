"""Exact ground truth at desk scale.

Three independent oracles live here:

* an exhaustive maximum-deadlock search over per-channel imbalance
  assignments (branch-and-bound with unit propagation),
* a discretized reachability enumeration over the balance lattice, and
* the stuck-channel brute force built on top of it.

The last two share one BFS on integers: a state is one mixed-radix int of
per-channel quantum digits, and BalanceStates are built only for the set
the enumeration returns.

All of them are exponential and guarded by explicit size limits; they exist
to validate the scalable estimators (peeling, LP floors), not to replace
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    BACKWARD,
    FORWARD,
    BalanceState,
    CreditNetwork,
    PathSet,
    RoutingSystem,
    build_routing_system,
    check_balances,
    make_state,
    rat,
)

OPTIMAL = "Optimal"
UNSOLVED = "Unsolved"

# Per-edge imbalance states. Blocking forward means the lower endpoint holds
# zero balance, so nothing can move in the canonical direction; blocking
# backward pins the full capacity there instead. An edge cannot be drained at
# both ends at once, so these three states are exhaustive.
BLOCK_FORWARD = 0
BLOCK_BACKWARD = 1
OPEN_BOTH = 2

REACHABLE_STATE_GUARD = 10**6


@dataclass(frozen=True)
class DeadlockAssignment:
    """A consistent set of fully imbalanced channels plus its witness state."""

    status: str
    deadlocked_edges: frozenset[int]
    blocking_directions: tuple[tuple[int, int], ...]
    witness_state: BalanceState | None

    @property
    def size(self) -> int:
        return len(self.deadlocked_edges)

    @property
    def frozen_balances(self) -> dict[int, Fraction]:
        if self.witness_state is None:
            return {}
        return {e: self.witness_state.balances[e] for e in sorted(self.deadlocked_edges)}


def max_deadlock_exact(
    network: CreditNetwork,
    paths: PathSet,
    max_edges: int = 20,
    time_budget: float | None = None,
) -> DeadlockAssignment:
    """Globally maximum count of simultaneously deadlockable channels.

    A channel can sit in a deadlock only if it is fully imbalanced and every
    path routed over it (in either direction) is blocked by some fully
    imbalanced hop. The search branches per edge over the three imbalance
    states, propagates forced blocks, and prunes with the optimistic count
    of still-undecided edges. Budget overruns return an Unsolved result
    rather than a silent bound.
    """
    routing = build_routing_system(network, paths)
    ecount = network.edge_count
    if ecount > max_edges:
        return DeadlockAssignment(UNSOLVED, frozenset(), (), None)
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    # BLOCK_* equal the directions: value v of edge e blocks the paths on
    # channel 2 * e + v, and an open hop c blocks as value c & 1 of edge c >> 1
    channel = routing.directed_paths
    hops = routing.directed.tolist()
    starts = routing.indptr.tolist()
    order = sorted(range(ecount), key=lambda e: (-len(channel[2 * e] + channel[2 * e + 1]), e))

    best_count = 0
    best_blocking: dict[int, int] = {}
    timed_out = False

    def apply(state, edge, value) -> bool:
        assign, nblock, nundec, needs = state
        stack = [(edge, value)]
        while stack:
            e, v = stack.pop()
            if assign[e] is not None:
                if assign[e] != v:
                    return False
                continue
            assign[e] = v
            on_edge = channel[2 * e] + channel[2 * e + 1]
            for p in on_edge:
                nundec[p] -= 1
            if v != OPEN_BOTH:
                for p in on_edge:
                    needs[p] = True
                for p in channel[2 * e + v]:
                    nblock[p] += 1
            for p in on_edge:
                if nblock[p] > 0 or not needs[p]:
                    continue
                if nundec[p] == 0:
                    return False
                if nundec[p] == 1:
                    for c in hops[starts[p]:starts[p + 1]]:
                        if assign[c >> 1] is None:
                            stack.append((c >> 1, c & 1))
                            break
        return True

    def search(state) -> None:
        nonlocal best_count, best_blocking, timed_out
        if timed_out:
            return
        if deadline is not None and time.monotonic() >= deadline:
            timed_out = True
            return
        assign = state[0]
        deadlocked = [e for e in range(ecount) if assign[e] in (BLOCK_FORWARD, BLOCK_BACKWARD)]
        undecided = [e for e in order if assign[e] is None]
        if len(deadlocked) + len(undecided) <= best_count:
            return
        if not undecided:
            best_count = len(deadlocked)
            best_blocking = {e: assign[e] for e in deadlocked}
            return
        edge = undecided[0]
        for value in (BLOCK_FORWARD, BLOCK_BACKWARD, OPEN_BOTH):
            if best_count == ecount or timed_out:
                return
            child = (
                list(state[0]),
                list(state[1]),
                list(state[2]),
                list(state[3]),
            )
            if apply(child, edge, value):
                search(child)

    search(([None] * ecount, [0] * routing.path_count,
            [b - a for a, b in zip(starts, starts[1:])], [False] * routing.path_count))

    if timed_out:
        return DeadlockAssignment(UNSOLVED, frozenset(), (), None)

    balances = []
    for e, cap in enumerate(network.capacities):
        if e in best_blocking:
            balances.append(Fraction(0) if best_blocking[e] == BLOCK_FORWARD else cap)
        else:
            balances.append(cap / 2)
    directions = tuple(
        (e, FORWARD if best_blocking[e] == BLOCK_FORWARD else BACKWARD)
        for e in sorted(best_blocking)
    )
    return DeadlockAssignment(
        OPTIMAL,
        frozenset(best_blocking),
        directions,
        make_state(network, balances),
    )


def export_ilp(network: CreditNetwork, paths: PathSet) -> str:
    """The maximum-deadlock search as a 0/1 program in CPLEX LP text.

    Variables: per directed channel an openness bit x (0 means that end is
    drained), per path a progress bit y (0 means blocked), per edge a bit z
    that is 0 exactly when the edge is deadlocked. Minimizing the z-sum
    maximizes the deadlock.
    """
    routing = build_routing_system(network, paths)
    lines = ["\\ maximum-deadlock search", "Minimize"]
    zsum = " + ".join(f"z_{e}" for e in range(network.edge_count))
    lines.append(f" obj: {zsum}")
    lines.append("Subject To")
    for e in range(network.edge_count):
        lines.append(f" cap_{e}: x_{e}_f + x_{e}_b >= 1")
        lines.append(f" imb_{e}: z_{e} - x_{e}_f - x_{e}_b = -1")
    xnames = [f"x_{c >> 1}_{'fb'[c & 1]}" for c in routing.directed.tolist()]
    starts = routing.indptr.tolist()
    for pi, (a, b) in enumerate(zip(starts, starts[1:])):
        terms = xnames[a:b]
        for hi, xname in enumerate(terms):
            lines.append(f" blk_{pi}_{hi}: y_{pi} - {xname} <= 0")
        lines.append(f" opn_{pi}: y_{pi} - {' - '.join(terms)} >= {1 - len(terms)}")
    channel = routing.directed_paths
    for e in range(network.edge_count):
        for pi in sorted(channel[2 * e] + channel[2 * e + 1]):
            lines.append(f" dlk_{e}_{pi}: z_{e} - y_{pi} >= 0")
    lines.append("Binaries")
    names = []
    for e in range(network.edge_count):
        names.extend((f"x_{e}_f", f"x_{e}_b"))
    names.extend(f"y_{pi}" for pi in range(routing.path_count))
    names.extend(f"z_{e}" for e in range(network.edge_count))
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _lattice_estimate(network: CreditNetwork, granularity: Fraction) -> int:
    total = 1
    for cap in network.capacities:
        total *= int(cap / granularity) + 1
        if total > REACHABLE_STATE_GUARD:
            return total
    return total


def _reachable_codes(
    network: CreditNetwork,
    routing: RoutingSystem,
    start: BalanceState,
    granularity,
) -> tuple[list[list[Fraction]], list[int], set[int]]:
    """The reachability BFS on integers: (values, strides, codes). Channel
    e of code s has digit d = s // strides[e] % len(values[e]) and balance
    values[e][d], the start's plus (d - floor(b / q)) quanta."""
    check_balances(network, start.balances)
    quantum = rat(granularity)
    if quantum <= 0:
        raise ValueError("granularity must be positive")
    estimate = _lattice_estimate(network, quantum)
    if estimate > REACHABLE_STATE_GUARD:
        raise ValueError(
            f"balance lattice holds about {estimate} states, over the "
            f"{REACHABLE_STATE_GUARD} guard; coarsen the granularity"
        )
    values, strides, code, size = [], [], 0, 1
    for b, cap in zip(start.balances, network.capacities):
        low, high = b // quantum, (cap - b) // quantum
        values.append([b + k * quantum for k in range(-low, high + 1)])
        strides.append(size)
        code += low * size
        size *= low + high + 1
    # A hop over channel e reads its digit as s % span // stride with
    # span = stride * radix: forward sends from the lower end and needs
    # digit >= 1, backward refills it and needs digit <= radix - 2.
    hops = [(strides[e], strides[e] * len(values[e]), forward)
            for e, forward in zip(routing.edge.tolist(), (routing.sign > 0).tolist())]
    starts = routing.indptr.tolist()
    routes = [(sum(-st if forward else st for st, _, forward in hops[a:b]), hops[a:b])
              for a, b in zip(starts, starts[1:])]
    seen = {code}
    frontier = [code]
    while frontier:
        state = frontier.pop()
        for delta, route in routes:
            for st, span, forward in route:
                if (state % span < st) if forward else (state % span >= span - st):
                    break
            else:
                nxt = state + delta
                if nxt not in seen:
                    # codes stay in [0, size), so a wrong digit check ends
                    # in a wrong set or here, never in an endless walk
                    if not 0 <= nxt < size:
                        raise RuntimeError(f"state code {nxt} outside the "
                                           f"{size}-state lattice")
                    seen.add(nxt)
                    frontier.append(nxt)
    return values, strides, seen


def enumerate_reachable(
    network: CreditNetwork,
    routing: RoutingSystem,
    start: BalanceState,
    granularity: int | Fraction = 1,
) -> set[BalanceState]:
    """All balance states reachable from the start in `granularity` steps.

    Any feasible flow of lattice-sized amounts decomposes into a sequence of
    single-path, single-quantum moves that stay feasible throughout, so BFS
    over those unit moves enumerates the full discretized reachable set.
    The BFS runs on integers: each channel's balance is start + k * quantum
    for k in [-floor(b / q), floor((c - b) / q)], a state is one mixed-radix
    int over those digits, and a move checks its hops' digits and adds the
    route's integer delta. BalanceStates are built once, at the end, from
    each channel's precomputed values. `granularity` is coerced like a
    balance: a float is refused with TypeError.
    """
    values, _, codes = _reachable_codes(network, routing, start, granularity)
    reached = set()
    for code in codes:
        balances = []
        for channel in values:
            code, digit = divmod(code, len(channel))
            balances.append(channel[digit])
        reached.add(BalanceState(tuple(balances)))
    return reached


def deadlocked_channels_bruteforce(
    network: CreditNetwork,
    routing: RoutingSystem,
    start: BalanceState,
    granularity: int | Fraction | None = None,
) -> set[int]:
    """Channels whose balance never moves anywhere in the reachable set."""
    if granularity is None:
        # half the smallest capacity; with no channel any quantum will do
        granularity = min(network.capacities) / 2 if network.capacities else 1
    values, strides, codes = _reachable_codes(network, routing, start, granularity)
    return {e for e, (channel, stride) in enumerate(zip(values, strides))
            if len({code // stride % len(channel) for code in codes}) == 1}
