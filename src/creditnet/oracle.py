"""Exact ground truth at desk scale.

Three independent oracles live here:

* an exhaustive maximum-deadlock search over per-channel imbalance
  assignments (branch-and-bound with unit propagation),
* a discretized reachability enumeration over the balance lattice, and
* the stuck-channel brute force built on top of it.

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


def _hop_blocks(value: int, direction: int) -> bool:
    return (value == BLOCK_FORWARD and direction == FORWARD) or (
        value == BLOCK_BACKWARD and direction == BACKWARD
    )


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

    on_edge = routing.channel_paths
    order = sorted(range(ecount), key=lambda e: (-len(on_edge[e]), e))

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
            for p, d in on_edge[e]:
                if v != OPEN_BOTH:
                    needs[p] = True
                nundec[p] -= 1
                if _hop_blocks(v, d):
                    nblock[p] += 1
            for p, _ in on_edge[e]:
                if nblock[p] > 0 or not needs[p]:
                    continue
                if nundec[p] == 0:
                    return False
                if nundec[p] == 1:
                    for he, hd in routing.hops[p]:
                        if assign[he] is None:
                            stack.append(
                                (he, BLOCK_FORWARD if hd == FORWARD else BLOCK_BACKWARD)
                            )
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

    initial = (
        [None] * ecount,
        [0] * routing.path_count,
        [len(h) for h in routing.hops],
        [False] * routing.path_count,
    )
    search(initial)

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
    for pi, hops in enumerate(routing.hops):
        terms = []
        for hi, (e, d) in enumerate(hops):
            xname = f"x_{e}_f" if d == FORWARD else f"x_{e}_b"
            lines.append(f" blk_{pi}_{hi}: y_{pi} - {xname} <= 0")
            terms.append(xname)
        joined = " - ".join(terms)
        lines.append(f" opn_{pi}: y_{pi} - {joined} >= {1 - len(hops)}")
    for e, on_edge in enumerate(routing.channel_paths):
        for pi, _ in on_edge:
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
    """
    check_balances(network, start.balances)
    quantum = Fraction(granularity)
    if quantum <= 0:
        raise ValueError("granularity must be positive")
    estimate = _lattice_estimate(network, quantum)
    if estimate > REACHABLE_STATE_GUARD:
        raise ValueError(
            f"balance lattice holds about {estimate} states, over the "
            f"{REACHABLE_STATE_GUARD} guard; coarsen the granularity"
        )
    caps = network.capacities
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for hops in routing.hops:
            if any((state.balances[e] if d == FORWARD else caps[e] - state.balances[e])
                   < quantum for e, d in hops):
                continue
            balances = list(state.balances)
            for e, d in hops:
                balances[e] += -quantum if d == FORWARD else quantum
            nxt = BalanceState(tuple(balances))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def deadlocked_channels_bruteforce(
    network: CreditNetwork,
    routing: RoutingSystem,
    start: BalanceState,
    granularity: int | Fraction | None = None,
) -> set[int]:
    """Channels whose balance never moves anywhere in the reachable set."""
    if granularity is None:
        granularity = min(network.capacities) / 2
    reachable = enumerate_reachable(network, routing, start, granularity)
    stuck = set()
    for e in range(network.edge_count):
        values = {state.balances[e] for state in reachable}
        if len(values) == 1:
            stuck.add(e)
    return stuck
