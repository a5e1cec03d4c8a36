"""Exact ground truth at desk scale.

Three independent oracles live here:

* the maximum-deadlock search, one 0/1 program over the peeling core in
  HiGHS (Huangfu & Hall, Math. Prog. Comp. 10, 2018),
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

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .lp import _HIGHS_OPTIONS, _core, _highs_options
from .model import (
    BACKWARD,
    BalanceState,
    CreditNetwork,
    PathSet,
    RoutingSystem,
    build_routing_system,
    check_balances,
    rat,
)
from .peeling import residue

OPTIMAL = "Optimal"
UNSOLVED = "Unsolved"

# A relaxation bit further than this from 0 or 1 is fractional
_INTEGRALITY_TOL = 1e-6

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


def _core_model(routing: RoutingSystem, core: np.ndarray) -> tuple:
    """HiGHS's row-wise (lower, upper, start, index, value) of the deadlock
    program on the core channels. Column 2 * i + d is set when channel
    core[i] is drained at the sending end of direction d, so it blocks its
    hops in direction d. Row r, one per core hop, holds every core hop of
    its path: +1 on their blocking bits, but -1 on the other bit of its own
    channel, so that a channel drained against a path needs another core hop
    of the path to block it. One row per core channel then sets at most one
    of its bits."""
    position = np.full(routing.edge_count, -1)
    position[core] = np.arange(core.size)
    at = position[routing.edge]
    kept = at >= 0
    column = 2 * at[kept] + (routing.sign[kept] < 0)
    path = routing.path[kept]
    counts = np.bincount(path, minlength=routing.path_count)
    first, length = (np.cumsum(counts) - counts)[path], counts[path]
    row = np.repeat(np.arange(column.size), length)
    start = np.concatenate(([0], np.cumsum(length)))
    entry = first[row] + np.arange(start[-1]) - start[row]
    own = entry == row
    pairs = np.arange(1, core.size + 1)
    return (np.concatenate((np.zeros(column.size), np.full(core.size, -_core.kHighsInf))),
            np.concatenate((np.full(column.size, _core.kHighsInf), np.ones(core.size))),
            np.concatenate((start, start[-1] + 2 * pairs)).astype(np.int32),
            np.concatenate((column[entry] ^ own, np.arange(2 * core.size))).astype(np.int32),
            np.concatenate((np.where(own, -1.0, 1.0), np.ones(2 * core.size))))


@cache
def _solver(integral: bool) -> _core._Highs:
    """The relaxation's solver, with lp's options, or the MIP's, with
    presolve on (ten times faster than off on criterion-3 gadgets) and no
    relative gap, so that Optimal is the maximum; kept for the process."""
    solver = _core._Highs()
    solver.passOptions(_highs_options(mip_rel_gap=0.0) if integral else _HIGHS_OPTIONS)
    return solver


def _solve(model: tuple, integral: bool, deadline: float) -> np.ndarray | None:
    """The bits of `model` with the largest sum, as a 0/1 program or its
    relaxation; None when the time left until `deadline` runs out first.
    The model is passed with clearModel, so no call sees the one before."""
    lower, upper, start, index, value = model
    solver = _solver(integral)
    # the last rows, one per core channel, hold every column
    ncol = int(index.max()) + 1
    ones = np.ones(ncol)
    solver.clearModel()
    solver.setOptionValue("time_limit", max(deadline - time.monotonic(), 0.0))
    if solver.passModel(ncol, lower.size, index.size, _core.MatrixFormat.kRowwise,
                        _core.ObjSense.kMaximize, 0.0, ones, np.zeros(ncol), ones, lower,
                        upper, start, index, value,
                        np.full(ncol, int(integral), np.int32)) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS refused the deadlock model")
    solver.run()
    status = solver.getModelStatus()
    if status == _core.HighsModelStatus.kTimeLimit:
        return None
    if status != _core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS ended the deadlock model with "
                           f"{solver.modelStatusToString(status)}")
    return np.array(solver.getSolution().col_value)


def max_deadlock_exact(
    network: CreditNetwork,
    paths: PathSet,
    max_edges: int = 20,
    time_budget: float | None = None,
) -> DeadlockAssignment:
    """Globally maximum count of simultaneously deadlockable channels.

    A channel can sit in a deadlock only if it is fully imbalanced and every
    path routed over it (in either direction) is blocked by some fully
    imbalanced hop. A peeled channel can always move, so only the peeling
    core (`peeling.residue`'s unpeeled edges) can deadlock, and the search
    is one 0/1 program on it (`_core_model`). Its LP relaxation bounds it,
    so an integral relaxation optimum is the maximum; otherwise HiGHS's MIP
    solves it. A core of over `max_edges` channels, or a run past
    `time_budget` seconds, returns Unsolved rather than a silent bound.
    """
    if max_edges < 0:
        raise ValueError(f"max_edges must be non-negative, got {max_edges}")
    budget = math.inf if time_budget is None else time_budget
    if not budget >= 0:
        raise ValueError(f"time budget must be a non-negative number, got {time_budget}")
    deadline = time.monotonic() + budget
    routing = build_routing_system(network, paths)
    core = np.array(sorted(residue(routing).unpeeled_edges), dtype=np.intp)
    bits = np.zeros(0)
    if core.size > max_edges:
        bits = None
    elif core.size:
        model = _core_model(routing, core)
        bits = _solve(model, False, deadline)
        if bits is not None and np.abs(bits - np.round(bits)).max() > _INTEGRALITY_TOL:
            bits = _solve(model, True, deadline)
    if bits is None:
        return DeadlockAssignment(UNSOLVED, frozenset(), (), None)
    # bit 2 * i + d blocks direction d, FORWARD (0) or BACKWARD (1), and its
    # channel is drained at that direction's sending end: 0 forward, the
    # capacity backward
    drained = np.flatnonzero(np.round(bits))
    blocking = dict(zip(core[drained >> 1].tolist(), (drained & 1).tolist()))
    balances = [cap / 2 for cap in network.capacities]
    for e, d in blocking.items():
        balances[e] = network.capacities[e] if d == BACKWARD else Fraction(0)
    return DeadlockAssignment(OPTIMAL, frozenset(blocking), tuple(sorted(blocking.items())),
                              BalanceState(tuple(balances)))


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
