"""Throughput metrics for credit networks, computed via linear programming.

The one-step throughput of a balance state is the optimum of a small LP:
maximize total flow subject to per-channel balance limits and the
steady-state requirement that every channel's net flow is zero. Peak
throughput evaluates that LP at the perfectly balanced state; the floor
variants evaluate it with channels zeroed out or frozen at hostile balances.

Steady state means F.x = B.x for the forward and backward channel x path
incidences, so the sending-balance and remaining-capacity limits collapse
into one row per channel, F.x <= min(b, c - b), beside (F - B).x = 0.

Two solve routes are kept deliberately separate: an exact rational simplex
on the dense routing views (results are Fractions, tests can assert
equality) and scipy's HiGHS dual simplex on sparse matrices built from the
hop lists. By default the exact route takes 3 * channels * paths <=
EXACT_CELL_LIMIT.

one_step_throughput reports the solver status with its value; the peak and
floor functions raise RuntimeError when the solver stops short of an optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import simplex
from .model import (
    FORWARD,
    BalanceState,
    CreditNetwork,
    FlowVector,
    RoutingSystem,
    center_state,
    make_flow,
    make_state,
)

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE
UNBOUNDED = simplex.UNBOUNDED
NUMERICAL_FAILURE = simplex.FAILURE

# Auto route selection: exact rational simplex below this many constraint
# cells, floating point above. Throughput LPs count 3 * channels * paths (the
# forward and backward limit blocks apart, plus the net-shift block).
EXACT_CELL_LIMIT = 20_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple
    objective_value: Fraction | float


@dataclass(frozen=True)
class ThroughputReport:
    psi_value: Fraction | float
    optimal_flow: FlowVector
    solver_status: str


def _highs(objective, a_ub, b_ub, a_eq, b_eq) -> LpSolution:
    c = -np.asarray(objective, dtype=float)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs-ds")
    if res.status == 0:
        x = np.maximum(res.x, 0.0)
        # adding 0.0 turns a -0.0 optimum into 0.0
        return LpSolution(OPTIMAL, tuple(float(v) for v in x), float(-res.fun) + 0.0)
    status = {2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, NUMERICAL_FAILURE)
    return LpSolution(status, (), 0.0)


def _solve_flow(routing: RoutingSystem, bounds: list, exact: bool) -> LpSolution:
    """Maximize total path flow s.t. F.x <= bounds and (F - B).x = 0."""
    pcount = routing.path_count
    zeros = [0] * routing.edge_count
    if exact:
        return LpSolution(*simplex.solve_dense(
            [1] * pcount, routing.forward, bounds, routing.delta, zeros))
    edges = [e for hops in routing.hops for e, _ in hops]
    signs = [1.0 if d == FORWARD else -1.0 for hops in routing.hops for _, d in hops]
    indptr = np.cumsum([0] + [len(hops) for hops in routing.hops])
    delta = sparse.csr_matrix((signs, edges, indptr),
                              shape=(pcount, routing.edge_count)).T
    return _highs([1] * pcount, delta.maximum(0), np.asarray(bounds, dtype=float),
                  delta, np.asarray(zeros, dtype=float))


def _throughput(routing: RoutingSystem, forward_bounds: Sequence,
                backward_bounds: Sequence, exact: bool | None) -> ThroughputReport:
    if routing.path_count == 0:
        return ThroughputReport(_ZERO, make_flow(()), OPTIMAL)
    if exact is None:
        exact = 3 * routing.edge_count * routing.path_count <= EXACT_CELL_LIMIT
    bounds = [min(f, b) for f, b in zip(forward_bounds, backward_bounds, strict=True)]
    solution = _solve_flow(routing, bounds, exact)
    if solution.status == INFEASIBLE:
        raise RuntimeError("throughput LP reported infeasible; zero flow is always feasible")
    if solution.status != OPTIMAL:
        return ThroughputReport(float("nan"), make_flow(()), solution.status)
    exact_x = isinstance(solution.objective_value, Fraction)
    flow = make_flow(solution.x) if exact_x else FlowVector(solution.x)
    return ThroughputReport(solution.objective_value, flow, OPTIMAL)


def _optimal_value(report: ThroughputReport) -> Fraction | float:
    if report.solver_status != OPTIMAL:
        raise RuntimeError(f"throughput LP ended with status {report.solver_status}")
    return report.psi_value


def one_step_throughput(network: CreditNetwork, routing: RoutingSystem,
                        state: BalanceState, exact: bool | None = None) -> ThroughputReport:
    """Best total flow sendable from `state` without shifting any balance."""
    if routing.edge_count != network.edge_count:
        raise ValueError("routing system does not match network edge count")
    forward = state.balances
    backward = tuple(c - b for c, b in zip(network.capacities, state.balances))
    return _throughput(routing, forward, backward, exact)


def max_throughput(network: CreditNetwork, routing: RoutingSystem,
                   exact: bool | None = None) -> Fraction | float:
    """Throughput ceiling: the one-step value at the perfectly balanced state."""
    return _optimal_value(one_step_throughput(network, routing, center_state(network), exact))


def min_throughput(network: CreditNetwork, routing: RoutingSystem,
                   unpeeled: set[int], exact: bool | None = None) -> Fraction | float:
    """Throughput floor estimate: channels in `unpeeled` admit no flow.

    Zeroing a channel's capacity and balancing the rest is equivalent to
    deleting every path through the zeroed channels.
    """
    for k in unpeeled:
        if not 0 <= k < network.edge_count:
            raise ValueError(f"unpeeled channel index {k} out of range")
    half = [c / 2 if k not in unpeeled else _ZERO
            for k, c in enumerate(network.capacities)]
    return _optimal_value(_throughput(routing, half, half, exact))


def worst_state_throughput(network: CreditNetwork, routing: RoutingSystem,
                           deadlock, exact: bool | None = None) -> Fraction | float:
    """One-step value at the adversarial state induced by a deadlock.

    Deadlocked channels sit frozen at their blocking balances, everything
    else at the midpoint. `deadlock` is a mapping from channel index to the
    frozen balance, or any object exposing one as `frozen_balances`.
    """
    frozen: Mapping = getattr(deadlock, "frozen_balances", deadlock)
    balances = []
    for k, c in enumerate(network.capacities):
        if k in frozen:
            value = Fraction(frozen[k])
            if not 0 <= value <= c:
                raise ValueError(f"frozen balance for channel {k} outside [0, capacity]")
            balances.append(value)
        else:
            balances.append(c / 2)
    state = make_state(network, balances)
    return _optimal_value(one_step_throughput(network, routing, state, exact))
