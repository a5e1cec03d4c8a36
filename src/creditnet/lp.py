"""Throughput metrics for credit networks, computed via linear programming.

The one-step throughput of a balance state is the optimum of a small LP:
maximize total flow subject to per-channel balance limits and the
steady-state requirement that every channel's net flow is zero. Peak
throughput evaluates that LP at the perfectly balanced state; the floor
variants evaluate it with channels zeroed out or frozen at hostile balances.

Steady state means F.x = B.x for the forward and backward channel x path
incidences, so the sending-balance and remaining-capacity limits collapse
into one row per channel, F.x <= min(b, c - b), beside (F - B).x = 0.

Three solve routes; ThroughputReport.route names the one that ran:

* "float": scipy's HiGHS dual simplex on sparse F and F - B built from the
  hop lists. Results are floats.
* "certified": the same HiGHS solve, then an exact certificate over the hop
  lists (after Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007, and
  Gleixner, Steffy & Wolter, INFORMS J. Comput. 2016). The primal x and the
  dual (alpha per limit row, gamma per net-shift row) are rationalized; x
  must be exactly feasible, every path's reduced cost
  sum_forward alpha_e + sum_hops +-gamma_e must be >= 1, and bounds.alpha
  must equal sum(x). Weak duality then proves sum(x) optimal, returned as a
  Fraction with the rational x.
* "simplex": the exact two-phase simplex of creditnet.simplex on the dense
  routing views, run on an integer tableau (each row a positive integer
  multiple of the rational row, so no Fraction per cell) with the pivots
  and the Fraction optimum of a rational tableau. It runs directly below
  CERTIFY_MIN_CELLS, where it is faster than a linprog call plus the
  certificate, and when the certificate fails.

By default results are exact (certified or simplex) for
3 * channels * paths <= EXACT_CELL_LIMIT and float above.

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
    _channel_usage,
    center_state,
    check_balances,
    make_flow,
    make_state,
)

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE
UNBOUNDED = simplex.UNBOUNDED
NUMERICAL_FAILURE = simplex.FAILURE

# Auto route selection: exact rational result at or below this many
# constraint cells, floating point above. Throughput LPs count
# 3 * channels * paths (the forward and backward limit blocks apart, plus the
# net-shift block).
EXACT_CELL_LIMIT = 20_000

# Exact results below this many cells come from the integer-tableau simplex
# directly. On the four exact-small recipes at 10-50 pairs (phi_max and
# phi_min LPs, median of 5 seeds, best of 3; Python 3.11, 2-vCPU VM) it took
# 0.6-5.5 ms against 3.0-7.1 ms for linprog plus the certificate at every
# size up to 1,950 cells, and first lost at 2,430 cells. The limit stays
# below 1,950 so that 50-pair criterion-2 LPs (1,950-2,700 cells) stay
# certified. Values are equal on either route; only the route label and
# possibly the optimal vertex depend on it.
CERTIFY_MIN_CELLS = 1_900

# Largest denominator tried when reading HiGHS's floats as rationals.
CERTIFICATE_DENOMINATOR = 10 ** 6

# ThroughputReport.route values
SIMPLEX = "simplex"
CERTIFIED = "certified"
FLOAT = "float"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple
    objective_value: Fraction | float
    # HiGHS's (inequality, equality) marginals; empty from the simplex
    duals: tuple = ()


@dataclass(frozen=True)
class ThroughputReport:
    psi_value: Fraction | float
    optimal_flow: FlowVector
    solver_status: str
    route: str


def _highs(objective, a_ub, b_ub, a_eq, b_eq) -> LpSolution:
    c = -np.asarray(objective, dtype=float)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs-ds")
    if res.status == 0:
        x = np.maximum(res.x, 0.0)
        # adding 0.0 turns a -0.0 optimum into 0.0
        return LpSolution(OPTIMAL, tuple(float(v) for v in x), float(-res.fun) + 0.0,
                          (res.ineqlin.marginals, res.eqlin.marginals))
    status = {2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, NUMERICAL_FAILURE)
    return LpSolution(status, (), 0.0)


def _rational(value: float) -> Fraction:
    return Fraction(value).limit_denominator(CERTIFICATE_DENOMINATOR)


def _certify(routing: RoutingSystem, bounds: list, solution: LpSolution) -> LpSolution | None:
    """The exact optimum read off HiGHS's primal and dual, or None.

    The rationalized x must satisfy F.x <= bounds and (F - B).x = 0 exactly
    (x >= 0 holds since _highs clips it). The rationalized dual, alpha = -ineq
    marginals clipped at 0 and gamma = -eq marginals, must give every path a
    reduced cost sum_forward alpha_e + sum_hops +-gamma_e >= 1. Weak duality
    then bounds every feasible flow total by bounds.alpha, so equality with
    sum(x) proves x optimal.
    """
    if solution.status != OPTIMAL:
        return None
    flow = FlowVector(tuple(_rational(v) for v in solution.x))
    fwd, bwd = _channel_usage(routing, flow)
    if any(f > b or f != r for f, r, b in zip(fwd, bwd, bounds)):
        return None
    ineq, eq = solution.duals
    alpha = [_rational(max(-v, 0.0)) for v in ineq]
    gamma = [_rational(-v) for v in eq]
    for hops in routing.hops:
        if sum(alpha[e] + gamma[e] if d == FORWARD else -gamma[e] for e, d in hops) < 1:
            return None
    value = sum(flow.amounts, _ZERO)
    if sum(b * a for b, a in zip(bounds, alpha)) != value:
        return None
    return LpSolution(OPTIMAL, flow.amounts, value)


def _solve_flow(routing: RoutingSystem, bounds: list, exact: bool) -> tuple[LpSolution, str]:
    """Maximize total path flow s.t. F.x <= bounds and (F - B).x = 0.

    Returns the solution and the route that produced it.
    """
    pcount = routing.path_count
    zeros = [0] * routing.edge_count

    def dense_simplex():
        return LpSolution(*simplex.solve_dense(
            [1] * pcount, routing.forward, bounds, routing.delta, zeros)), SIMPLEX

    if exact and 3 * routing.edge_count * pcount < CERTIFY_MIN_CELLS:
        return dense_simplex()
    edges = [e for hops in routing.hops for e, _ in hops]
    signs = [1.0 if d == FORWARD else -1.0 for hops in routing.hops for _, d in hops]
    indptr = np.cumsum([0] + [len(hops) for hops in routing.hops])
    delta = sparse.csr_matrix((signs, edges, indptr),
                              shape=(pcount, routing.edge_count)).T
    solution = _highs([1] * pcount, delta.maximum(0), np.asarray(bounds, dtype=float),
                      delta, np.asarray(zeros, dtype=float))
    if not exact:
        return solution, FLOAT
    certified = _certify(routing, bounds, solution)
    if certified is None:
        return dense_simplex()
    return certified, CERTIFIED


def _throughput(routing: RoutingSystem, forward_bounds: Sequence,
                backward_bounds: Sequence, exact: bool | None) -> ThroughputReport:
    if routing.path_count == 0:
        return ThroughputReport(_ZERO, make_flow(()), OPTIMAL, SIMPLEX)
    if exact is None:
        exact = 3 * routing.edge_count * routing.path_count <= EXACT_CELL_LIMIT
    bounds = [min(f, b) for f, b in zip(forward_bounds, backward_bounds, strict=True)]
    solution, route = _solve_flow(routing, bounds, exact)
    if solution.status == INFEASIBLE:
        raise RuntimeError("throughput LP reported infeasible; zero flow is always feasible")
    if solution.status != OPTIMAL:
        return ThroughputReport(float("nan"), make_flow(()), solution.status, route)
    flow = FlowVector(solution.x) if route == FLOAT else make_flow(solution.x)
    return ThroughputReport(solution.objective_value, flow, OPTIMAL, route)


def _optimal_value(report: ThroughputReport) -> Fraction | float:
    if report.solver_status != OPTIMAL:
        raise RuntimeError(f"throughput LP ended with status {report.solver_status}")
    return report.psi_value


def one_step_throughput(network: CreditNetwork, routing: RoutingSystem,
                        state: BalanceState, exact: bool | None = None) -> ThroughputReport:
    """Best total flow sendable from `state` without shifting any balance."""
    if routing.edge_count != network.edge_count:
        raise ValueError("routing system does not match network edge count")
    check_balances(network, state.balances)
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
    for k in frozen:
        if not 0 <= k < network.edge_count:
            raise ValueError(f"frozen channel index {k} out of range")
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
