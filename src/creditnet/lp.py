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
  routing's CSR arrays. Results are floats. A bound HiGHS would read as
  infinite (HIGHS_INFINITE_BOUND and above) raises ValueError.
* "certified": the same HiGHS solve, then an exact certificate (after
  Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007, and Gleixner,
  Steffy & Wolter, INFORMS J. Comput. 2016). The primal x and the dual
  (alpha per limit row, gamma per net-shift row) are rationalized, only
  their distinct values, and scaled to integers over common denominators.
  One integer check over the routing's CSR arrays then asks that x be
  exactly feasible, that every path's reduced cost
  sum_forward alpha_e + sum_hops +-gamma_e be >= 1, and that bounds.alpha
  equal sum(x). Weak duality then proves sum(x) optimal, returned as a
  Fraction with the rational x. The integers are int64 when no sum can
  overflow it and Python ints (object arrays) otherwise.
* "simplex": the exact two-phase simplex of creditnet.simplex on dense
  channel x path rows built once per routing, run on an integer tableau
  (each row a positive integer multiple of the rational row, so no
  Fraction per cell) with the pivots and the Fraction optimum of a
  rational tableau. It runs directly below CERTIFY_MIN_CELLS, where it is
  faster than a linprog call plus the certificate, when a bound is beyond
  HiGHS's range, and when the certificate fails.

The size alone picks the route: results are exact (certified or simplex)
for 3 * channels * paths <= EXACT_CELL_LIMIT and float above.

one_step_throughput reports the solver status with its value; the peak and
floor functions raise RuntimeError when the solver stops short of an optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import simplex
from .model import (
    BalanceState,
    CreditNetwork,
    FlowVector,
    RoutingSystem,
    center_state,
    channel_usage,
    check_balances,
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

# HiGHS reads a bound at or above this as infinite (its infinite_bound
# option), so the float route refuses larger finite bounds and the exact
# route sends them to the simplex.
HIGHS_INFINITE_BOUND = 1e20

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


class _LpForms:
    """One routing's LP forms, each built from its CSR arrays on first use
    and kept with the routing: HiGHS's sparse F and F - B and the simplex's
    dense channel x path rows of F and F - B.
    It holds the arrays, not the routing, so the two form no cycle."""

    def __init__(self, routing: RoutingSystem):
        self.indptr, self.edge, self.sign = routing.indptr, routing.edge, routing.sign
        self.path = routing.path
        self.shape = (routing.path_count, routing.edge_count)

    @cached_property
    def highs_matrices(self):
        delta = sparse.csr_matrix((self.sign.astype(float), self.edge, self.indptr),
                                  shape=self.shape).T
        return delta.maximum(0), delta

    @cached_property
    def simplex_rows(self) -> tuple[list, list]:
        delta = np.zeros(self.shape[::-1], dtype=np.int64)
        delta[self.edge, self.path] = self.sign
        return np.maximum(delta, 0).tolist(), delta.tolist()


def _lp_forms(routing: RoutingSystem) -> _LpForms:
    forms = routing.__dict__.get("_lp_forms")
    if forms is None:
        forms = _LpForms(routing)
        object.__setattr__(routing, "_lp_forms", forms)
    return forms


def _float_bound(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _highs_bounds(bounds: list) -> np.ndarray:
    """The bounds as floats. Raises ValueError naming the first channel whose
    bound HiGHS would read as infinite, which would make the LP unbounded."""
    b_ub = np.fromiter(map(_float_bound, bounds), dtype=float, count=len(bounds))
    wide = np.flatnonzero(b_ub >= HIGHS_INFINITE_BOUND)
    if wide.size:
        raise ValueError(f"channel {wide[0]}: balance bound at or above "
                         f"{HIGHS_INFINITE_BOUND:g}, which the float LP reads as "
                         "infinite; an LP this large has no exact route")
    return b_ub


def _scaled(values) -> tuple[list[int], np.ndarray, int, list[Fraction]]:
    """Rationalize the distinct values only: their numerators over one
    common denominator, the index of each value's numerator, that
    denominator and the rationals themselves."""
    distinct, index = np.unique(values, return_inverse=True)
    rationals = [Fraction(v).limit_denominator(CERTIFICATE_DENOMINATOR)
                 for v in distinct.tolist()]
    den = math.lcm(*(r.denominator for r in rationals))
    return ([r.numerator * (den // r.denominator) for r in rationals],
            index.reshape(-1), den, rationals)


def _certify(routing: RoutingSystem, bounds: list, solution: LpSolution) -> LpSolution | None:
    """The exact optimum read off HiGHS's primal and dual, or None.

    With x = X / dx, alpha, gamma = A / dy, G / dy and bounds = B / db over
    integers, the rationalized x must satisfy F.X * db <= B * dx and
    (F - B).X = 0 (x >= 0 holds since _highs clips it). The dual, alpha =
    -ineq marginals clipped at 0 and gamma = -eq marginals, must give every
    path a reduced cost sum_forward A_e + sum_hops +-G_e >= dy. Weak duality
    then bounds every feasible flow total by bounds.alpha, so equality with
    sum(x) proves x optimal.
    """
    if solution.status != OPTIMAL:
        return None
    pcount, ecount = routing.path_count, routing.edge_count
    ineq, eq = solution.duals
    xs, x_index, dx, x_values = _scaled(np.asarray(solution.x))
    duals, dual_index, dy, _ = _scaled(np.concatenate((np.maximum(-ineq, 0.0), -eq)))
    db = math.lcm(*(b.denominator for b in bounds))
    bs = [b.numerator * (db // b.denominator) for b in bounds]
    # every sum below has at most 2 * nnz + paths + channels terms, each a
    # product of at most three factors no larger than m
    m = max(map(abs, xs + duals + bs + [dx, dy, db]))
    fits = (2 * routing.edge.size + pcount + ecount) * m ** 3 < 2 ** 63
    dtype = np.int64 if fits else object
    x = np.array(xs, dtype=dtype)[x_index]
    dual = np.array(duals, dtype=dtype)[dual_index]
    alpha, gamma = dual[:ecount], dual[ecount:]
    b = np.array(bs, dtype=dtype)
    usage = channel_usage(routing, x)
    if not ((usage[0] == usage[1]).all() and (usage[0] * db <= b * dx).all()):
        return None
    # reduced costs, one segmented sum over indptr (reduceat would misread
    # the empty segments)
    edge, sign, indptr = routing.edge, routing.sign, routing.indptr
    hop = np.where(sign > 0, alpha[edge], 0) + sign * gamma[edge]
    running = np.concatenate((np.zeros(1, dtype=dtype), np.cumsum(hop)))
    if not (running[indptr[1:]] - running[indptr[:-1]] >= dy).all():
        return None
    total = x.sum()
    if (b * alpha).sum() * dx != total * dy * db:
        return None
    return LpSolution(OPTIMAL, tuple(x_values[i] for i in x_index.tolist()),
                      Fraction(int(total), dx))


def _solve_flow(routing: RoutingSystem, bounds: list) -> tuple[LpSolution, str]:
    """Maximize total path flow s.t. F.x <= bounds and (F - B).x = 0.

    Returns the solution and the route that produced it.
    """
    pcount = routing.path_count
    forms = _lp_forms(routing)
    cells = 3 * routing.edge_count * pcount
    exact = cells <= EXACT_CELL_LIMIT

    def dense_simplex():
        forward, delta = forms.simplex_rows
        return LpSolution(*simplex.solve_dense(
            [1] * pcount, forward, bounds, delta, [0] * routing.edge_count)), SIMPLEX

    if exact and cells < CERTIFY_MIN_CELLS:
        return dense_simplex()
    try:
        b_ub = _highs_bounds(bounds)
    except ValueError:
        if not exact:
            raise
        # no float vertex can be certified against such a bound
        return dense_simplex()
    f, delta = forms.highs_matrices
    solution = _highs([1] * pcount, f, b_ub, delta, np.zeros(routing.edge_count))
    if not exact:
        return solution, FLOAT
    certified = _certify(routing, bounds, solution)
    if certified is None:
        return dense_simplex()
    return certified, CERTIFIED


def _throughput(routing: RoutingSystem, forward_bounds: Sequence,
                backward_bounds: Sequence) -> ThroughputReport:
    if routing.path_count == 0:
        return ThroughputReport(_ZERO, FlowVector(()), OPTIMAL, SIMPLEX)
    bounds = [min(f, b) for f, b in zip(forward_bounds, backward_bounds, strict=True)]
    solution, route = _solve_flow(routing, bounds)
    if solution.status == INFEASIBLE:
        raise RuntimeError("throughput LP reported infeasible; zero flow is always feasible")
    if solution.status != OPTIMAL:
        return ThroughputReport(float("nan"), FlowVector(()), solution.status, route)
    return ThroughputReport(solution.objective_value, FlowVector(solution.x), OPTIMAL, route)


def _optimal_value(report: ThroughputReport) -> Fraction | float:
    if report.solver_status != OPTIMAL:
        raise RuntimeError(f"throughput LP ended with status {report.solver_status}")
    return report.psi_value


def one_step_throughput(network: CreditNetwork, routing: RoutingSystem,
                        state: BalanceState) -> ThroughputReport:
    """Best total flow sendable from `state` without shifting any balance."""
    if routing.edge_count != network.edge_count:
        raise ValueError("routing system does not match network edge count")
    check_balances(network, state.balances)
    forward = state.balances
    backward = tuple(c - b for c, b in zip(network.capacities, state.balances))
    return _throughput(routing, forward, backward)


def max_throughput(network: CreditNetwork, routing: RoutingSystem) -> Fraction | float:
    """Throughput ceiling: the one-step value at the perfectly balanced state."""
    return _optimal_value(one_step_throughput(network, routing, center_state(network)))


def min_throughput(network: CreditNetwork, routing: RoutingSystem,
                   unpeeled: set[int]) -> Fraction | float:
    """Throughput floor estimate: channels in `unpeeled` admit no flow.

    Zeroing a channel's capacity and balancing the rest is equivalent to
    deleting every path through the zeroed channels.
    """
    for k in unpeeled:
        if not 0 <= k < network.edge_count:
            raise ValueError(f"unpeeled channel index {k} out of range")
    half = [c / 2 if k not in unpeeled else _ZERO
            for k, c in enumerate(network.capacities)]
    return _optimal_value(_throughput(routing, half, half))


def worst_state_throughput(network: CreditNetwork, routing: RoutingSystem,
                           deadlock) -> Fraction | float:
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
    return _optimal_value(one_step_throughput(network, routing, state))
