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

* "float": HiGHS's dual simplex (Huangfu & Hall, Math. Prog. Comp. 2018),
  called directly through scipy's bundled binding with the options
  linprog(method="highs-ds") sets, one module-level options object that no
  call changes. Each routing keeps the column-wise arrays of [F; F - B],
  built once from its CSR arrays, so the ceiling, the floor and every
  one-step LP of a routing pass the same model with their own row bounds;
  each solve starts a fresh solver with no basis carried over. Results are
  floats. A bound HiGHS would read as infinite (HIGHS_INFINITE_BOUND and
  above) raises ValueError.
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
* "simplex": creditnet.simplex.solve, an exact two-phase simplex for this
  LP alone, given the dense channel x path rows of F - B (built once per
  routing; F is their positive part) and the bounds. It runs on an integer
  tableau (each row a positive integer multiple of the rational row, so no
  Fraction per cell) with the pivots and the Fraction optimum of a
  rational tableau. It is taken below CERTIFY_MIN_CELLS, where it is faster
  than HiGHS plus the certificate, when a bound is beyond HiGHS's range,
  and when the certificate fails.

Two branches, by size: above EXACT_CELL_LIMIT cells (3 * channels * paths)
the float solve is returned and not kept. At or below it, each routing keeps
one table of exact reports by bound vector (the LP depends only on the
routing and the bounds): the finished ThroughputReport, from whichever exact
route first solved it. A vector met again returns that same report object,
with no solve and no new FlowVector; only a new one is solved. The balance
check runs on every call all the same.

The floor min_throughput is the same LP as the ceiling max_throughput with
the unpeeled channels' bounds lowered from c/2 to 0, so each routing keeps
the ceiling's optimum x, keyed by the capacities it was solved for, and the
floor returns the ceiling's value without a solve when x sends exactly no
flow over any path through an unpeeled channel. Proof: the floor's feasible
set lies inside the ceiling's, so floor <= ceiling, and such an x is
feasible for the floor and reaches the ceiling. Any other unpeeled set, or
a routing with no kept optimum for these capacities, is solved as before.

worst_state_throughput is that floor with the deadlocked set zeroed: a
channel frozen at 0 or its capacity has the bound min(b, c - b) = 0.

one_step_throughput reports the solver status with its value; the peak and
floor functions raise RuntimeError when the solver stops short of an optimum.
All three refuse, with ValueError, a routing with a path without hops: such
a path crosses no channel, so no bound limits its flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.optimize._highspy import _core

from . import simplex
from .model import (
    BalanceState,
    CreditNetwork,
    FlowVector,
    RoutingSystem,
    channel_usage,
    check_balances,
)

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = "Infeasible"
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
# 0.41-0.58 ms against 0.51-0.60 ms for the HiGHS call plus the certificate
# up to 540 cells, where the two tie, and lost at every size from 780 cells
# on (0.68-5.5 ms against 0.55-1.2 ms), so 50-pair criterion-2 LPs
# (1,950-2,700 cells) stay certified. Values are equal on either route; only
# the route label and possibly the optimal vertex depend on it.
CERTIFY_MIN_CELLS = 600

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


def _highs_options(**values) -> _core.HighsOptions:
    """HiGHS options as linprog(method="highs-ds") sets them, with `values`
    on top (solver="ipm" selects the interior-point method)."""
    options = _core.HighsOptions()
    linprog_values = {
        "presolve": "on",
        "solver": "simplex",
        "simplex_strategy": _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
        "highs_debug_level": _core.HighsDebugLevel.kHighsDebugLevelNone,
        "output_flag": False,
        "log_to_console": False,
    }
    for name, value in {**linprog_values, **values}.items():
        setattr(options, name, value)
    return options


# passed to every solve and never changed
_HIGHS_OPTIONS = _highs_options()

# HiGHS model status -> ours; any other status is a NUMERICAL_FAILURE
_HIGHS_STATUS = {
    _core.HighsModelStatus.kInfeasible: INFEASIBLE,
    _core.HighsModelStatus.kModelError: INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: UNBOUNDED,
}

# linprog's feasibility tolerance on a reported optimum, sqrt(1e-9) * 10
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10


def _highs(columns: tuple, b_ub: np.ndarray) -> LpSolution:
    """Maximize sum(x) s.t. A[:m].x <= b_ub, A[m:].x = 0 and x >= 0, on the
    column-wise (start, index, value) arrays of a 2m-row A, in a fresh
    HiGHS solver: no basis is carried from one LP to the next."""
    ncol, m = columns[0].size - 1, b_ub.size
    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = ncol
    model.num_row_ = model.a_matrix_.num_row_ = 2 * m
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = columns
    model.col_cost_ = np.full(ncol, -1.0)
    model.col_lower_ = np.zeros(ncol)
    model.col_upper_ = np.full(ncol, _core.kHighsInf)
    zeros = np.zeros(m)
    model.row_lower_ = np.concatenate((np.full(m, -_core.kHighsInf), zeros))
    model.row_upper_ = np.concatenate((b_ub, zeros))
    solver = _core._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    if (solver.passModel(model) == _core.HighsStatus.kError
            or solver.run() == _core.HighsStatus.kError):
        return LpSolution(NUMERICAL_FAILURE, (), 0.0)
    status = solver.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        return LpSolution(_HIGHS_STATUS.get(status, NUMERICAL_FAILURE), (), 0.0)
    solution = solver.getSolution()
    fun = solver.getInfo().objective_function_value
    x, rows = np.array(solution.col_value), np.array(solution.row_value)
    # linprog's check of an optimum: no NaN, and every bound and row within
    # its tolerance (a NaN fails every comparison)
    within = ((x >= -_FEASIBILITY_TOL).all()
              and (b_ub - rows[:m] >= -_FEASIBILITY_TOL).all()
              and (np.abs(rows[m:]) <= _FEASIBILITY_TOL).all())
    if math.isnan(fun) or not within:
        return LpSolution(NUMERICAL_FAILURE, (), 0.0)
    dual = np.array(solution.row_dual)
    # adding 0.0 turns a -0.0 optimum into 0.0
    return LpSolution(OPTIMAL, tuple(np.maximum(x, 0.0).tolist()), -fun + 0.0,
                      (dual[:m], dual[m:]))


class _LpForms:
    """One routing's LP forms, each built from its CSR arrays on first use
    and kept with the routing: HiGHS's column-wise [F; F - B] and the
    simplex's dense channel x path rows of F - B.
    `exact_optima` maps tuple(bounds) to the finished exact
    ThroughputReport for those bounds, so a bound vector met again (a state
    and its mirror c - b give the same one) returns that report object,
    with no solve on either exact route and no new FlowVector.
    `ceiling` is max_throughput's last optimum as (capacities, value, x),
    None until one is reached; min_throughput reuses it.
    It holds the arrays, not the routing, so the two form no cycle.
    A routing with a path without hops has no LP forms: no bound limits
    the flow of a path that crosses no channel."""

    def __init__(self, routing: RoutingSystem):
        hopless = np.flatnonzero(np.diff(routing.indptr) == 0)
        if hopless.size:
            raise ValueError(f"path {hopless[0]} has no hops: it crosses no channel, "
                             "so its flow is unbounded")
        self.indptr, self.edge, self.sign = routing.indptr, routing.edge, routing.sign
        self.path = routing.path
        self.shape = (routing.path_count, routing.edge_count)
        self.exact_optima: dict[tuple, ThroughputReport] = {}
        self.ceiling: tuple | None = None

    @cached_property
    def highs_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """HiGHS's (start, index, value) of [F; F - B], one column per path:
        row e for a forward hop over e, then row E + e with its sign for
        every hop, rows ascending within a column as a CSC matrix keeps them."""
        pcount, ecount = self.shape
        forward = self.sign > 0
        col = np.concatenate((self.path[forward], self.path))
        row = np.concatenate((self.edge[forward], self.edge + ecount))
        value = np.concatenate((np.ones(forward.sum()), self.sign.astype(float)))
        order = np.argsort(col * 2 * ecount + row)
        start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=pcount))))
        return (start.astype(np.int32), row[order].astype(np.int32), value[order])

    @cached_property
    def simplex_rows(self) -> list[list[int]]:
        """The dense channel x path rows of F - B, the simplex's delta."""
        delta = np.zeros(self.shape[::-1], dtype=np.int64)
        delta[self.edge, self.path] = self.sign
        return delta.tolist()


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


def _exact_solve(routing: RoutingSystem, forms: _LpForms, bounds: list,
                 cells: int) -> tuple[LpSolution, str]:
    """The certified optimum from cells >= CERTIFY_MIN_CELLS up, when every
    bound is within HiGHS's range and the certificate holds; the simplex's
    otherwise."""
    if cells >= CERTIFY_MIN_CELLS:
        try:
            b_ub = _highs_bounds(bounds)
        except ValueError:
            pass  # no float vertex can be certified against such a bound
        else:
            certified = _certify(routing, bounds, _highs(forms.highs_columns, b_ub))
            if certified is not None:
                return certified, CERTIFIED
    return LpSolution(*simplex.solve(forms.simplex_rows, bounds)), SIMPLEX


def _report(solution: LpSolution, route: str) -> ThroughputReport:
    if solution.status == INFEASIBLE:
        raise RuntimeError("throughput LP reported infeasible; zero flow is always feasible")
    if solution.status != OPTIMAL:
        return ThroughputReport(float("nan"), FlowVector(()), solution.status, route)
    return ThroughputReport(solution.objective_value, FlowVector(solution.x), OPTIMAL, route)


def _throughput(routing: RoutingSystem, bounds: list) -> ThroughputReport:
    """The one-step LP's optimum under per-channel limits F.x <= bounds
    (min(b, c - b) for a balance state b) and (F - B).x = 0.

    A float solve above EXACT_CELL_LIMIT, else the routing's kept exact
    report for `bounds`, solved and built on first use.
    """
    if routing.path_count == 0:
        return ThroughputReport(_ZERO, FlowVector(()), OPTIMAL, SIMPLEX)
    forms = _lp_forms(routing)
    cells = 3 * routing.edge_count * routing.path_count
    if cells > EXACT_CELL_LIMIT:
        return _report(_highs(forms.highs_columns, _highs_bounds(bounds)), FLOAT)
    key = tuple(bounds)
    kept = forms.exact_optima.get(key)
    if kept is None:
        kept = forms.exact_optima[key] = _report(*_exact_solve(routing, forms, bounds, cells))
    return kept


def _optimal_value(report: ThroughputReport) -> Fraction | float:
    if report.solver_status != OPTIMAL:
        raise RuntimeError(f"throughput LP ended with status {report.solver_status}")
    return report.psi_value


def _check_routing(network: CreditNetwork, routing: RoutingSystem) -> None:
    if routing.edge_count != network.edge_count:
        raise ValueError("routing system does not match network edge count")
    _lp_forms(routing)  # refuses a path without hops, once per routing


def one_step_throughput(network: CreditNetwork, routing: RoutingSystem,
                        state: BalanceState) -> ThroughputReport:
    """Best total flow sendable from `state` without shifting any balance."""
    _check_routing(network, routing)
    check_balances(network, state.balances)
    return _throughput(routing, [min(b, c - b)
                                 for c, b in zip(network.capacities, state.balances)])


def max_throughput(network: CreditNetwork, routing: RoutingSystem) -> Fraction | float:
    """Throughput ceiling: the one-step value at the perfectly balanced state.

    The optimum is kept with the routing for min_throughput.
    """
    _check_routing(network, routing)
    report = _throughput(routing, [c / 2 for c in network.capacities])
    value = _optimal_value(report)
    _lp_forms(routing).ceiling = (network.capacities, value,
                                  np.asarray(report.optimal_flow.amounts))
    return value


def min_throughput(network: CreditNetwork, routing: RoutingSystem,
                   unpeeled: set[int]) -> Fraction | float:
    """Throughput floor estimate: channels in `unpeeled` admit no flow.

    Zeroing a channel's capacity and balancing the rest is equivalent to
    deleting every path through the zeroed channels. The ceiling's kept
    optimum answers without a solve when it uses none of those paths.
    """
    _check_routing(network, routing)
    for k in unpeeled:
        if not 0 <= k < network.edge_count:
            raise ValueError(f"unpeeled channel index {k} out of range")
    kept = _lp_forms(routing).ceiling
    if kept is not None and kept[0] == network.capacities:
        _, value, x = kept
        zeroed = np.zeros(network.edge_count, dtype=bool)
        zeroed[list(unpeeled)] = True
        if not (x[routing.path[zeroed[routing.edge]]] != 0).any():
            return value
    half = [c / 2 if k not in unpeeled else _ZERO
            for k, c in enumerate(network.capacities)]
    return _optimal_value(_throughput(routing, half))


def worst_state_throughput(network: CreditNetwork, routing: RoutingSystem,
                           deadlock) -> Fraction | float:
    """One-step value at the adversarial state induced by a deadlock.

    Deadlocked channels sit frozen at their blocking balances, 0 or the
    capacity, everything else at the midpoint, so this is the floor with the
    frozen channels zeroed. `deadlock` maps channel index to frozen balance,
    or exposes one as `frozen_balances`, as an Optimal DeadlockAssignment
    does; a search that ended otherwise is refused.
    """
    status = getattr(deadlock, "status", OPTIMAL)
    if status != OPTIMAL:
        raise ValueError(f"deadlock search ended with status {status}, not {OPTIMAL}")
    frozen: Mapping = getattr(deadlock, "frozen_balances", deadlock)
    for k, balance in frozen.items():
        if not 0 <= k < network.edge_count:
            raise ValueError(f"frozen channel index {k} out of range")
        if balance != 0 and balance != network.capacities[k]:
            raise ValueError(f"frozen balance {balance} on channel {k} is neither 0 "
                             f"nor its capacity {network.capacities[k]}")
    return min_throughput(network, routing, set(frozen))
