"""Throughput metrics for credit networks, computed via linear programming.

The one-step throughput of a balance state is the optimum of a small LP:
maximize total flow subject to per-channel balance limits and the
steady-state requirement that every channel's net flow is zero. Peak
throughput evaluates that LP at the perfectly balanced state; the floor
variants evaluate it with channels zeroed out or frozen at hostile balances.

Steady state means F.x = B.x for the forward and backward channel x path
incidences, so the sending-balance and remaining-capacity limits collapse
into one row per channel, F.x <= min(b, c - b), beside (F - B).x = 0.

Two solve routes, by size; ThroughputReport.route names the one that ran:

* "float", above EXACT_CELL_LIMIT cells (3 * channels * paths): HiGHS's
  dual simplex (Huangfu & Hall, Math. Prog. Comp. 2018) without presolve,
  as linprog(method="highs-ds", options={"presolve": False}) runs it, called
  directly through scipy's bundled binding with _HIGHS_OPTIONS, the one
  option set every solver gets. Each routing keeps the column-wise arrays
  of [F; F - B], built once from its CSR arrays and passed to HiGHS in one
  array call, so every LP of a routing passes the same model with its own
  row bounds. Each one-step LP and each ceiling starts a fresh solver, so
  its result, x included, is that linprog's, bit for bit. The ceiling's
  solver is kept for the floor, which re-optimizes it (below). A bound
  HiGHS reads as infinite (HIGHS_INFINITE_BOUND and up) raises ValueError.
* "certified", at or below it: each routing keeps one HiGHS solver, which
  gets the model on the routing's first LP and after that only the limit row
  bounds that differ from the last LP's. Every LP starts cold (the dual
  simplex without presolve), so its answer, vertex included, depends on its
  bounds alone. The bounds are first scaled by the power of two that lifts
  the largest to at least 1 and keeps it below 1e19 (the LP is positively
  homogeneous in them). An exact certificate (after Applegate, Cook, Dash &
  Espinoza, Oper. Res. Lett. 2007, and Gleixner, Steffy & Wolter, INFORMS J.
  Comput. 2016) then proves the optimum: x and the dual (alpha per limit
  row, gamma per net-shift row) are rationalized, only their distinct
  values, and scaled to integers over common denominators (int64 when no sum
  can overflow it, Python ints otherwise). One integer check over the
  routing's CSR arrays asks that x be exactly feasible and >= 0, that alpha
  >= 0 and every path's reduced cost sum_forward alpha_e + sum_hops
  +-gamma_e be >= 1, and that bounds.alpha equal sum(x); weak duality then
  proves sum(x) optimal, returned as a Fraction with the rational x. When
  the rationalized floats fail, one round of scaled iterative refinement
  (Gleixner et al.) solves the LP again, moved to HiGHS's x and scaled so
  that HiGHS's tolerances see x's violation and every bound, and the basis
  it ends on is solved in Fractions and put to the same check. A vector
  neither proves gets HiGHS's float optimum, labelled "float", or, at or
  above HIGHS_INFINITE_BOUND, ValueError naming the widest channel. A
  routing without paths has the certified optimum 0.

Each routing keeps one table of exact-branch reports by bound vector (the
LP depends only on the routing and the bounds). A vector met again returns
that same report object, with no solve and no new FlowVector; only a new
one is solved. The balance check runs on every call all the same.

The floor min_throughput is the same LP as the ceiling max_throughput with
the unpeeled channels' bounds lowered from c/2 to 0, so each routing keeps
the ceiling's optimum x, keyed by the capacities it was solved for, and the
floor returns the ceiling's value without a solve when x sends exactly no
flow over any path through an unpeeled channel. Proof: the floor's feasible
set lies inside the ceiling's, so floor <= ceiling, and such an x is
feasible for the floor and reaches the ceiling. The floor is 0, with no
solve, when every path crosses an unpeeled channel: each such path's
forward usage is bounded by 0 there, and steady state then zeroes its
backward usage too. Any other unpeeled set is solved. On the float route
the ceiling's solver re-optimizes from the ceiling's basis (the dual
simplex after a bound change, Huangfu & Hall) with the unpeeled rows'
upper bounds set to 0; the solver remembers the bounds it holds, so a later
floor changes only the rows that differ, the last set's restored included.
The floor returns its value alone, never x, so the vertex a warm start
lands on shows nowhere; the value is within 1e-9 of a cold solve. On the
exact branch, or with no kept optimum for these capacities, the floor is
solved as any other LP.

worst_state_throughput is that floor with the deadlocked set zeroed: a
channel frozen at 0 or its capacity has the bound min(b, c - b) = 0.

one_step_throughput reports the solver status with its value; the peak and
floor functions raise RuntimeError when the solver stops short of an optimum.
All three refuse, with ValueError, a routing with a path without hops: such
a path crosses no channel, so no bound limits its flow.

The HiGHS binding, _core, is scipy's compiled scipy.optimize._highspy._core,
loaded at import straight from its file in scipy/optimize/_highspy, found by
importlib's PathFinder. Importing it through scipy.optimize would first run
that package's __init__ (about 0.4 s: linalg, sparse, fft), which none of
these solves use. The module is put in sys.modules under its dotted name
before it runs, so a later `import scipy.optimize` reuses it, and pybind11
registers the binding's types once; if scipy.optimize loaded it first, that
module is the one used. The load stays at import, not at the first LP, so a
first pass pays nothing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .model import (
    BalanceState,
    CreditNetwork,
    FlowVector,
    RoutingSystem,
    channel_usage,
    check_balances,
)


def _load_highs_binding():
    """scipy's bundled HiGHS binding, loaded from its own file without
    running scipy.optimize's package init; the module scipy.optimize
    itself holds, when either side has loaded it first."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.machinery.PathFinder.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "optimize", "_highspy")
               for root in scipy.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    # registered first, so the import system hands scipy.optimize this
    # module and pybind11 registers the binding's types once
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_core = _load_highs_binding()

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
NUMERICAL_FAILURE = "NumericalFailure"

# Exact rational result at or below this many constraint cells, floating
# point above. Throughput LPs count 3 * channels * paths (the forward and
# backward limit blocks apart, plus the net-shift block).
EXACT_CELL_LIMIT = 20_000

# Largest denominator tried when reading HiGHS's floats as rationals.
CERTIFICATE_DENOMINATOR = 10 ** 6

# HiGHS reads a bound at or above this as infinite (its infinite_bound
# option), so the float route refuses larger finite bounds and the exact
# route scales them below it by a power of two.
HIGHS_INFINITE_BOUND = 1e20

# ThroughputReport.route values
CERTIFIED = "certified"
FLOAT = "float"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple
    objective_value: Fraction | float
    # HiGHS's (inequality, equality) marginals; empty once exact
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


# passed to every solver and never changed: the dual simplex without
# presolve, which removes almost nothing here. Summed over the four 3,000-pair
# desk ceilings of pool entry 0, 66 ms against 79 ms with presolve; per exact
# LP of exact-small pool entries 0-15, 0.21-0.25 ms (54 cells) and 0.52 ms
# (1,950-2,700 cells) against 0.31 and 0.90 ms (Python 3.11, 2-vCPU VM)
_HIGHS_OPTIONS = _highs_options(presolve="off")

# HiGHS model status -> ours; any other status is a NUMERICAL_FAILURE
_HIGHS_STATUS = {
    _core.HighsModelStatus.kInfeasible: INFEASIBLE,
    _core.HighsModelStatus.kModelError: INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: UNBOUNDED,
}

# linprog's feasibility tolerance on a reported optimum, sqrt(1e-9) * 10
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10


def _pass_lp(solver: _core._Highs, columns: tuple, row_lower: np.ndarray,
             row_upper: np.ndarray, col_lower: np.ndarray) -> bool:
    """Pass `solver` _HIGHS_OPTIONS and the LP max sum(x) s.t. row_lower <=
    A.x <= row_upper and x >= col_lower, on A's column-wise (start, index,
    value) arrays, in one array call; False when HiGHS refuses the model."""
    start, index, value = columns
    ncol = start.size - 1
    solver.passOptions(_HIGHS_OPTIONS)
    # the last argument, integrality, is an error when empty
    return solver.passModel(ncol, row_lower.size, index.size, _core.MatrixFormat.kColwise,
                            _core.ObjSense.kMinimize, 0.0, np.full(ncol, -1.0), col_lower,
                            np.full(ncol, _core.kHighsInf), row_lower, row_upper, start,
                            index, value, np.zeros(ncol, np.int32)) != _core.HighsStatus.kError


class _KeptSolver:
    """A HiGHS solver kept between LPs on one model, and the limit rows'
    upper bounds its model holds (None until its first LP passes the
    model). Each later LP changes only the rows whose bound differs.
    A `cold` solver clears the last solve first, so that its answer, vertex
    included, depends on the bounds alone; any other re-optimizes from the
    last basis, the dual simplex after a bound change."""

    def __init__(self, cold: bool):
        self.highs = _core._Highs()
        self.cold = cold
        self.b_ub: np.ndarray | None = None


def _highs(columns: tuple, b_ub: np.ndarray, kept: _KeptSolver | None = None) -> LpSolution:
    """Maximize sum(x) s.t. A[:m].x <= b_ub, A[m:].x = 0 and x >= 0, on the
    column-wise (start, index, value) arrays of a 2m-row A.

    Without `kept`, in a fresh HiGHS solver; with it, in its solver, whose
    first LP is solved as a fresh one.
    """
    m = b_ub.size
    if kept is not None and kept.b_ub is not None:
        solver = kept.highs
        if kept.cold:
            solver.clearSolver()
        for row in np.flatnonzero(b_ub != kept.b_ub).tolist():
            solver.changeRowBounds(row, -_core.kHighsInf, float(b_ub[row]))
    else:
        zeros = np.zeros(m)
        solver = _core._Highs() if kept is None else kept.highs
        if not _pass_lp(solver, columns, np.concatenate((np.full(m, -_core.kHighsInf), zeros)),
                        np.concatenate((b_ub, zeros)), np.zeros(columns[0].size - 1)):
            return LpSolution(NUMERICAL_FAILURE, (), 0.0)
    if kept is not None:
        kept.b_ub = b_ub
    if solver.run() == _core.HighsStatus.kError:
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


class _Ceiling(NamedTuple):
    """max_throughput's optimum: the capacities it was solved for, its value
    and x, and on the float route the solver it ran in, kept for the floor,
    with the ceiling's float bounds (None on the exact route)."""
    capacities: tuple
    value: Fraction | float
    x: np.ndarray
    solver: _KeptSolver | None
    b_ub: np.ndarray | None


class _LpForms:
    """One routing's LP forms, each built from its CSR arrays on first use
    and kept with the routing: HiGHS's column-wise [F; F - B], and the
    exact branch's cold HiGHS `solver`, which keeps the model between LPs.
    `exact_optima` maps tuple(bounds) to the finished exact-branch
    ThroughputReport for those bounds, so a bound vector met again (a state
    and its mirror c - b give the same one) returns that report object,
    with no solve and no new FlowVector.
    `ceiling` is max_throughput's last _Ceiling, None until one is reached;
    min_throughput reuses its x and, on the float route, re-optimizes its
    solver. The kept solver holds HiGHS's model and factorization until the
    next ceiling replaces it or the routing is freed.
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
        self.ceiling: _Ceiling | None = None

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
    def solver(self) -> _KeptSolver:
        return _KeptSolver(cold=True)


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


def _highs_bounds(bounds, scale: float = 1.0) -> np.ndarray:
    """The bounds as floats, times `scale`. Raises ValueError naming the first
    channel whose bound HiGHS would read as infinite (an unbounded LP)."""
    b_ub = np.fromiter(map(_float_bound, bounds), dtype=float, count=len(bounds)) * scale
    wide = np.flatnonzero(b_ub >= HIGHS_INFINITE_BOUND)
    if wide.size:
        raise ValueError(f"channel {wide[0]}: balance bound at or above "
                         f"{HIGHS_INFINITE_BOUND:g}, which the float LP reads as "
                         "infinite; an LP this large has no exact route")
    return b_ub


def _distinct(values: np.ndarray, read=Fraction) -> tuple[list[Fraction], np.ndarray]:
    """`read` of each distinct value, and the index of every value's."""
    distinct, index = np.unique(values, return_inverse=True)
    return [read(v) for v in distinct.tolist()], index.reshape(-1)


def _rational(value: float) -> Fraction:
    return Fraction(value).limit_denominator(CERTIFICATE_DENOMINATOR)


def _integers(rationals: list[Fraction]) -> tuple[list[int], int]:
    """The numerators of `rationals` over one common denominator, and it."""
    den = math.lcm(*(r.denominator for r in rationals))
    return [r.numerator * (den // r.denominator) for r in rationals], den


def _check(routing: RoutingSystem, bounds: list, x: tuple, dual: tuple) -> LpSolution | None:
    """The exact optimum x, when the dual proves it, or None.

    `x` and `dual` are each (distinct rationals, index of every entry's
    rational), the dual's entries alpha per limit row, then gamma per
    net-shift row. With x = X / dx, alpha, gamma = A / dy, G / dy and
    bounds = B / db over integers, X must be >= 0 and satisfy
    F.X * db <= B * dx and (F - B).X = 0; A must be >= 0 and give every
    path a reduced cost sum_forward A_e + sum_hops +-G_e >= dy. Weak
    duality then bounds every feasible flow total by bounds.alpha, so
    equality with sum(x) proves x optimal.
    """
    pcount, ecount = routing.path_count, routing.edge_count
    (x_values, x_index), (dual_values, dual_index) = x, dual
    xs, dx = _integers(x_values)
    duals, dy = _integers(dual_values)
    bs, db = _integers(bounds)
    # every sum below has at most 2 * nnz + paths + channels terms, each a
    # product of at most three factors no larger than m
    m = max(map(abs, xs + duals + bs + [dx, dy, db]))
    fits = (2 * routing.edge.size + pcount + ecount) * m ** 3 < 2 ** 63
    dtype = np.int64 if fits else object
    x = np.array(xs, dtype=dtype)[x_index]
    dual = np.array(duals, dtype=dtype)[dual_index]
    alpha, gamma = dual[:ecount], dual[ecount:]
    b = np.array(bs, dtype=dtype)
    if not ((x >= 0).all() and (alpha >= 0).all()):
        return None
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


def _certify(routing: RoutingSystem, bounds: list, solution: LpSolution) -> LpSolution | None:
    """The exact optimum read off HiGHS's primal and dual (alpha and gamma
    its negated marginals, alpha clipped at 0), rationalized, or None."""
    if solution.status != OPTIMAL:
        return None
    ineq, eq = solution.duals
    return _check(routing, bounds, _distinct(np.asarray(solution.x), _rational),
                  _distinct(np.concatenate((np.maximum(-ineq, 0.0), -eq)), _rational))


def _fraction_solve(matrix: np.ndarray, rhs: list) -> list[Fraction] | None:
    """The x with matrix.x = rhs, by Gauss-Jordan elimination in Fractions,
    or None when the square matrix is singular."""
    n = len(rhs)
    rows = [[*map(Fraction, row), Fraction(r)] for row, r in zip(matrix.tolist(), rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        prow = rows[col] = [v * inverse for v in rows[col]]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != col and factor:
                rows[i] = [a - factor * p for a, p in zip(row, prow)]
    return [row[n] for row in rows]


def _basis_solve(routing: RoutingSystem, forms: _LpForms, bounds: list,
                 solver: _core._Highs) -> LpSolution | None:
    """The optimum of `solver`'s last basis, solved exactly, or None.

    The nonbasic rows are the active ones (limit rows at their bound, all
    net-shift rows at 0) and as many as the basic path columns. On that
    square B, B.x_B = b and B^T.y = 1 give the vertex and a dual, solved in
    Fractions and put to _check; every other x and dual entry is 0.
    """
    basis = solver.getBasis()
    basic = _core.HighsBasisStatus.kBasic
    cols = [j for j, status in enumerate(basis.col_status) if status == basic]
    rows = [i for i, status in enumerate(basis.row_status) if status != basic]
    if not basis.valid or len(cols) != len(rows):
        return None
    (pcount, ecount), (start, index, value) = forms.shape, forms.highs_columns
    a = np.zeros((2 * ecount, pcount), dtype=np.int64)
    a[index, np.repeat(np.arange(pcount), np.diff(start))] = value
    square = a[np.ix_(rows, cols)]
    x_basic = _fraction_solve(square, [bounds[i] if i < ecount else 0 for i in rows])
    y_active = _fraction_solve(square.T, [1] * len(cols))
    if x_basic is None or y_active is None:
        return None
    x, y = np.full(pcount, _ZERO, dtype=object), np.full(2 * ecount, _ZERO, dtype=object)
    x[cols], y[rows] = x_basic, y_active
    y[:ecount] = [max(v, _ZERO) for v in y[:ecount]]
    return _check(routing, bounds, _distinct(x), _distinct(y))


def _exponent(low, high) -> int:
    """The k for which 2**k lifts `low` to at least 1 (0 when `low` is 0 or
    at least 1 already), lowered while high * 2**k would reach 1e19, so
    that HiGHS reads no scaled bound as infinite."""
    k = (math.ceil(1 / Fraction(low)) - 1).bit_length() if low else 0
    if high >= 10 ** 19:
        return -(int(high) // 10 ** 19).bit_length()
    return min(k, (math.ceil(10 ** 19 / Fraction(high)) - 1).bit_length() - 1) if high else k


def _refine(routing: RoutingSystem, forms: _LpForms, bounds: list,
            solution: LpSolution) -> LpSolution | None:
    """The optimum of the basis of one round of scaled iterative refinement
    (Gleixner, Steffy & Wolter), solved exactly, or None.

    Bounds further apart than a double's 53 bits, or below HiGHS's
    tolerances, can leave HiGHS's answer off by more than the smaller ones.
    With x0 HiGHS's x read exactly (0 when it gave no optimum), d maximizes
    sum(d) s.t. F.d <= s(bounds - F.x0), (F - B).d = -s(F - B).x0 and
    d >= -s.x0: the LP moved to x0, its right-hand sides x0's residuals,
    scaled by s = 2**_exponent(low, high). That lifts x0's largest
    violation (|net shift|, overdrawn limit) and every nonzero bound to at
    least 1, so HiGHS's tolerances see them, while the violation stays
    below 1e19; any larger scaled slack or x0 is cut to 1e19. Its rows are
    the LP's, and d at its lower bound -s.x0 is a path with no flow, so the
    basis a fresh HiGHS solver ends on is a basis of the LP, for
    _basis_solve.
    """
    x0 = [Fraction(v) for v in solution.x] or [_ZERO] * routing.path_count
    usage = channel_usage(routing, np.array(x0, dtype=object))
    slack = [b - u for b, u in zip(bounds, usage[0].tolist())]
    shift = (usage[1] - usage[0]).tolist()
    violation = max([0, *map(abs, shift), *(-v for v in slack)])
    scale = Fraction(2) ** _exponent(min([v for v in (violation, *bounds) if v], default=0),
                                     violation)
    slack, shift, x0 = (np.array([float(min(v * scale, 10 ** 19)) for v in values])
                        for values in (slack, shift, x0))
    solver = _core._Highs()
    free = np.full(slack.size, -_core.kHighsInf)
    _pass_lp(solver, forms.highs_columns, np.concatenate((free, shift)),
             np.concatenate((slack, shift)), -x0)
    solver.run()
    return _basis_solve(routing, forms, bounds, solver)


def _exact_solve(routing: RoutingSystem, forms: _LpForms, bounds: list) -> ThroughputReport:
    """The certified optimum of the kept solver's answer, else of the basis
    of one round of refinement, else HiGHS's float optimum; all for the
    bounds times 2**_exponent(max, max), and divided back. A vector reaching
    HIGHS_INFINITE_BOUND that neither proves raises ValueError."""
    wide = max(bounds)
    k = _exponent(wide, wide)
    scaled = [b * Fraction(2) ** k for b in bounds] if k else bounds
    b_ub = np.fromiter(map(float, scaled), dtype=float, count=len(bounds))
    solution = _highs(forms.highs_columns, b_ub, forms.solver)
    exact = _certify(routing, scaled, solution) or _refine(routing, forms, scaled, solution)
    if exact is None:
        if wide >= HIGHS_INFINITE_BOUND:
            raise ValueError(f"channel {bounds.index(wide)}: balance bound at or above "
                             f"{HIGHS_INFINITE_BOUND:g}, and no exact optimum in HiGHS's range")
        if k:
            solution = LpSolution(solution.status, tuple(np.ldexp(solution.x, -k).tolist()),
                                  math.ldexp(solution.objective_value, -k))
        return _report(solution, FLOAT)
    if k:
        exact = LpSolution(OPTIMAL, tuple(v * Fraction(2) ** -k for v in exact.x),
                           exact.objective_value * Fraction(2) ** -k)
    return _report(exact, CERTIFIED)


def _report(solution: LpSolution, route: str) -> ThroughputReport:
    if solution.status == INFEASIBLE:
        raise RuntimeError("throughput LP reported infeasible; zero flow is always feasible")
    if solution.status != OPTIMAL:
        return ThroughputReport(float("nan"), FlowVector(()), solution.status, route)
    return ThroughputReport(solution.objective_value, FlowVector(solution.x), OPTIMAL, route)


def _float_route(routing: RoutingSystem) -> bool:
    """Whether the routing's LPs are solved in floats: above EXACT_CELL_LIMIT
    cells, and never without paths, whose certified optimum is 0."""
    cells = 3 * routing.edge_count * routing.path_count
    return routing.path_count > 0 and cells > EXACT_CELL_LIMIT


def _throughput(routing: RoutingSystem, bounds: list) -> ThroughputReport:
    """The one-step LP's optimum under per-channel limits F.x <= bounds
    (min(b, c - b) for a balance state b) and (F - B).x = 0.

    A float solve on the float route, else the routing's kept exact report
    for `bounds`, solved and built on first use.
    """
    if routing.path_count == 0:
        return ThroughputReport(_ZERO, FlowVector(()), OPTIMAL, CERTIFIED)
    forms = _lp_forms(routing)
    if _float_route(routing):
        return _report(_highs(forms.highs_columns, _highs_bounds(bounds)), FLOAT)
    key = tuple(bounds)
    report = forms.exact_optima.get(key)
    if report is None:
        report = forms.exact_optima[key] = _exact_solve(routing, forms, bounds)
    return report


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

    The optimum is kept with the routing for min_throughput, and on the
    float route so is the solver it ran in.
    """
    _check_routing(network, routing)
    kept = _KeptSolver(cold=False) if _float_route(routing) else None
    if kept is None:
        report = _throughput(routing, [c / 2 for c in network.capacities])
    else:  # halving a double is exact (short of subnormals): the floats of c / 2
        report = _report(_highs(_lp_forms(routing).highs_columns,
                                _highs_bounds(network.capacities, 0.5), kept), FLOAT)
    value = _optimal_value(report)
    _lp_forms(routing).ceiling = _Ceiling(network.capacities, value,
                                          np.asarray(report.optimal_flow.amounts),
                                          kept, None if kept is None else kept.b_ub)
    return value


def min_throughput(network: CreditNetwork, routing: RoutingSystem,
                   unpeeled: set[int]) -> Fraction | float:
    """Throughput floor estimate: channels in `unpeeled` admit no flow.

    Zeroing a channel's capacity and balancing the rest is equivalent to
    deleting every path through the zeroed channels, so the floor is 0 with
    no solve when every path crosses one. The ceiling's kept optimum answers
    without a solve when it uses none of those paths; otherwise, on the
    float route, the ceiling's solver re-optimizes with the zeroed rows.
    """
    _check_routing(network, routing)
    for k in unpeeled:
        if not 0 <= k < network.edge_count:
            raise ValueError(f"unpeeled channel index {k} out of range")
    zeroed = np.zeros(network.edge_count, dtype=bool)
    zeroed[list(unpeeled)] = True
    # the path of every hop over a zeroed channel
    through = routing.path[zeroed[routing.edge]]
    crossed = np.zeros(routing.path_count, dtype=bool)
    crossed[through] = True
    if crossed.all():
        return 0.0 if _float_route(routing) else _ZERO
    forms = _lp_forms(routing)
    ceiling = forms.ceiling
    if ceiling is not None and ceiling.capacities == network.capacities:
        if not (ceiling.x[through] != 0).any():
            return ceiling.value
        if ceiling.solver is not None:
            b_ub = np.where(zeroed, 0.0, ceiling.b_ub)
            return _optimal_value(_report(_highs(forms.highs_columns, b_ub, ceiling.solver),
                                          FLOAT))
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
