import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from creditnet import (
    BACKWARD,
    FORWARD,
    BalanceState,
    FlowVector,
    Path,
    PathSet,
    apply_flow,
    build_routing_system,
    check_feasible,
    center_state,
    make_network,
    make_state,
    path_from_nodes,
)
from creditnet import lp, simplex
from creditnet.demand import DemandSpec, build_paths, sample_demand
from creditnet.model import channel_usage
from creditnet.topology import ERDOS_RENYI, TopologySpec, gen_topology
from conftest import line_instance
from test_model import dense_views, routing_hops, small_instance


def _triangle(bidirectional):
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], [10, 10, 10])
    hops = [[0, 1], [1, 2], [2, 0]]
    if bidirectional:
        hops += [[1, 0], [2, 1], [0, 2]]
    paths = PathSet.of(path_from_nodes(net, h) for h in hops)
    return net, build_routing_system(net, paths)


def _route(exact):
    """Send every LP down the exact or the float route: the cell count
    against EXACT_CELL_LIMIT is all that picks one."""
    return mock.patch.object(lp, "EXACT_CELL_LIMIT", math.inf if exact else -1)


def _delta_residual(routing, flow):
    worst = 0
    for row in dense_views(routing)[2]:
        shift = sum(a * d for a, d in zip(flow.amounts, row))
        worst = max(worst, abs(shift))
    return worst


# --- raw simplex ---


def test_simplex_single_variable():
    status, x, value = simplex.solve_dense((1,), ((1,),), (5,))
    assert status == "Optimal"
    assert x == (5,)
    assert value == 5


def test_simplex_degenerate_optimum():
    status, _, value = simplex.solve_dense((1, 1), ((1, 1), (1, 0)), (3, 2))
    assert status == "Optimal"
    assert value == 3


def test_simplex_equality_constraint():
    status, x, value = simplex.solve_dense(
        (1, 2), ((1, 0),), (3,), ((1, 1),), (4,)
    )
    assert status == "Optimal"
    assert value == 8
    assert x == (0, 4)


def test_simplex_infeasible():
    status, _, _ = simplex.solve_dense((0,), ((1,),), (-1,))
    assert status == "Infeasible"


def test_simplex_unbounded():
    status, _, _ = simplex.solve_dense((1,), ((-1,),), (0,))
    assert status == "Unbounded"


def test_simplex_rejects_floats():
    with pytest.raises(TypeError):
        simplex.solve_dense((1.0,), ((1,),), (5,))


def test_simplex_exact_fractions():
    status, x, value = simplex.solve_dense(
        (1,), ((Fraction(3),),), (Fraction(1, 7),)
    )
    assert status == "Optimal"
    assert x == (Fraction(1, 21),)
    assert value == Fraction(1, 21)


def test_simplex_agrees_with_float_route():
    rng = random.Random(20260814)
    for _ in range(25):
        nvars = rng.randint(1, 5)
        nrows = rng.randint(1, 6)
        obj = [rng.randint(-3, 5) for _ in range(nvars)]
        rows = [[rng.randint(-2, 4) for _ in range(nvars)] for _ in range(nrows)]
        bounds = [rng.randint(0, 12) for _ in range(nrows)]
        # box rows keep the region bounded regardless of the random rows
        rows += [[1 if j == i else 0 for j in range(nvars)] for i in range(nvars)]
        bounds += [10] * nvars
        status, _, value = simplex.solve_dense(obj, rows, bounds)
        approx = linprog([-v for v in obj], A_ub=rows, b_ub=bounds,
                         bounds=(0, None), method="highs-ds")
        assert status == "Optimal"
        assert approx.status == 0
        assert abs(float(value) + approx.fun) < 1e-7


def test_simplex_rejects_ragged_rows():
    with pytest.raises(ValueError, match="inequality row width"):
        simplex.solve_dense((1, 1), ((1,),), (5,))
    with pytest.raises(ValueError, match="equality row width"):
        simplex.solve_dense((1, 1), (), (), ((1, 1, 1),), (0,))
    with pytest.raises(ValueError):
        simplex.solve_dense((1,), ((1,), (1,)), (5,))


# --- integer tableau against a Fraction-tableau reference ---
#
# _reference_solve_dense runs solve_dense's two-phase simplex on a tableau
# of Fractions: the same pricing, ratio test, tie-break, Bland switch,
# phase-1 pricing, drive-out and rhs flip, with every cell a rational.
# Both read simplex.BLAND_SWITCH_FACTOR and ITERATION_CAP_FACTOR at call
# time, so patching the module patches both sides.


def _reference_pivot(tab, obj, basis, row, col):
    inv = 1 / tab[row][col]
    prow = [v * inv for v in tab[row]]
    tab[row] = prow
    for i, trow in enumerate(tab):
        factor = trow[col]
        if i != row and factor:
            tab[i] = [a - factor * b for a, b in zip(trow, prow)]
    factor = obj[col]
    if factor:
        obj[:] = [a - factor * b for a, b in zip(obj, prow)]
    basis[row] = col


def _reference_optimize(tab, obj, basis, banned, rhs_col, ncols):
    size = len(tab) + ncols
    bland_after = simplex.BLAND_SWITCH_FACTOR * size
    cap = simplex.ITERATION_CAP_FACTOR * size + 1000
    iters = 0
    while True:
        free = [j for j in range(ncols - 1) if j not in banned]
        if iters < bland_after:
            entering = min(free, key=lambda j: obj[j], default=None)
            if entering is not None and obj[entering] >= 0:
                entering = None
        else:
            entering = next((j for j in free if obj[j] < 0), None)
        if entering is None:
            return simplex.OPTIMAL
        leave = best = None
        for i, trow in enumerate(tab):
            if trow[entering] > 0:
                ratio = trow[rhs_col] / trow[entering]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best, leave = ratio, i
        if leave is None:
            return simplex.UNBOUNDED
        _reference_pivot(tab, obj, basis, leave, entering)
        iters += 1
        if iters > cap:
            return simplex.FAILURE


def _reference_solve_dense(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    zero = Fraction(0)
    c = [Fraction(v) for v in c]
    nvars = len(c)
    rows = [[Fraction(v) for v in r] for r in list(a_ub) + list(a_eq)]
    rhs = [Fraction(v) for v in list(b_ub) + list(b_eq)]
    kinds = ["le"] * len(a_ub) + ["eq"] * len(a_eq)
    m = len(rows)
    if nvars == 0:
        bad = any(k == "eq" and b != 0 or k == "le" and b < 0
                  for k, b in zip(kinds, rhs))
        return (simplex.INFEASIBLE if bad else simplex.OPTIMAL), (), zero
    if m == 0:
        if any(v > 0 for v in c):
            return simplex.UNBOUNDED, (), zero
        return simplex.OPTIMAL, (zero,) * nvars, zero
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            kinds[i] = "ge" if kinds[i] == "le" else kinds[i]
    slack_rows = [i for i in range(m) if kinds[i] != "eq"]
    art_rows = [i for i in range(m) if kinds[i] != "le"]
    slack_of = {i: nvars + k for k, i in enumerate(slack_rows)}
    art_of = {i: nvars + len(slack_rows) + k for k, i in enumerate(art_rows)}
    rhs_col = nvars + len(slack_rows) + len(art_rows)
    ncols = rhs_col + 1
    tab, basis = [], []
    for i in range(m):
        trow = rows[i] + [zero] * (ncols - nvars)
        if i in slack_of:
            trow[slack_of[i]] = Fraction(1 if kinds[i] == "le" else -1)
        if i in art_of:
            trow[art_of[i]] = Fraction(1)
        trow[rhs_col] = rhs[i]
        tab.append(trow)
        basis.append(slack_of[i] if kinds[i] == "le" else art_of[i])
    banned = set(art_of.values())
    if art_of:
        obj = [Fraction(1 if j in banned else 0) for j in range(ncols)]
        for i, bcol in enumerate(basis):
            if bcol in banned:
                obj = [a - b for a, b in zip(obj, tab[i])]
        if _reference_optimize(tab, obj, basis, set(), rhs_col, ncols) != simplex.OPTIMAL:
            return simplex.FAILURE, (), zero
        if obj[rhs_col] != 0:
            return simplex.INFEASIBLE, (), zero
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] not in banned:
                continue
            pivot_col = next((j for j in range(rhs_col)
                              if j not in banned and tab[i][j] != 0), None)
            if pivot_col is None:
                del tab[i]
                del basis[i]
            else:
                _reference_pivot(tab, [zero] * ncols, basis, i, pivot_col)
    obj = [-v for v in c] + [zero] * (ncols - nvars)
    for i, bcol in enumerate(basis):
        factor = obj[bcol]
        if factor:
            obj = [a - factor * b for a, b in zip(obj, tab[i])]
    status = _reference_optimize(tab, obj, basis, banned, rhs_col, ncols)
    if status != simplex.OPTIMAL:
        return status, (), zero
    x = [zero] * nvars
    for i, bcol in enumerate(basis):
        if bcol < nvars:
            x[bcol] = tab[i][rhs_col]
    return simplex.OPTIMAL, tuple(x), obj[rhs_col]


_ENTRIES = st.one_of(st.integers(min_value=-4, max_value=4),
                     st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _dense_lps(draw):
    """Small LPs with <=, = and redundant = rows, bounds of both signs and
    many zeros, so infeasible, unbounded and degenerate cases all occur."""
    nvars = draw(st.integers(min_value=0, max_value=5))
    row = st.lists(_ENTRIES, min_size=nvars, max_size=nvars)
    c = draw(row)
    a_ub = draw(st.lists(row, max_size=5))
    b_ub = draw(st.lists(_ENTRIES, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    b_eq = draw(st.lists(_ENTRIES, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        # a repeated equality leaves an artificial basic at level zero
        a_eq.append(list(a_eq[0]))
        b_eq.append(b_eq[0])
    if nvars and draw(st.booleans()):
        # box rows x_j <= bound keep more of the draws bounded
        box = draw(st.integers(min_value=0, max_value=4))
        a_ub += [[int(j == i) for j in range(nvars)] for i in range(nvars)]
        b_ub += [box] * nvars
    return c, a_ub, b_ub, a_eq, b_eq


def _assert_matches_reference(lp_args):
    got = simplex.solve_dense(*lp_args)
    assert got == _reference_solve_dense(*lp_args)
    assert all(type(v) is Fraction for v in got[1])
    assert type(got[2]) is Fraction


# Pinned LPs on which a wrong tie-break, a missing sign flip in the
# drive-out pivot or a lost objective scale changes (status, x, value);
# random draws hit the first two only about once in 10,000.
_PINNED_LPS = [
    # ratio ties under Bland's rule: the first tied row is not the lowest basis
    ((0, 1, 1, 1), ((0, 0, 0, 1), (-1, 2, 0, 0), (0, 1, 0, -1), (2, -1, 0, -1),
                    (0, 1, 1, 0)), (4, 2, 2, 2, 2)),
    # ratio ties where the higher basis index would end on another optimum
    ((1, 1, 0, 0), ((1, 2, 0, 1), (1, 0, 0, -1), (2, -1, 0, 0)), (4, 2, 4)),
    # the degenerate artificial leaves on a negative entry
    ((Fraction(5, 3), 2), (), (), ((-2, Fraction(-18, 5)),), (0,)),
    # x = 19/96; the optimum -19/96 needs the objective row's scale
    ((-1,), (), (), ((16,),), (Fraction(19, 6),)),
]


@pytest.mark.parametrize("lp_args", _PINNED_LPS)
@pytest.mark.parametrize("bland", [simplex.BLAND_SWITCH_FACTOR, 0])
def test_integer_tableau_matches_reference_on_pinned_lps(lp_args, bland, monkeypatch):
    monkeypatch.setattr(simplex, "BLAND_SWITCH_FACTOR", bland)
    _assert_matches_reference(lp_args)


@settings(max_examples=300, deadline=None)
@given(_dense_lps())
def test_integer_tableau_matches_reference(lp_args):
    _assert_matches_reference(lp_args)


@settings(max_examples=200, deadline=None)
@given(_dense_lps())
def test_integer_tableau_matches_reference_under_bland(lp_args):
    # BLAND_SWITCH_FACTOR = 0 runs Bland's rule from the first pivot
    with mock.patch.object(simplex, "BLAND_SWITCH_FACTOR", 0):
        _assert_matches_reference(lp_args)


# --- one-step throughput on the worked line instance ---


def test_line_one_step_imbalanced(line):
    net, _, routing = line
    report = lp.one_step_throughput(net, routing, make_state(net, [15, 5]))
    assert report.solver_status == "Optimal"
    assert report.psi_value == Fraction(10)
    assert check_feasible(net, routing, make_state(net, [15, 5]), report.optimal_flow)
    assert _delta_residual(routing, report.optimal_flow) == 0


def test_line_one_step_balanced(line):
    net, _, routing = line
    assert lp.one_step_throughput(net, routing, center_state(net)).psi_value == 20


def test_line_one_step_corner(line):
    net, _, routing = line
    assert lp.one_step_throughput(net, routing, make_state(net, [20, 0])).psi_value == 0


def test_line_float_route_matches_exact(line):
    net, _, routing = line
    state = make_state(net, [15, 5])
    with _route(exact=False):
        report = lp.one_step_throughput(net, routing, state)
    assert report.solver_status == "Optimal"
    assert abs(report.psi_value - 10.0) < 1e-9
    assert check_feasible(net, routing, state, report.optimal_flow, tol=1e-9)
    assert _delta_residual(routing, report.optimal_flow) <= 1e-9


def test_float_route_zero_optimum_is_positive_zero(line):
    net, _, routing = line
    with _route(exact=False):
        value = lp.min_throughput(net, routing, {0, 1})
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_auto_route_boundary_counts_three_blocks(line):
    # 3 * channels * paths <= EXACT_CELL_LIMIT stays exact; one path more
    # crosses the line even though the collapsed LP has only 2 blocks
    net, paths, _ = line
    count = lp.EXACT_CELL_LIMIT // (3 * net.edge_count)
    at_limit = PathSet.of(paths[i % len(paths)] for i in range(count))
    past_limit = PathSet.of([*at_limit, paths[count % len(paths)]])
    exact = lp.max_throughput(net, build_routing_system(net, at_limit))
    approx = lp.max_throughput(net, build_routing_system(net, past_limit))
    assert isinstance(exact, Fraction) and exact == 20
    assert isinstance(approx, float) and abs(approx - 20) < 1e-9


def test_steady_state_flow_leaves_balances_unchanged(line):
    net, _, routing = line
    state = make_state(net, [15, 5])
    report = lp.one_step_throughput(net, routing, state)
    assert apply_flow(net, routing, state, report.optimal_flow) == state


def test_max_throughput_line(line):
    net, _, routing = line
    assert lp.max_throughput(net, routing) == 20


def test_max_throughput_no_paths():
    net = make_network(2, [(0, 1)], [8])
    routing = build_routing_system(net, PathSet.of(()))
    assert lp.max_throughput(net, routing) == 0


def test_max_throughput_triangle_rotation_is_zero():
    # one-directional ring: every channel would drift, so no steady flow
    net, routing = _triangle(bidirectional=False)
    assert lp.max_throughput(net, routing) == 0


def test_max_throughput_triangle_bidirectional():
    net, routing = _triangle(bidirectional=True)
    assert lp.max_throughput(net, routing) == 30


# --- floor variants ---


def test_min_throughput_nothing_unpeeled_is_max(line):
    net, _, routing = line
    assert lp.min_throughput(net, routing, set()) == 20


def test_min_throughput_everything_unpeeled(line):
    net, _, routing = line
    assert lp.min_throughput(net, routing, {0, 1}) == 0


def test_min_throughput_partial_triangle():
    net, routing = _triangle(bidirectional=True)
    assert lp.min_throughput(net, routing, {1}) == 20


def test_min_throughput_rejects_bad_index(line):
    net, _, routing = line
    with pytest.raises(ValueError, match="out of range"):
        lp.min_throughput(net, routing, {7})


def test_worst_state_full_freeze_is_zero(line):
    net, _, routing = line
    assert lp.worst_state_throughput(net, routing, {0: 20, 1: 0}) == 0


def test_worst_state_empty_freeze_is_max(line):
    net, _, routing = line
    assert lp.worst_state_throughput(net, routing, {}) == 20


def test_worst_state_matches_capacity_zeroing():
    net, routing = _triangle(bidirectional=True)
    frozen = lp.worst_state_throughput(net, routing, {1: 0})
    assert frozen == lp.min_throughput(net, routing, {1}) == 20


def test_worst_state_rejects_out_of_range_balance(line):
    net, _, routing = line
    with pytest.raises(ValueError, match="channel 0"):
        lp.worst_state_throughput(net, routing, {0: 25})
    for key in (99, -1, 2):
        with pytest.raises(ValueError, match="out of range"):
            lp.worst_state_throughput(net, routing, {key: 0})


@pytest.mark.parametrize("balances, message", [
    ((1,), "1 entries for 2 channels"),
    ((1, 2, 3), "3 entries for 2 channels"),
    ((30, 5), "balance 30 on channel 0 outside"),
    ((5, -1), "balance -1 on channel 1 outside"),
])
def test_one_step_rejects_states_that_do_not_fit(line, balances, message):
    net, _, routing = line
    state = BalanceState(tuple(Fraction(b) for b in balances))
    for exact in (True, False):
        with _route(exact), pytest.raises(ValueError, match=message):
            lp.one_step_throughput(net, routing, state)


def test_solver_failure_raises_instead_of_nan(line, monkeypatch):
    net, _, routing = line
    monkeypatch.setattr(lp, "linprog", lambda *a, **k: SimpleNamespace(status=4))
    monkeypatch.setattr(lp, "EXACT_CELL_LIMIT", -1)
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.solver_status == lp.NUMERICAL_FAILURE
    for call in (lambda: lp.max_throughput(net, routing),
                 lambda: lp.min_throughput(net, routing, {1}),
                 lambda: lp.worst_state_throughput(net, routing, {})):
        with pytest.raises(RuntimeError, match="NumericalFailure"):
            call()


# --- invariants ---


def test_center_state_dominates_random_states(line):
    net, _, routing = line
    tri_net, tri_routing = _triangle(bidirectional=True)
    rng = random.Random(7)
    for network, system in ((net, routing), (tri_net, tri_routing)):
        peak = lp.max_throughput(network, system)
        for _ in range(100):
            balances = [
                Fraction(rng.randint(0, int(4 * c)), 4) for c in network.capacities
            ]
            state = make_state(network, balances)
            report = lp.one_step_throughput(network, system, state)
            assert report.solver_status == "Optimal"
            assert report.psi_value <= peak


def test_exact_and_float_routes_agree_on_random_states(line):
    net, _, routing = line
    rng = random.Random(11)
    for _ in range(30):
        state = make_state(net, [Fraction(rng.randint(0, 40), 2) for _ in range(2)])
        with _route(exact=True):
            exact = lp.one_step_throughput(net, routing, state)
        with _route(exact=False):
            approx = lp.one_step_throughput(net, routing, state)
        assert abs(float(exact.psi_value) - approx.psi_value) < 1e-7


def test_capacity_scaling_doubles_throughput(line):
    net, paths, _ = line
    doubled = make_network(3, [(0, 1), (1, 2)], [40, 40])
    routing = build_routing_system(doubled, paths)
    _, base_routing = line[0], line[2]
    assert lp.max_throughput(doubled, routing) == 2 * lp.max_throughput(net, base_routing)


def test_more_paths_never_hurt(line):
    net, paths, _ = line
    values = {}
    for mask in range(16):
        subset = PathSet.of(p for i, p in enumerate(paths) if mask >> i & 1)
        routing = build_routing_system(net, subset)
        values[mask] = lp.max_throughput(net, routing)
    for small in range(16):
        for big in range(16):
            if small & big == small:
                assert values[small] <= values[big]


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=0, max_value=10, max_denominator=8),
        st.fractions(min_value=0, max_value=10, max_denominator=8),
        st.fractions(min_value=0, max_value=10, max_denominator=8),
    )
)
def test_triangle_throughput_bounded_by_peak(balances):
    net, routing = _triangle(bidirectional=True)
    report = lp.one_step_throughput(net, routing, make_state(net, balances))
    assert report.solver_status == "Optimal"
    assert 0 <= report.psi_value <= 30
    assert check_feasible(net, routing, make_state(net, balances), report.optimal_flow)


@settings(max_examples=40, deadline=None)
@given(small_instance())
def test_collapsed_lp_matches_three_block_reference(instance):
    net, _, routing, state = instance
    room = [c - b for c, b in zip(net.capacities, state.balances)]
    forward, backward, delta = dense_views(routing)
    status, _, reference = simplex.solve_dense(
        [1] * routing.path_count,
        forward + backward, state.balances + tuple(room),
        delta, [0] * routing.edge_count)
    with _route(exact=True):
        exact = lp.one_step_throughput(net, routing, state)
    with _route(exact=False):
        approx = lp.one_step_throughput(net, routing, state)
    assert status == "Optimal"
    assert exact.psi_value == reference
    assert abs(approx.psi_value - reference) < 1e-9
    for report, tol in ((exact, 0), (approx, 1e-9)):
        assert check_feasible(net, routing, state, report.optimal_flow, tol=tol)
        assert _delta_residual(routing, report.optimal_flow) <= tol


# --- certified route ---


def _er_instance(nodes, channels, pairs, seed, demand_seed):
    net = gen_topology(TopologySpec(kind=ERDOS_RENYI, node_count=nodes,
                                    edge_budget=channels, seed=seed))
    demand = sample_demand(net, DemandSpec(pair_count=pairs, seed=demand_seed))
    return net, build_routing_system(net, build_paths(net, demand))


def test_routes_by_size(line):
    net, _, routing = line
    assert 3 * routing.edge_count * routing.path_count < lp.CERTIFY_MIN_CELLS
    state = center_state(net)
    assert lp.one_step_throughput(net, routing, state).route == lp.SIMPLEX
    with _route(exact=False):
        assert lp.one_step_throughput(net, routing, state).route == lp.FLOAT
    with mock.patch.object(lp, "CERTIFY_MIN_CELLS", 0):
        report = lp.one_step_throughput(net, routing, state)
    assert report.route == lp.CERTIFIED
    assert report.psi_value == 20 and isinstance(report.psi_value, Fraction)


def test_certified_route_on_large_exact_instance():
    # 30 channels x 200 paths = 18,000 cells, just under EXACT_CELL_LIMIT;
    # the float route alone returns 9166.66666666667
    net, routing = _er_instance(15, 30, 200, seed=0, demand_seed=1)
    assert 3 * routing.edge_count * routing.path_count == 18_000
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.CERTIFIED
    assert report.psi_value == Fraction(27500, 3)
    assert check_feasible(net, routing, center_state(net), report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


def _halve_primal(res):
    # x / 2 stays feasible, but sum(x) falls short of the dual bound
    res.x = res.x / 2


def _zero_primal_and_dual(res):
    # x = 0 and alpha = gamma = 0 close the gap, but no reduced cost reaches 1
    res.x = np.zeros_like(res.x)
    res.ineqlin.marginals = np.zeros_like(res.ineqlin.marginals)
    res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)


def _optimum_on_one_path(res):
    # sum(x) still equals the dual bound, but one path alone shifts balances
    res.x = np.zeros_like(res.x)
    res.x[0] = -res.fun


@pytest.mark.parametrize("perturb", [_halve_primal, _zero_primal_and_dual,
                                     _optimum_on_one_path])
def test_failed_certificate_falls_back_to_simplex(perturb):
    net, routing = _er_instance(10, 18, 50, seed=3, demand_seed=10)
    state = center_state(net)
    reference = lp.one_step_throughput(net, routing, state)
    assert reference.route == lp.CERTIFIED

    def perturbed_linprog(*args, **kwargs):
        res = linprog(*args, **kwargs)
        perturb(res)
        return res

    with mock.patch.object(lp, "linprog", perturbed_linprog):
        report = lp.one_step_throughput(net, routing, state)
    assert report.route == lp.SIMPLEX
    assert report.psi_value == reference.psi_value
    assert isinstance(report.psi_value, Fraction)
    assert check_feasible(net, routing, state, report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


@settings(max_examples=80, deadline=None)
@given(small_instance(), st.integers(min_value=1, max_value=6), st.data())
def test_certified_value_matches_simplex(instance, denominator, data):
    net, _, routing, _ = instance
    # balances on the lattice (1/denominator) Z inside [0, capacity]
    state = make_state(net, [
        Fraction(data.draw(st.integers(min_value=0, max_value=int(c * denominator))),
                 denominator)
        for c in net.capacities])
    bounds = [min(b, c - b) for c, b in zip(net.capacities, state.balances)]
    forward, _, delta = dense_views(routing)
    status, _, reference = simplex.solve_dense(
        [1] * routing.path_count, forward, bounds, delta,
        [0] * routing.edge_count)
    with mock.patch.object(lp, "CERTIFY_MIN_CELLS", 0):
        report = lp.one_step_throughput(net, routing, state)
    assert status == "Optimal"
    assert report.route == lp.CERTIFIED
    assert report.psi_value == reference
    assert isinstance(report.psi_value, Fraction)
    assert check_feasible(net, routing, state, report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


# --- the simplex route's optima, kept per routing by bound vector ---


def _signature(report):
    """Everything a report says, with the types of its numbers."""
    amounts = report.optimal_flow.amounts
    return (report.psi_value, type(report.psi_value), amounts,
            tuple(map(type, amounts)), report.solver_status, report.route)


@settings(max_examples=60, deadline=None)
@given(small_instance(), st.data())
def test_warm_routing_matches_a_fresh_one(instance, data):
    net, paths, routing, state = instance
    mirror = make_state(net, [c - b for c, b in zip(net.capacities, state.balances)])
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        other = make_state(net, [data.draw(st.integers(min_value=0, max_value=int(c)))
                                 for c in net.capacities])
        lp.one_step_throughput(net, routing, other)
    lp.one_step_throughput(net, routing, mirror)
    warm = lp.one_step_throughput(net, routing, state)
    fresh = lp.one_step_throughput(net, build_routing_system(net, paths), state)
    assert fresh.route == lp.SIMPLEX
    assert _signature(warm) == _signature(fresh)


def test_mirrored_states_share_one_simplex_solve(line):
    net, _, routing = line
    solves, solve_dense = [], simplex.solve_dense

    def counting_solve_dense(*args):
        solves.append(args)
        return solve_dense(*args)

    state, mirror = make_state(net, [15, 5]), make_state(net, [5, 15])
    with mock.patch.object(simplex, "solve_dense", counting_solve_dense):
        report = lp.one_step_throughput(net, routing, state)
        assert len(solves) == 1
        assert lp.one_step_throughput(net, routing, mirror) == report
        for _ in range(3):
            assert lp.one_step_throughput(net, routing, state) == report
            assert lp.one_step_throughput(net, routing, mirror) == report
        assert len(solves) == 1
        assert lp.max_throughput(net, routing) == 20
        assert len(solves) == 2
    assert report.psi_value == 10 and report.route == lp.SIMPLEX


def test_kept_optima_leave_the_route_choice_per_call(line):
    net, _, routing = line
    state = center_state(net)
    kept = lp.one_step_throughput(net, routing, state)
    assert kept.route == lp.SIMPLEX
    with mock.patch.object(lp, "CERTIFY_MIN_CELLS", 0):
        certified = lp.one_step_throughput(net, routing, state)
        assert certified.route == lp.CERTIFIED

        def perturbed_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            _halve_primal(res)
            return res

        with mock.patch.object(lp, "linprog", perturbed_linprog):
            fallback = lp.one_step_throughput(net, routing, state)
    assert fallback.route == lp.SIMPLEX
    assert fallback.psi_value == certified.psi_value == 20
    assert _signature(fallback) == _signature(kept)


# --- channel usage and the certificate against hop-by-hop references ---
#
# _hop_walk_usage sums a flow's amounts per channel by walking every path's
# hops, never through model.channel_usage.  _reference_certify is the
# certificate on Fractions, hop by hop: the rationalized x must be exactly
# feasible, every path's reduced cost at least 1, and bounds.alpha equal to
# sum(x).


def _hop_walk_usage(routing, amounts):
    """Per-channel totals sent forward and backward, as two lists."""
    usage = ([0] * routing.edge_count, [0] * routing.edge_count)
    for amount, hops in zip(amounts, routing_hops(routing), strict=True):
        for e, d in hops:
            usage[d][e] += amount
    return usage


def _reference_feasible(net, routing, state, flow, tol):
    if tol is None:
        tol = 0 if flow.is_exact() else 1e-9
    exact = flow.is_exact() and tol == 0
    fwd, bwd = _hop_walk_usage(routing, flow.amounts)
    for cap, bal, f, b in zip(net.capacities, state.balances, fwd, bwd, strict=True):
        if not exact:
            cap, bal = float(cap), float(bal)
        if f > bal + tol or b > (cap - bal) + tol:
            return False
    return True


def _reference_violation(net, state, fwd, bwd):
    """The first overdrawn (channel, direction name), or None."""
    for e, (cap, bal) in enumerate(zip(net.capacities, state.balances)):
        if fwd[e] > bal:
            return e, "forward"
        if bwd[e] > cap - bal:
            return e, "backward"
    return None


@settings(max_examples=100, deadline=None)
@given(small_instance(), st.data())
def test_channel_usage_matches_hop_walk(instance, data):
    net, _, routing, state = instance
    # amounts up to the largest capacity, so many flows overdraw a channel
    top = 4 * int(max(net.capacities))
    quarters = [data.draw(st.integers(min_value=0, max_value=top))
                for _ in range(routing.path_count)]
    exact = FlowVector(tuple(Fraction(q, 4) for q in quarters))
    # floats on both sides of exact boundaries
    nudge = data.draw(st.sampled_from((0.0, 1e-12, 1e-6)))
    approx = FlowVector(tuple(q / 4 + nudge for q in quarters))
    fwd, bwd = _hop_walk_usage(routing, exact.amounts)
    usage = channel_usage(routing, np.array(exact.amounts, dtype=object))
    assert usage.dtype == object and usage.tolist() == [fwd, bwd]
    usage = channel_usage(routing, np.array(approx.amounts))
    assert usage.dtype == np.float64
    assert usage.tolist() == list(_hop_walk_usage(routing, approx.amounts))
    assert channel_usage(routing, np.array(quarters)).dtype == np.int64
    for flow in (exact, approx):
        for tol in (None, 0, 1e-9):
            assert check_feasible(net, routing, state, flow, tol=tol) == \
                _reference_feasible(net, routing, state, flow, tol)
    violation = _reference_violation(net, state, fwd, bwd)
    if violation is None:
        assert apply_flow(net, routing, state, exact).balances == tuple(
            b - f + r for b, f, r in zip(state.balances, fwd, bwd))
    else:
        with pytest.raises(ValueError, match="^infeasible flow: channel %d overdrawn "
                           "in the %s direction$" % violation):
            apply_flow(net, routing, state, exact)


@pytest.mark.parametrize("capacities, balances, amounts, message", [
    ((20, 20), (5, 5), (3,), "1 flow amounts for 4 paths"),
    ((20, 20), (5, 5), (1, 0, 0, 0, 4), "5 flow amounts for 4 paths"),
    ((20, 20), (5, 5, 5), (1, 0, 0, 0), "have 2, 2 and 3 channels"),
    ((20, 20, 20), (5, 5), (1, 0, 0, 0), "have 3, 2 and 2 channels"),
    ((20,), (5, 5), (1, 0, 0, 0), "have 1, 2 and 2 channels"),
    ((20, 20), (5, 5), (math.nan, 0.0, 0.0, 0.0), "flow amount 0 is negative or NaN"),
    ((20, 20), (5, 5), (0, -1, 0, 0), "flow amount 1 is negative or NaN"),
], ids=["short flow", "long flow", "three-channel state", "three-channel network",
        "one-channel network", "nan amount", "negative amount"])
def test_feasibility_checks_reject_what_does_not_fit(capacities, balances, amounts,
                                                     message):
    # the line instance's four paths on a line of len(capacities) channels
    net = make_network(len(capacities) + 1,
                       [(i, i + 1) for i in range(len(capacities))], capacities)
    routing = line_instance()[2]
    state = BalanceState(tuple(map(Fraction, balances)))
    amounts = tuple(a if isinstance(a, float) else Fraction(a) for a in amounts)
    if not all(a >= 0 for a in amounts):
        # refused where the flow is made, before any check sees it
        with pytest.raises(ValueError, match=message):
            FlowVector(amounts)
        return
    flow = FlowVector(amounts)
    with pytest.raises(ValueError, match=message):
        check_feasible(net, routing, state, flow)
    with pytest.raises(ValueError, match=message):
        apply_flow(net, routing, state, flow)


def _reference_certify(routing, bounds, solution):
    def rational(value):
        return Fraction(value).limit_denominator(lp.CERTIFICATE_DENOMINATOR)

    if solution.status != lp.OPTIMAL:
        return None
    flow = FlowVector(tuple(rational(v) for v in solution.x))
    fwd, bwd = _hop_walk_usage(routing, flow.amounts)
    if any(f > b or f != r for f, r, b in zip(fwd, bwd, bounds)):
        return None
    ineq, eq = solution.duals
    alpha = [rational(max(-v, 0.0)) for v in ineq]
    gamma = [rational(-v) for v in eq]
    for hops in routing_hops(routing):
        if sum(alpha[e] + gamma[e] if d == FORWARD else -gamma[e] for e, d in hops) < 1:
            return None
    value = sum(flow.amounts, Fraction(0))
    if sum(b * a for b, a in zip(bounds, alpha)) != value:
        return None
    return lp.LpSolution(lp.OPTIMAL, flow.amounts, value)


# primes just under CERTIFICATE_DENOMINATOR: the lcm of any four exceeds 2**63
_LARGE_PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931)


def _perturbed(solution, kind, rng):
    """HiGHS's solution with its primal or dual changed in one of the ways
    a certificate must see through (or left as it is)."""
    x = np.array(solution.x)
    ineq, eq = (np.array(d) for d in solution.duals)
    if kind == "halve_primal":
        x = x / 2
    elif kind == "zero_primal_and_dual":
        x, ineq, eq = np.zeros_like(x), np.zeros_like(ineq), np.zeros_like(eq)
    elif kind == "optimum_on_one_path":
        x = np.zeros_like(x)
        x[0] = solution.objective_value
    elif kind == "dual_noise":
        ineq = ineq + np.array([rng.choice((0, 1e-3, -0.5)) for _ in ineq])
        eq = eq + np.array([rng.choice((0, 1e-3, 0.25)) for _ in eq])
    elif kind == "wide_denominator":
        # distinct values whose common denominator overflows int64
        x = x + np.array([1 / _LARGE_PRIMES[p % len(_LARGE_PRIMES)]
                          for p in range(len(x))])
    return lp.LpSolution(solution.status, tuple(float(v) for v in x),
                         solution.objective_value, (ineq, eq))


_PERTURBATIONS = (None, "halve_primal", "zero_primal_and_dual",
                  "optimum_on_one_path", "dual_noise", "wide_denominator")


@settings(max_examples=150, deadline=None)
@given(small_instance(), st.integers(min_value=1, max_value=6),
       st.sampled_from([(kind, scale) for kind in _PERTURBATIONS
                        for scale in (1, 10 ** 6)]),
       st.randoms(use_true_random=False), st.data())
def test_certificate_matches_reference(instance, denominator, perturbation, rng, data):
    kind, scale = perturbation
    # every path's reverse joins it, so most draws have a positive optimum;
    # scale 10**6 makes the integer check's sums overflow int64, so it runs
    # on Python ints
    base, paths, _, _ = instance
    net = make_network(base.node_count, base.edges,
                       [c * scale for c in base.capacities])
    routing = build_routing_system(net, PathSet.of([*paths, *(
        Path(p.destination, p.source, tuple((e, 1 - d) for e, d in reversed(p.hops)))
        for p in paths)]))
    state = make_state(net, [
        Fraction(data.draw(st.integers(min_value=0, max_value=int(c * denominator))),
                 denominator) * scale
        for c in base.capacities])
    bounds = [min(b, c - b) for c, b in zip(net.capacities, state.balances)]
    seen = []

    def perturbed_highs(*args):
        seen.append(_perturbed(real_highs(*args), kind, rng))
        return seen[-1]

    real_highs = lp._highs
    with mock.patch.object(lp, "CERTIFY_MIN_CELLS", 0), \
            mock.patch.object(lp, "_highs", perturbed_highs):
        report = lp.one_step_throughput(net, routing, state)
    reference = _reference_certify(routing, bounds, seen[0])
    if reference is None:
        assert report.route == lp.SIMPLEX
    else:
        assert report.route == lp.CERTIFIED
        assert report.optimal_flow.amounts == reference.x
        assert report.psi_value == reference.objective_value
        assert all(type(v) is Fraction for v in report.optimal_flow.amounts)
    assert type(report.psi_value) is Fraction


def _pinned_certificate(empty_path):
    # one channel of capacity 2 (bound 1 at the centre) and two circulations
    # on it, A = 0 -> 1 and B = 1 -> 0; alpha = 2 and gamma = -1 price every
    # path at exactly 1
    net = make_network(2, [(0, 1)], [2])
    a, b = Path(0, 1, ((0, FORWARD),)), Path(1, 0, ((0, BACKWARD),))
    if empty_path:
        # a hop-less path's reduced cost is 0, and its CSR segment is empty
        paths, x = (Path(0, 0, ()), a, b), (0.0, 1.0, 1.0)
    else:
        # thirds in x, none in the bound: the flow and bound scales differ
        paths, x = (a, b, a, b), (1 / 3, 1 / 3, 2 / 3, 2 / 3)
    routing = build_routing_system(net, PathSet.of(paths))
    solution = lp.LpSolution(lp.OPTIMAL, x, 2.0, (np.array([-2.0]), np.array([1.0])))
    return routing, [Fraction(1)], solution


@pytest.mark.parametrize("empty_path, accepted", [(False, True), (True, False)])
def test_certificate_matches_reference_on_pinned_cases(empty_path, accepted):
    routing, bounds, solution = _pinned_certificate(empty_path)
    reference = _reference_certify(routing, bounds, solution)
    assert (reference is not None) == accepted
    assert lp._certify(routing, bounds, solution) == reference


def test_certificate_on_python_ints():
    # x near 1e16: its products overflow int64, yet the certificate holds
    net = make_network(3, [(0, 1), (1, 2)], [20 * 10 ** 15] * 2)
    routing = build_routing_system(net, line_instance()[1])
    with mock.patch.object(lp, "CERTIFY_MIN_CELLS", 0):
        report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.CERTIFIED
    assert report.psi_value == 20 * 10 ** 15


# --- bounds beyond HiGHS's range ---


@pytest.mark.parametrize("capacity", [10 ** 21, 10 ** 300, 10 ** 400],
                         ids=["1e21", "1e300", "1e400"])
def test_bounds_beyond_highs_range(capacity):
    base, routing = _er_instance(10, 18, 50, seed=3, demand_seed=10)
    assert 3 * routing.edge_count * routing.path_count > lp.CERTIFY_MIN_CELLS
    capacities = list(base.capacities)
    capacities[5] = Fraction(capacity)
    net = make_network(base.node_count, base.edges, capacities)
    state = center_state(net)
    forward, _, delta = dense_views(routing)
    _, _, reference = simplex.solve_dense(
        [1] * routing.path_count, forward, [c / 2 for c in capacities], delta,
        [0] * routing.edge_count)
    report = lp.one_step_throughput(net, routing, state)
    assert report.route == lp.SIMPLEX
    assert report.psi_value == reference > capacity // 2
    assert lp.max_throughput(net, routing) == reference
    with _route(exact=False):
        with pytest.raises(ValueError, match="channel 5"):
            lp.one_step_throughput(net, routing, state)
        with pytest.raises(ValueError, match="channel 5"):
            lp.max_throughput(net, routing)
