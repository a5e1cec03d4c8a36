import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
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
)
from creditnet import lp
from creditnet.cli import _fmt_value, desk_scale_config, sweep_cells
from creditnet.demand import DemandSpec, build_paths, sample_demand
from creditnet.model import channel_usage
from creditnet.peeling import residue
from creditnet.topology import ERDOS_RENYI, TopologySpec, gen_topology
from conftest import line_instance
from test_acceptance import criterion_2_instances
from test_model import dense_views, routing_hops, small_instance


def _triangle(bidirectional):
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], [10, 10, 10])
    hops = [[0, 1], [1, 2], [2, 0]]
    if bidirectional:
        hops += [[1, 0], [2, 1], [0, 2]]
    paths = PathSet.of_walks(net, hops)
    return net, build_routing_system(net, paths)


def _route(exact):
    """Send every LP down the exact or the float route: the cell count
    against EXACT_CELL_LIMIT is all that picks one."""
    return mock.patch.object(lp, "EXACT_CELL_LIMIT", math.inf if exact else -1)


def _fresh_routing(net, paths):
    """A routing of `paths` with nothing kept on it: a path set keeps the
    routing it was validated into, and a copy keeps none."""
    return build_routing_system(net, replace(paths))


def _counting(target, name, calls):
    """Patch target.name to record each call in `calls` and run the original."""
    original = getattr(target, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    return mock.patch.object(target, name, counted)


def _delta_residual(routing, flow):
    worst = 0
    for row in dense_views(routing)[2]:
        shift = sum(a * d for a, d in zip(flow.amounts, row))
        worst = max(worst, abs(shift))
    return worst


# --- small LPs on the exact route ---
#
# HiGHS's dual simplex in the routing's kept solver, proved by the
# certificate; every value and flow amount is a Fraction.


def test_simplex_one_channel_both_ways():
    # one path each way over one channel: the limit row holds the forward one
    net = make_network(2, [(0, 1)], [10])
    routing = build_routing_system(net, PathSet.of_walks(net, ([0, 1], [1, 0])))
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.CERTIFIED
    assert report.optimal_flow.amounts == (5, 5)
    assert report.psi_value == 10


def test_simplex_single_variable():
    # one path shifts the balance of every channel it crosses: it sends nothing
    net = make_network(3, [(0, 2), (1, 2)], [10, 10])
    routing = build_routing_system(net, PathSet.of_walks(net, ([0, 2, 1],)))
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert (report.optimal_flow.amounts, report.psi_value) == ((0,), 0)


def test_simplex_degenerate_optimum(line):
    # the line instance: 0->2, 2->0, 1->2 and 1->0 over two channels
    net, _, routing = line
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.psi_value == 20 and sum(report.optimal_flow.amounts) == 20
    # a zero bound on channel 0 holds every path at zero, a degenerate vertex
    report = lp.one_step_throughput(net, routing, make_state(net, [0, 10]))
    assert (report.optimal_flow.amounts, report.psi_value) == ((0, 0, 0, 0), 0)


def test_simplex_exact_fractions():
    net = make_network(2, [(0, 1)], [Fraction(2, 7)])
    routing = build_routing_system(net, PathSet.of_walks(net, ([0, 1], [1, 0])))
    report = lp.one_step_throughput(net, routing, center_state(net))
    x, value = report.optimal_flow.amounts, report.psi_value
    assert x == (Fraction(1, 7), Fraction(1, 7))
    assert value == Fraction(2, 7)
    assert all(type(v) is Fraction for v in x) and type(value) is Fraction


def test_simplex_agrees_with_float_route():
    rng = random.Random(20260814)
    for k in range(25):
        nodes = rng.randint(5, 7)
        net, paths, routing = _er_instance(nodes, nodes + rng.randint(1, 4),
                                           rng.randint(2, 8), seed=k, demand_seed=k)
        state = make_state(net, [rng.randint(0, int(c)) for c in net.capacities])
        exact = lp.one_step_throughput(net, routing, state)
        with _route(exact=False):
            approx = lp.one_step_throughput(net, _fresh_routing(net, paths), state)
        assert exact.route == lp.CERTIFIED and approx.route == lp.FLOAT
        assert abs(float(exact.psi_value) - approx.psi_value) < 1e-7


# --- the exact route against a Fraction-tableau reference ---
#
# _reference_solve_dense is a general two-phase simplex, maximize c.x
# subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, on a tableau of
# Fractions: Dantzig pricing (first index on ties) that switches to
# Bland's rule after _BLAND_SWITCH_FACTOR * (rows + columns) pivots, a
# ratio test whose ties go to the lower basis index, and a drive-out of the
# artificials after phase 1. It shares no code with lp, so it is the
# independent oracle for the exact route's values.

_BLAND_SWITCH_FACTOR = 5
_ITERATION_CAP_FACTOR = 400


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
    bland_after = _BLAND_SWITCH_FACTOR * size
    cap = _ITERATION_CAP_FACTOR * size + 1000
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
            return lp.OPTIMAL
        leave = best = None
        for i, trow in enumerate(tab):
            if trow[entering] > 0:
                ratio = trow[rhs_col] / trow[entering]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best, leave = ratio, i
        if leave is None:
            return lp.UNBOUNDED
        _reference_pivot(tab, obj, basis, leave, entering)
        iters += 1
        if iters > cap:
            return lp.NUMERICAL_FAILURE


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
        return (lp.INFEASIBLE if bad else lp.OPTIMAL), (), zero
    if m == 0:
        if any(v > 0 for v in c):
            return lp.UNBOUNDED, (), zero
        return lp.OPTIMAL, (zero,) * nvars, zero
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
        if _reference_optimize(tab, obj, basis, set(), rhs_col, ncols) != lp.OPTIMAL:
            return lp.NUMERICAL_FAILURE, (), zero
        if obj[rhs_col] != 0:
            return lp.INFEASIBLE, (), zero
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
    if status != lp.OPTIMAL:
        return status, (), zero
    x = [zero] * nvars
    for i, bcol in enumerate(basis):
        if bcol < nvars:
            x[bcol] = tab[i][rhs_col]
    return lp.OPTIMAL, tuple(x), obj[rhs_col]


def _throughput_reference(delta, bounds):
    return _reference_solve_dense([1] * len(delta[0]), np.maximum(delta, 0).tolist(),
                                  bounds, delta, [0] * len(delta))


_BOUNDS = st.one_of(st.just(0),
                    st.integers(min_value=0, max_value=6),
                    st.fractions(min_value=0, max_value=6, max_denominator=6),
                    st.builds(Fraction, st.integers(min_value=10 ** 20, max_value=10 ** 25),
                              st.integers(min_value=1, max_value=7)))


@st.composite
def _bound_sequences(draw):
    """Paths of a small random routing, with the reverse of some of them
    so that most LPs have a positive optimum, and one to five bound vectors
    >= 0 with many zeros, Fractions and values past 1e20, so degenerate
    bases, zero optima and scaled bounds all occur."""
    net, paths, _ = draw(_floor_cases())
    return net, paths, draw(st.lists(
        st.lists(_BOUNDS, min_size=net.edge_count, max_size=net.edge_count),
        min_size=1, max_size=5))


def _solved(routing, bounds):
    try:
        return _signature(lp._throughput(routing, bounds))
    except ValueError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(_bound_sequences())
def test_kept_solver_matches_a_fresh_routing_and_the_reference(case):
    # each LP in the kept solver starts cold, so it answers as a fresh
    # routing does, vertex included, whatever it solved before
    net, paths, sequence = case
    kept = build_routing_system(net, paths)
    delta = dense_views(kept)[2]
    for bounds in sequence:
        warm = _solved(kept, bounds)
        assert warm == _solved(_fresh_routing(net, paths), bounds)
        status, _, reference = _throughput_reference(delta, bounds)
        assert status == lp.OPTIMAL
        if isinstance(warm, str):
            # bounds scaled into HiGHS's range that no check proves: those
            # past 1e20 that lie too close together for a double to tell
            # apart, or span more than it holds
            assert max(bounds) >= lp.HIGHS_INFINITE_BOUND
            assert re.match(r"channel \d+: balance bound", warm)
            continue
        value, value_type, amounts, amount_types, solver_status, route = warm
        assert (solver_status, route) == (lp.OPTIMAL, lp.CERTIFIED)
        assert value == reference and value_type is Fraction
        assert set(amount_types) <= {Fraction}
        fwd, bwd = _hop_walk_usage(kept, amounts)
        assert fwd == bwd and all(f <= b for f, b in zip(fwd, bounds))


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


def test_throughputs_reject_a_routing_of_another_network(line):
    _, _, routing = line
    other = make_network(2, [(0, 1)], [20])
    for call in (lambda: lp.max_throughput(other, routing),
                 lambda: lp.min_throughput(other, routing, set()),
                 lambda: lp.one_step_throughput(other, routing, center_state(other))):
        with pytest.raises(ValueError, match="does not match network edge count"):
            call()


def test_throughputs_refuse_a_hopless_path():
    # a path without hops crosses no channel, so its flow has no bound
    net = make_network(3, [(0, 1), (1, 2)], [20, 20])
    routing = build_routing_system(net, PathSet.of((
        Path(0, 1, ((0, FORWARD),)), Path(2, 2, ()), Path(1, 1, ()))))
    for call in (lambda: lp.max_throughput(net, routing),
                 lambda: lp.min_throughput(net, routing, set()),
                 lambda: lp.one_step_throughput(net, routing, center_state(net)),
                 lambda: lp.worst_state_throughput(net, routing, {})):
        with pytest.raises(ValueError, match="path 1 has no hops"):
            call()


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
    # a frozen balance strictly inside the channel blocks nothing
    with pytest.raises(ValueError, match="balance 5 on channel 1 is neither 0 nor its capacity 20"):
        lp.worst_state_throughput(net, routing, {1: 5})


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
    monkeypatch.setattr(lp, "_highs", lambda *a: lp.LpSolution(lp.NUMERICAL_FAILURE, (), 0.0))
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
    status, _, reference = _reference_solve_dense(
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
    paths = build_paths(net, demand)
    return net, paths, build_routing_system(net, paths)


def test_routes_by_size(line):
    # a routing keeps its exact optima, so each route setting gets its own
    net, paths, routing = line
    state = center_state(net)
    report = lp.one_step_throughput(net, routing, state)
    assert report.route == lp.CERTIFIED
    assert report.psi_value == 20 and isinstance(report.psi_value, Fraction)
    with _route(exact=False):
        assert lp.one_step_throughput(net, _fresh_routing(net, paths), state).route == lp.FLOAT


def test_certified_route_on_large_exact_instance():
    # 30 channels x 200 paths = 18,000 cells, just under EXACT_CELL_LIMIT;
    # the float route alone returns 9166.66666666667
    net, _, routing = _er_instance(15, 30, 200, seed=0, demand_seed=1)
    assert 3 * routing.edge_count * routing.path_count == 18_000
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.CERTIFIED
    assert report.psi_value == Fraction(27500, 3)
    assert check_feasible(net, routing, center_state(net), report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


def _perturbed_highs(kind):
    """lp._highs with its optimum perturbed by `_perturbed`."""
    highs = lp._highs
    return mock.patch.object(lp, "_highs", lambda *args: _perturbed(highs(*args), kind, None))


# x / 2 stays feasible, but sum(x) falls short of the dual bound; x = 0 and
# alpha = gamma = 0 close the gap, but no reduced cost reaches 1; sum(x) on
# one path still equals the dual bound, but that path alone shifts balances.
# One round of refinement from that x then ends on an optimal basis, and its
# exact solve proves the optimum.
@pytest.mark.parametrize("kind", ["halve_primal", "zero_primal_and_dual",
                                  "optimum_on_one_path"], ids=lambda kind: f"_{kind}")
def test_failed_certificate_falls_back_to_refinement(kind):
    net, paths, routing = _er_instance(10, 18, 50, seed=3, demand_seed=10)
    state = center_state(net)
    bounds = [min(b, c - b) for c, b in zip(net.capacities, state.balances)]
    status, _, reference = _throughput_reference(dense_views(routing)[2], bounds)
    assert status == lp.OPTIMAL and reference > 0

    refinements = []
    with _perturbed_highs(kind), _counting(lp, "_refine", refinements):
        report = lp.one_step_throughput(net, routing, state)
    assert len(refinements) == 1
    assert report.route == lp.CERTIFIED
    assert report.psi_value == reference
    assert isinstance(report.psi_value, Fraction)
    assert check_feasible(net, routing, state, report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


# Bounds further apart than a double's 53 bits, shrunk by hypothesis. On
# each, HiGHS's optimal basis solves to an infeasible vertex, and HiGHS's
# dual charges a limit row the optimum leaves slack, or its optimum is no
# double, or it sends flow through a channel whose bound is 0. The next two
# put bounds over large prime denominators on the first two routings: far
# below HiGHS's tolerances, or 1e-7 of a bound near 1e19, they leave HiGHS's
# rationalized answer unproved. On the last, bounds from 1.5e-4 to 1e21
# leave HiGHS's x outside linprog's tolerances, so the refinement starts
# from x = 0.
_WIDE_BOUND_LPS = {
    "dual_on_a_slack_row": (
        make_network(4, [(0, 1), (0, 3), (1, 2)], [2, 2, 2]),
        ([0, 2, 2, 0, 3, 1], [1, 1, 3, 1, 2, 0], [0, 1, 2, 5, 6, 9, 10],
         [0, 2, 2, 0, 1, 0, 1, 0, 2, 0], [1, -1, -1, -1, 1, 1, -1, 1, 1, -1]),
        [Fraction(5 * 10 ** 19), 0, 1]),
    "optimum_no_double_holds": (
        make_network(4, [(0, 1), (0, 2), (1, 3)], [7, 8, 10]),
        ([2, 2, 0, 1, 1, 0, 1, 2], [1, 0, 2, 3, 2, 2, 2, 0], [0, 2, 3, 4, 5, 7, 8, 10, 11],
         [1, 0, 1, 1, 2, 0, 1, 1, 0, 1, 1], [-1, 1, -1, 1, 1, -1, 1, 1, -1, 1, -1]),
        [2, Fraction(216697609084950675456, 7), 0]),
    "flow_through_a_zero_bound": (
        make_network(6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5)], [4, 11, 8, 2, 4]),
        ([0, 4, 0, 4, 2, 1, 0], [2, 1, 4, 0, 0, 4, 4], [0, 2, 3, 5, 7, 9, 10, 12],
         [0, 2, 3, 0, 3, 3, 0, 2, 0, 3, 0, 3], [1, 1, -1, 1, 1, -1, -1, -1, -1, 1, 1, 1]),
        [0, 0, 4, Fraction(107430397650567135232, 3), Fraction(9, 5)]),
}
_WIDE_BOUND_LPS["tiny_bounds_on_a_slack_row"] = (
    *_WIDE_BOUND_LPS["dual_on_a_slack_row"][:2],
    [Fraction(1, 10000079), 0, Fraction(8, 10000019)])
_WIDE_BOUND_LPS["tiny_bound_beside_no_double"] = (
    *_WIDE_BOUND_LPS["optimum_no_double_holds"][:2],
    [Fraction(5, 10000019), Fraction(2 * 10 ** 19, 3), 47])
_WIDE_BOUND_LPS["highs_gives_no_optimum"] = (
    make_network(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 5), (3, 4)], [1] * 7),
    ([4, 1, 5, 2, 3, 2, 3, 0, 0], [1, 0, 3, 3, 0, 0, 5, 3, 1],
     [0, 3, 4, 7, 9, 10, 11, 14, 15, 16], [6, 2, 0, 0, 4, 0, 2, 1, 2, 2, 1, 2, 0, 4, 2, 0],
     [-1, -1, 1, -1, -1, -1, 1, -1, 1, -1, -1, -1, 1, 1, 1, 1]),
    [Fraction(2174492990343857457837, 2), Fraction(4, 5), 226229422706660802431,
     Fraction(572906, 1000000007), 46, 2, Fraction(1529, 10000019)])


@pytest.mark.parametrize("name", _WIDE_BOUND_LPS)
def test_wide_bounds_are_proved_after_refinement(name):
    net, arrays, bounds = _WIDE_BOUND_LPS[name]
    routing = build_routing_system(net, PathSet(*map(np.array, arrays)))
    refinements = []
    with _counting(lp, "_refine", refinements):
        report = lp._throughput(routing, bounds)
    assert len(refinements) == 1
    assert report.route == lp.CERTIFIED
    assert report.psi_value == _throughput_reference(dense_views(routing)[2], bounds)[2]
    assert set(map(type, report.optimal_flow.amounts)) == {Fraction}
    fwd, bwd = _hop_walk_usage(routing, report.optimal_flow.amounts)
    assert fwd == bwd and all(f <= b for f, b in zip(fwd, bounds))


def test_both_failed_checks_return_the_float_optimum(line):
    # no corpus reaches this: a certificate that fails, and a refinement
    # whose basis does not solve to a proof, leave HiGHS's float, labelled
    # as such
    net, _, routing = line
    with _perturbed_highs("halve_primal"), mock.patch.object(lp, "_refine", lambda *args: None):
        report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.FLOAT
    assert report.solver_status == lp.OPTIMAL
    assert type(report.psi_value) is float and report.psi_value == 20.0
    assert lp.one_step_throughput(net, routing, center_state(net)) is report


@settings(max_examples=80, deadline=None)
@given(small_instance(), st.integers(min_value=1, max_value=6), st.data())
def test_certified_value_matches_simplex(instance, denominator, data):
    # the simplex here is _reference_solve_dense, on Fractions
    net, _, routing, _ = instance
    # balances on the lattice (1/denominator) Z inside [0, capacity]
    state = make_state(net, [
        Fraction(data.draw(st.integers(min_value=0, max_value=int(c * denominator))),
                 denominator)
        for c in net.capacities])
    bounds = [min(b, c - b) for c, b in zip(net.capacities, state.balances)]
    status, _, reference = _throughput_reference(dense_views(routing)[2], bounds)
    report = lp.one_step_throughput(net, routing, state)
    assert status == "Optimal"
    assert report.route == lp.CERTIFIED
    assert report.psi_value == reference
    assert isinstance(report.psi_value, Fraction)
    assert check_feasible(net, routing, state, report.optimal_flow, tol=0)
    assert _delta_residual(routing, report.optimal_flow) == 0


# --- exact optima, kept per routing by bound vector ---


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
    fresh = lp.one_step_throughput(net, _fresh_routing(net, paths), state)
    assert fresh.route == lp.CERTIFIED
    assert _signature(warm) == _signature(fresh)


def test_mirrored_states_share_one_simplex_solve(line):
    # one run of HiGHS's dual simplex per bound vector
    net, _, routing = line
    solves = []
    state, mirror = make_state(net, [15, 5]), make_state(net, [5, 15])
    with _counting(lp, "_highs", solves):
        report = lp.one_step_throughput(net, routing, state)
        assert len(solves) == 1
        assert lp.one_step_throughput(net, routing, mirror) == report
        for _ in range(3):
            assert lp.one_step_throughput(net, routing, state) == report
            assert lp.one_step_throughput(net, routing, mirror) == report
        assert len(solves) == 1
        assert lp.max_throughput(net, routing) == 20
        assert len(solves) == 2
    assert report.psi_value == 10 and report.route == lp.CERTIFIED


def test_kept_exact_optimum_answers_a_repeat_on_either_route(line):
    # 3 * 18 channels * 20 paths = 1,080 cells
    net, paths, routing = _er_instance(10, 18, 20, seed=3, demand_seed=10)
    assert 3 * routing.edge_count * routing.path_count == 1_080
    rng = random.Random(5)
    state = make_state(net, [rng.randint(0, int(c)) for c in net.capacities])
    mirror = make_state(net, [c - b for c, b in zip(net.capacities, state.balances)])
    highs_calls, refinements = [], []
    with _counting(lp, "_highs", highs_calls), _counting(lp, "_refine", refinements):
        reports = [lp.one_step_throughput(net, routing, s)
                   for s in (state, mirror, state, mirror)]
        assert (len(highs_calls), len(refinements)) == (1, 0)
        assert reports[0].route == lp.CERTIFIED and reports[0].psi_value > 0
        assert {_signature(r) for r in reports} == {_signature(reports[0])}

        # and a kept refined optimum answers a repeat whose certificate
        # would hold
        net, paths, routing = line
        with _perturbed_highs("halve_primal"):
            kept = lp.one_step_throughput(net, routing, center_state(net))
        assert (len(highs_calls), len(refinements)) == (2, 1)
        assert lp.one_step_throughput(net, routing, center_state(net)) is kept
        certified = lp.one_step_throughput(net, _fresh_routing(net, paths), center_state(net))
        assert (len(highs_calls), len(refinements)) == (3, 1)
    assert kept.route == certified.route == lp.CERTIFIED
    assert kept.psi_value == certified.psi_value == 20


def test_repeats_return_the_kept_report_and_floats_keep_none(line):
    # a state, its mirror and a repeat: one exact solve at either size and
    # the same report object back, but a float solve on every call
    certified = _er_instance(10, 18, 20, seed=3, demand_seed=10)
    assert 3 * certified[2].edge_count * certified[2].path_count == 1_080
    for net, paths, routing in (line, certified):
        rng = random.Random(5)
        state = make_state(net, [rng.randint(0, int(c)) for c in net.capacities])
        mirror = make_state(net, [c - b for c, b in zip(net.capacities, state.balances)])
        highs_calls = []
        with _counting(lp, "_highs", highs_calls):
            first, *again = [lp.one_step_throughput(net, routing, s)
                             for s in (state, mirror, state)]
        assert first.route == lp.CERTIFIED
        assert all(report is first for report in again)
        assert len(highs_calls) == 1
        # a repeat still checks the state: one entry too many would give
        # the kept bound vector, since min(b, c - b) zips to the shorter
        with pytest.raises(ValueError, match="entries for"):
            lp.one_step_throughput(net, routing, BalanceState(state.balances + (Fraction(0),)))

        floats = []
        with _route(exact=False), _counting(lp, "_highs", floats):
            routing = _fresh_routing(net, paths)
            reports = [lp.one_step_throughput(net, routing, s) for s in (state, mirror, state)]
        assert len(floats) == 3
        assert {r.route for r in reports} == {lp.FLOAT}
        assert reports[0] is not reports[1] and reports[0] is not reports[2]
        assert reports[0].psi_value == pytest.approx(float(first.psi_value), rel=1e-9, abs=1e-9)


# --- the floor from the ceiling's kept optimum ---


@st.composite
def _floor_cases(draw):
    """A small instance with the reverse of some of its paths added, so
    that most carry flow at C/2, next to one-way paths that steady state
    may hold at zero, and a set of at most two unpeeled channels."""
    net, paths, _, _ = draw(small_instance())
    flip = {FORWARD: BACKWARD, BACKWARD: FORWARD}
    back = [Path(p.destination, p.source, tuple((e, flip[d]) for e, d in reversed(p.hops)))
            for p in paths if draw(st.booleans())]
    paths = PathSet.of([*paths, *back])
    unpeeled = draw(st.sets(st.integers(0, net.edge_count - 1), max_size=2))
    return net, paths, unpeeled


def _floors(net, paths, unpeeled):
    """min_throughput after max_throughput on one routing, and on a fresh
    routing of the same paths, which has no optimum kept."""
    routing = build_routing_system(net, paths)
    lp.max_throughput(net, routing)
    warm = lp.min_throughput(net, routing, unpeeled)
    return warm, lp.min_throughput(net, _fresh_routing(net, paths), unpeeled)


@settings(max_examples=100, deadline=None)
@given(_floor_cases())
def test_floor_after_the_ceiling_matches_a_fresh_routing(case):
    warm, fresh = _floors(*case)
    assert isinstance(warm, Fraction) and isinstance(fresh, Fraction)
    assert warm == fresh


@settings(max_examples=60, deadline=None)
@given(_floor_cases())
def test_floor_after_the_ceiling_matches_a_fresh_routing_on_floats(case):
    with _route(exact=False):
        warm, fresh = _floors(*case)
    assert isinstance(warm, float) and isinstance(fresh, float)
    assert warm == pytest.approx(fresh, rel=1e-9, abs=1e-9)


def _line_with_a_one_way_spur():
    """The line instance plus channel 2 = (2, 3), crossed by the one-way
    path 2->3 alone. Steady state forces the flow of 2->3, 1->2 and 1->0 to
    exactly 0, so the one optimum at C/2 sends 10 each way along 0-1-2."""
    net = make_network(4, [(0, 1), (1, 2), (2, 3)], [20, 20, 20])
    paths = PathSet.of_walks(net, ([0, 1, 2], [2, 1, 0], [1, 2], [1, 0], [2, 3]))
    return net, build_routing_system(net, paths)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("unpeeled, solves, floor",
                         [(set(), 0, 20), ({2}, 0, 20), ({0}, 1, 0), ({1, 2}, 1, 0)])
def test_floor_reuses_the_ceiling_only_when_it_fits(exact, unpeeled, solves, floor):
    net, routing = _line_with_a_one_way_spur()
    counted = []
    with _route(exact), _counting(lp, "_highs", counted):
        assert lp.max_throughput(net, routing) == 20
        assert len(counted) == 1
        assert lp.min_throughput(net, routing, unpeeled) == pytest.approx(floor)
    assert len(counted) == 1 + solves


@pytest.mark.parametrize("exact", [True, False])
def test_floor_is_zero_without_a_solve_when_every_path_crosses_a_zeroed_channel(exact):
    # both paths cross channel 1; the ceiling sends 10 each way over it
    net = make_network(3, [(0, 1), (1, 2)], [20, 20])
    paths = PathSet.of_walks(net, ([0, 1, 2], [2, 1, 0]))
    counted = []
    with _route(exact), _counting(lp, "_highs", counted):
        fresh = lp.min_throughput(net, _fresh_routing(net, paths), {1})
        assert not counted
        routing = _fresh_routing(net, paths)
        assert lp.max_throughput(net, routing) == 20
        after_ceiling = lp.min_throughput(net, routing, {1})
    assert len(counted) == 1
    for floor in (fresh, after_ceiling):
        assert floor == 0 and type(floor) is (Fraction if exact else float)


def test_float_floor_reoptimizes_the_ceilings_solver():
    # the ceiling sends flow over channel 0, so the floor is solved, in the
    # one HiGHS solver the ceiling built
    net, routing = _line_with_a_one_way_spur()
    built, solves = [], []
    with (_route(exact=False), _counting(lp._core, "_Highs", built),
          _counting(lp, "_highs", solves)):
        assert lp.max_throughput(net, routing) == 20
        assert lp.min_throughput(net, routing, {0}) == 0
    assert (len(built), len(solves)) == (1, 2)
    assert solves[1][2] is lp._lp_forms(routing).ceiling.solver


@pytest.mark.parametrize("order", [("a", "b", "a"), ("b", "a", "b")])
def test_reoptimized_floors_restore_the_previous_sets_rows(order):
    # floors 5833.3 ({0}), 5555.6 ({7}) and 5000 ({0, 7}) below the ceiling
    # 6111.1: a floor that kept the last set's zeros would read the union's
    net, paths, routing = _er_instance(10, 18, 50, seed=3, demand_seed=10)
    sets = {"a": {0}, "b": {7}}
    with _route(exact=False):
        cold = {name: lp.min_throughput(net, _fresh_routing(net, paths), unpeeled)
                for name, unpeeled in sets.items()}
        union = lp.min_throughput(net, _fresh_routing(net, paths), sets["a"] | sets["b"])
        ceiling = lp.max_throughput(net, routing)
        solves = []
        with _counting(lp, "_highs", solves):
            warm = [lp.min_throughput(net, routing, sets[name]) for name in order]
    assert union < min(cold.values()) and max(cold.values()) < ceiling
    assert cold["a"] != cold["b"]
    assert len(solves) == 3
    for name, floor in zip(order, warm):
        assert floor == pytest.approx(cold[name], rel=1e-9, abs=1e-9)


def _desk_cells(entries):
    """The desk-sweep benchmark's cells of pool entries `entries`: each desk
    family at 300 and 3000 Uniform pairs on graph seed `entry` and demand
    seed `entry + 1`, as (network, paths)."""
    for entry in entries:
        config = replace(desk_scale_config(entry), densities=(300, 3000),
                         graph_instances=1, demand_matrices=1)
        for spec, pairs, graph_seed, demand_seed, mode, *_ in sweep_cells(config):
            net = gen_topology(replace(spec, seed=graph_seed))
            demand = sample_demand(net, DemandSpec(pair_count=pairs, mode=mode,
                                                   seed=demand_seed))
            yield net, build_paths(net, demand, seed=demand_seed)


def test_desk_floors_match_cold_floors():
    # every floor, zero floors included, against the floor LP solved cold
    warm_solves = 0
    for net, paths in _desk_cells(range(4)):
        routing = build_routing_system(net, paths)
        unpeeled = set(residue(routing).unpeeled_edges)
        lp.max_throughput(net, routing)
        solves = []
        with _counting(lp, "_highs", solves):
            warm = lp.min_throughput(net, routing, unpeeled)
        warm_solves += len(solves)
        bounds = [Fraction(0) if k in unpeeled else c / 2 for k, c in enumerate(net.capacities)]
        cold = lp._throughput(_fresh_routing(net, paths), bounds).psi_value
        assert type(warm) is type(cold) is float
        assert warm == pytest.approx(cold, rel=1e-9, abs=1e-9)
        assert _fmt_value(warm) == _fmt_value(cold)
    # entries 0-3 re-optimize 5 floors: RandomRegular/300 on entries 0 and
    # 2, ScaleFreeBA/3000 on entries 0-2
    assert warm_solves == 5


def test_floor_never_reads_another_networks_ceiling(line):
    net_a, paths, routing = line
    net_b = make_network(3, [(0, 1), (1, 2)], [40, 40])
    assert lp.max_throughput(net_a, routing) == 20
    # net_a's optimum fits the empty set, but net_b's floor is its own
    assert lp.min_throughput(net_b, routing, set()) == 40
    assert lp.max_throughput(net_b, build_routing_system(net_b, paths)) == 40
    assert lp.min_throughput(net_a, routing, set()) == 20


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
    with mock.patch.object(lp, "_highs", perturbed_highs):
        report = lp.one_step_throughput(net, routing, state)
    reference = _reference_certify(routing, bounds, seen[0])
    if reference is None:
        # the basis solve proves the optimum instead
        assert report.route == lp.CERTIFIED
        assert report.psi_value == _throughput_reference(dense_views(routing)[2], bounds)[2]
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
    report = lp.one_step_throughput(net, routing, center_state(net))
    assert report.route == lp.CERTIFIED
    assert report.psi_value == 20 * 10 ** 15


# --- bounds beyond HiGHS's range ---


@pytest.mark.parametrize("capacity", [10 ** 21, 10 ** 300, 10 ** 400],
                         ids=["1e21", "1e300", "1e400"])
def test_bounds_beyond_highs_range(capacity):
    # the exact route scales the bounds by a power of two into HiGHS's
    # range, where the other bounds fall below HiGHS's tolerances. At 1e300
    # HiGHS's x is off by some 360 at the wide bound, which keeps the
    # refinement from lifting the other bounds (near 1e-279) into view, and
    # the vector is refused. Past a double's range they read 0, HiGHS's x
    # is exactly feasible, and the refinement lifts them to 1: proved.
    base, _, routing = _er_instance(10, 18, 50, seed=3, demand_seed=10)
    capacities = list(base.capacities)
    capacities[5] = Fraction(capacity)
    net = make_network(base.node_count, base.edges, capacities)
    state = center_state(net)
    if capacity != 10 ** 300:
        _, _, reference = _throughput_reference(dense_views(routing)[2],
                                                [c / 2 for c in capacities])
        report = lp.one_step_throughput(net, routing, state)
        assert report.route == lp.CERTIFIED
        assert report.psi_value == reference > capacity // 2
        assert lp.max_throughput(net, routing) == reference
    else:
        for call in (lambda: lp.one_step_throughput(net, routing, state),
                     lambda: lp.max_throughput(net, routing)):
            with pytest.raises(ValueError, match="channel 5"):
                call()
    with _route(exact=False):
        with pytest.raises(ValueError, match="channel 5"):
            lp.one_step_throughput(net, routing, state)
        with pytest.raises(ValueError, match="channel 5"):
            lp.max_throughput(net, routing)


@pytest.mark.parametrize("bounds, optimum", [([10 ** 20 + 1, 10 ** 20], 2 * 10 ** 20),
                                             ([10 ** 20, 10 ** 20 + 1], 2 * 10 ** 20),
                                             ([0, Fraction(1, 10 ** 7)], 0)],
                         ids=["wider_first", "wider_second", "within_tolerance_of_0"])
def test_bounds_a_double_cannot_tell_apart(bounds, optimum):
    # scaled into HiGHS's range the two bounds round to one double, so
    # HiGHS may bind the wider channel's row; the refinement proves the
    # optimum all the same. A bound of 1e-7 is within HiGHS's tolerance of
    # the 0 beside it unless the vector is first lifted to 1.
    _, _, routing = line_instance()
    report = lp._throughput(routing, bounds)
    assert report.route == lp.CERTIFIED
    assert report.psi_value == _throughput_reference(dense_views(routing)[2], bounds)[2]
    assert report.psi_value == optimum


# bounds in [0, 6] over denominators up to 1e9, and k / 10**m down to 1e-12
_FINE_BOUNDS = st.one_of(
    st.fractions(min_value=0, max_value=6, max_denominator=10 ** 9),
    st.builds(Fraction, st.integers(min_value=0, max_value=1000),
              st.sampled_from([10 ** m for m in range(6, 13)])))


@settings(max_examples=100, deadline=None)
@given(_floor_cases(), st.data())
def test_fine_bounds_are_proved(case, data):
    # below HiGHS's tolerances and over denominators no certificate reads
    # back, every optimum is still proved and exact
    net, paths, _ = case
    routing = build_routing_system(net, paths)
    bounds = data.draw(st.lists(_FINE_BOUNDS, min_size=net.edge_count,
                                max_size=net.edge_count))
    report = lp._throughput(routing, bounds)
    assert report.route == lp.CERTIFIED
    assert report.psi_value == _throughput_reference(dense_views(routing)[2], bounds)[2]


# --- the direct HiGHS call against linprog ---
#
# _linprog_solution is the float route as it ran through
# scipy.optimize.linprog(method="highs-ds") on scipy.sparse F and F - B;
# lp._highs passes the same LP to the same HiGHS binding with the same
# options (presolve off), so every result must agree bit for bit. With
# linprog's default presolve the objective stays within 1e-9 relative.


def _linprog_solution(routing, b_ub, presolve=False):
    delta = sparse.csr_matrix((routing.sign.astype(float), routing.edge, routing.indptr),
                              shape=(routing.path_count, routing.edge_count)).T
    res = linprog(-np.ones(routing.path_count), A_ub=delta.maximum(0), b_ub=b_ub,
                  A_eq=delta, b_eq=np.zeros(routing.edge_count), bounds=(0, None),
                  method="highs-ds", options={"presolve": presolve})
    assert res.status == 0
    return lp.LpSolution(lp.OPTIMAL, tuple(float(v) for v in np.maximum(res.x, 0.0)),
                         float(-res.fun) + 0.0, (res.ineqlin.marginals, res.eqlin.marginals))


def _bits(solution):
    """A solution's status and the bytes of every float it holds."""
    return (solution.status, np.array(solution.x).tobytes(),
            np.float64(solution.objective_value).tobytes(),
            tuple(np.asarray(d).tobytes() for d in solution.duals))


def _ceiling_and_floor_lps():
    """Criterion 2's 200 instances and the first graph and demand draw of
    each desk-sweep family at 300 and 3000 pairs, each with its ceiling
    bounds c / 2 and its floor bounds (0 on the unpeeled channels)."""
    instances = [(net, paths) for _, _, net, paths in criterion_2_instances()]
    desk = set()
    for spec, pairs, graph_seed, demand_seed, mode, *_ in sweep_cells(desk_scale_config()):
        if pairs not in (300, 3000) or (spec.kind, pairs) in desk:
            continue
        desk.add((spec.kind, pairs))
        net = gen_topology(replace(spec, seed=graph_seed))
        demand = sample_demand(net, DemandSpec(pair_count=pairs, mode=mode, seed=demand_seed))
        instances.append((net, build_paths(net, demand, seed=demand_seed)))
    for net, paths in instances:
        routing = build_routing_system(net, paths)
        unpeeled = set(residue(routing).unpeeled_edges)
        ceiling = [c / 2 for c in net.capacities]
        yield routing, ceiling
        yield routing, [Fraction(0) if k in unpeeled else b for k, b in enumerate(ceiling)]


def test_direct_highs_call_equals_linprog():
    count = 0
    for routing, bounds in _ceiling_and_floor_lps():
        b_ub = lp._highs_bounds(bounds)
        direct = lp._highs(lp._lp_forms(routing).highs_columns, b_ub)
        assert _bits(direct) == _bits(_linprog_solution(routing, b_ub))
        presolved = _linprog_solution(routing, b_ub, presolve=True)
        assert math.isclose(direct.objective_value, presolved.objective_value, rel_tol=1e-9)
        count += 1
    assert count == 2 * (200 + 8)


@pytest.mark.parametrize("exact", [False, True], ids=["float-ceiling", "exact-branch"])
def test_highs_holds_the_routings_lp(exact):
    # the array passModel's fifteen arguments land where HiGHS keeps them:
    # [F; F - B] column-wise, cost -1 (minimized), 0 <= x and the limit and
    # net-shift rows' bounds, in the float ceiling's kept solver and in the
    # exact branch's
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], [10, 6, 8])
    paths = PathSet.of_walks(net, [[0, 1], [1, 2], [2, 0], [1, 0], [2, 1], [0, 2], [0, 1, 2]])
    routing = build_routing_system(net, paths)
    with _route(exact):
        lp.max_throughput(net, routing)
    forms = lp._lp_forms(routing)
    model = (forms.solver if exact else forms.ceiling.solver).highs.getLp()
    matrix = model.a_matrix_
    a = np.zeros((model.num_row_, model.num_col_))
    for j in range(model.num_col_):
        rows = slice(matrix.start_[j], matrix.start_[j + 1])
        a[np.array(matrix.index_[rows], dtype=int), j] = matrix.value_[rows]
    forward, _, delta = dense_views(routing)
    assert matrix.format_ == lp._core.MatrixFormat.kColwise
    assert a.tolist() == [list(map(float, row)) for row in forward + delta]
    assert model.sense_ == lp._core.ObjSense.kMinimize and model.offset_ == 0
    assert list(model.col_cost_) == [-1.0] * 7
    assert list(model.col_lower_) == [0.0] * 7
    assert list(model.col_upper_) == [math.inf] * 7
    assert list(model.row_lower_) == [-math.inf] * 3 + [0.0] * 3
    assert list(model.row_upper_) == [5.0, 3.0, 4.0] + [0.0] * 3


def _columns(start, index, value):
    return (np.array(start, np.int32), np.array(index, np.int32), np.array(value, float))


def _linprog_status(columns, b_ub, **options):
    """linprog's status on the LP lp._highs reads off `columns`, mapped as
    the float route mapped it."""
    start, index, value = columns
    a = np.zeros((2 * b_ub.size, start.size - 1))
    for j, (lo, hi) in enumerate(zip(start[:-1], start[1:])):
        a[index[lo:hi], j] = value[lo:hi]
    res = linprog(-np.ones(a.shape[1]), A_ub=a[:b_ub.size], b_ub=b_ub, A_eq=a[b_ub.size:],
                  b_eq=np.zeros(b_ub.size), bounds=(0, None), method="highs-ds",
                  options=options)
    return {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}.get(res.status,
                                                                  lp.NUMERICAL_FAILURE)


@pytest.mark.parametrize("columns, b_ub, status", [
    # x <= -1
    (_columns([0, 1], [0], [1.0]), [-1.0], lp.INFEASIBLE),
    # no row holds x
    (_columns([0, 0], [], []), [1.0], lp.UNBOUNDED),
    # x1 - x2 <= 1 and x1 - x2 = 0 hold x1 = x2 anywhere
    (_columns([0, 2, 4], [0, 1, 0, 1], [1.0, 1.0, -1.0, -1.0]), [1.0], lp.UNBOUNDED),
], ids=["infeasible", "unbounded-free-column", "unbounded-ray"])
def test_direct_highs_status_maps_as_linprog(columns, b_ub, status):
    b_ub = np.array(b_ub)
    assert lp._highs(columns, b_ub).status == _linprog_status(columns, b_ub) == status


def test_direct_highs_failures_are_numerical():
    # x1 + x2 <= 4 and x1 - x2 = 0: optimal at (2, 2), but not in zero
    # iterations without presolve
    columns, b_ub = _columns([0, 2, 4], [0, 1, 0, 1], [1.0, 1.0, 1.0, -1.0]), np.array([4.0])
    assert lp._highs(columns, b_ub).x == (2.0, 2.0)
    stopped = lp._highs_options(presolve="off", simplex_iteration_limit=0)
    with mock.patch.object(lp, "_HIGHS_OPTIONS", stopped):
        assert lp._highs(columns, b_ub).status == lp.NUMERICAL_FAILURE
    assert _linprog_status(columns, b_ub, presolve=False, maxiter=0) == lp.NUMERICAL_FAILURE
    # a row index past the model: passModel refuses it
    broken = _columns([0, 1], [7], [1.0])
    assert lp._highs(broken, np.array([1.0])).status == lp.NUMERICAL_FAILURE
