import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import (
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
from test_model import small_instance


def _triangle(bidirectional):
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], [10, 10, 10])
    hops = [[0, 1], [1, 2], [2, 0]]
    if bidirectional:
        hops += [[1, 0], [2, 1], [0, 2]]
    paths = PathSet(tuple(path_from_nodes(net, h) for h in hops))
    return net, build_routing_system(net, paths)


def _delta_residual(routing, flow):
    worst = 0
    for row in routing.delta:
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
        problem = lp.LpProblem(obj, rows, bounds)
        exact = lp.solve_lp(problem, exact=True)
        approx = lp.solve_lp(problem, exact=False)
        assert exact.status == "Optimal"
        assert approx.status == "Optimal"
        assert abs(float(exact.objective_value) - approx.objective_value) < 1e-7


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
    report = lp.one_step_throughput(net, routing, state, exact=False)
    assert report.solver_status == "Optimal"
    assert abs(report.psi_value - 10.0) < 1e-9
    assert check_feasible(net, routing, state, report.optimal_flow, tol=1e-9)
    assert _delta_residual(routing, report.optimal_flow) <= 1e-9


def test_float_route_zero_optimum_is_positive_zero(line):
    net, _, routing = line
    value = lp.min_throughput(net, routing, {0, 1}, exact=False)
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_auto_route_boundary_counts_three_blocks(line):
    # 3 * channels * paths <= EXACT_CELL_LIMIT stays exact; one path more
    # crosses the line even though the collapsed LP has only 2 blocks
    net, paths, _ = line
    count = lp.EXACT_CELL_LIMIT // (3 * net.edge_count)
    at_limit = PathSet(tuple(paths[i % len(paths)] for i in range(count)))
    past_limit = PathSet(at_limit.paths + (paths[count % len(paths)],))
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
    routing = build_routing_system(net, PathSet(()))
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
        exact = lp.one_step_throughput(net, routing, state, exact=True)
        approx = lp.one_step_throughput(net, routing, state, exact=False)
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
        subset = PathSet(tuple(p for i, p in enumerate(paths) if mask >> i & 1))
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
    reference = lp.solve_lp(lp.LpProblem(
        objective=[1] * routing.path_count,
        ineq_matrix=routing.forward + routing.backward,
        ineq_bounds=state.balances + tuple(room),
        eq_matrix=routing.delta,
        eq_bounds=[0] * routing.edge_count,
    ), exact=True)
    exact = lp.one_step_throughput(net, routing, state, exact=True)
    approx = lp.one_step_throughput(net, routing, state, exact=False)
    assert exact.psi_value == reference.objective_value
    assert abs(approx.psi_value - reference.objective_value) < 1e-9
    for report, tol in ((exact, 0), (approx, 1e-9)):
        assert check_feasible(net, routing, state, report.optimal_flow, tol=tol)
        assert _delta_residual(routing, report.optimal_flow) <= tol


# --- export ---


def test_cplex_text_structure():
    problem = lp.LpProblem(
        objective=(1, 1),
        ineq_matrix=((1, 0), (0, 1)),
        ineq_bounds=(5, Fraction(15, 2)),
        eq_matrix=((1, -1),),
        eq_bounds=(0,),
    )
    text = lp.cplex_lp_text(problem, name="tiny", var_names=("f_0", "f_1"))
    lines = text.splitlines()
    assert lines[0] == "\\ tiny"
    assert lines[1] == "Maximize"
    assert lines[2] == " obj: f_0 + f_1"
    assert " c1: f_1 <= 7.5" in lines
    assert " c2: f_0 - f_1 = 0" in lines
    assert "Bounds" in lines
    assert " 0 <= f_0" in lines
    assert lines[-1] == "End"


def test_lp_problem_rejects_nonzero_lower_bounds():
    with pytest.raises(ValueError, match="lower-bounded at 0"):
        lp.LpProblem((1,), ((1,),), (5,), lower_bounds=(1,))


def test_lp_problem_rejects_ragged_rows():
    with pytest.raises(ValueError):
        lp.LpProblem((1, 1), ((1,),), (5,))
