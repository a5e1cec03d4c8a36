from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from creditnet import (
    BACKWARD,
    BalanceState,
    FORWARD,
    Path,
    PathSet,
    build_routing_system,
    make_network,
    make_state,
    path_from_nodes,
)
from creditnet import lp
from creditnet.oracle import (
    BLOCK_BACKWARD,
    BLOCK_FORWARD,
    OPEN_BOTH,
    OPTIMAL,
    DeadlockAssignment,
    deadlocked_channels_bruteforce,
    enumerate_reachable,
    export_ilp,
    max_deadlock_exact,
)
from creditnet.peeling import build_peeling_graph, peel
from creditnet.reduction import cnf_to_creditnet
from test_acceptance import criterion_2_instances, criterion_3_formulas
from test_model import small_instance


def _instance(node_count, edges, routes, capacity=10):
    net = make_network(node_count, edges, [capacity] * len(edges))
    paths = PathSet.of(path_from_nodes(net, r) for r in routes)
    return net, paths


def _unit_line():
    # the worked two-channel line scaled down to capacity 2
    return _instance(
        3, [(0, 1), (1, 2)], [[0, 1, 2], [2, 1, 0], [1, 2], [1, 0]], capacity=2
    )


def _state(net, values):
    return make_state(net, [Fraction(v) for v in values])


# --- maximum-deadlock search ---


def test_line_max_deadlock_is_both_edges(line):
    net, paths, _ = line
    result = max_deadlock_exact(net, paths)
    assert result.status == "Optimal"
    assert result.deadlocked_edges == {0, 1}
    assert result.blocking_directions == ((0, BACKWARD), (1, FORWARD))
    assert result.witness_state == _state(net, [20, 0])
    assert result.frozen_balances == {0: Fraction(20), 1: Fraction(0)}


def test_opposing_single_hops_never_deadlock():
    net, paths = _instance(2, [(0, 1)], [[0, 1], [1, 0]])
    result = max_deadlock_exact(net, paths)
    assert result.status == "Optimal"
    assert result.deadlocked_edges == frozenset()
    assert result.witness_state == _state(net, [5])


def test_stuck_triangle_is_deadlock_free():
    net, paths = _instance(
        3,
        [(0, 1), (0, 2), (1, 2)],
        [[0, 1, 2], [2, 1, 0], [1, 2, 0], [0, 2, 1], [1, 0, 2], [2, 0, 1]],
    )
    result = max_deadlock_exact(net, paths)
    assert result.size == 0
    # peeling stalls here anyway: the stall is a false alarm this oracle exposes
    stalled = peel(build_peeling_graph(net, paths), seed=0)
    assert stalled.outcome == "Failure"
    assert stalled.unpeeled_edges == {0, 1, 2}


def test_tail_edge_deadlocks_alone():
    net, paths = _instance(3, [(0, 1), (1, 2)], [[0, 1], [1, 0], [0, 1, 2]])
    result = max_deadlock_exact(net, paths)
    assert result.deadlocked_edges == {1}
    assert result.blocking_directions == ((1, FORWARD),)
    assert result.witness_state == _state(net, [5, 0])


def test_unpeeled_bounds_exact_deadlock_from_above(line):
    corpus = [
        (line[0], line[1]),
        _instance(2, [(0, 1)], [[0, 1], [1, 0]]),
        _instance(3, [(0, 1), (1, 2)], [[0, 1], [1, 0], [0, 1, 2]]),
        _instance(
            4,
            [(0, 1), (1, 2), (2, 3)],
            [[1, 0], [2, 1], [2, 3], [0, 1, 2], [3, 2, 1, 0]],
        ),
    ]
    for net, paths in corpus:
        exact = max_deadlock_exact(net, paths)
        stalled = peel(build_peeling_graph(net, paths), seed=1)
        assert exact.status == "Optimal"
        assert exact.deadlocked_edges <= stalled.unpeeled_edges


@given(small_instance(), st.integers(min_value=0, max_value=99))
@settings(max_examples=60, deadline=None)
def test_unpeeled_count_bounds_exact_deadlock_size(instance, seed):
    net, paths, _, _ = instance
    exact = max_deadlock_exact(net, paths)
    assert exact.status == "Optimal"
    assert len(peel(build_peeling_graph(net, paths), seed=seed).unpeeled_edges) >= exact.size


@pytest.mark.parametrize("path, message", [
    # edge -1 must not alias the last channel
    (Path(1, 2, ((-1, FORWARD),)), "edge index -1 out of range"),
    (Path(1, 2, ((2, FORWARD),)), "edge index 2 out of range"),
    (Path(0, 2, ((0, FORWARD), (1, BACKWARD))), "non-contiguous at edge 1"),
    (Path(0, 0, ((0, FORWARD), (0, BACKWARD))), "edge 0 used twice"),
    (Path(0, 2, ((0, FORWARD),)), "does not end at its destination"),
    # read as BACKWARD this hop would walk from 1 to 0
    (Path(1, 0, ((0, 2),)), "bad direction 2 on edge 0"),
], ids=["edge-minus-one", "edge-past-end", "non-contiguous", "repeated-edge",
        "wrong-destination", "direction-two"])
def test_malformed_path_is_rejected(path, message):
    net = make_network(3, [(0, 1), (1, 2)], [10, 10])
    paths = PathSet.of((path,))
    for call in (build_routing_system, build_peeling_graph, max_deadlock_exact,
                 export_ilp):
        with pytest.raises(ValueError, match=f"path 0: {message}"):
            call(net, paths)


def test_edges_without_paths_all_deadlock():
    chain = [(i, i + 1) for i in range(21)]
    net = make_network(22, chain, [4] * 21)
    too_big = max_deadlock_exact(net, PathSet.of(()))
    assert too_big.status == "Unsolved"
    assert too_big.witness_state is None
    solved = max_deadlock_exact(net, PathSet.of(()), max_edges=25)
    assert solved.status == "Optimal"
    assert solved.deadlocked_edges == frozenset(range(21))


def test_time_budget_returns_unsolved(line):
    net, paths, _ = line
    result = max_deadlock_exact(net, paths, time_budget=0.0)
    assert result.status == "Unsolved"
    assert result.deadlocked_edges == frozenset()


def _reference_ilp_maximum(net, paths):
    """Independent optimum via scipy's HiGHS MILP on the same 0/1 program."""
    ecount, pcount = net.edge_count, len(paths)
    nvars = 3 * ecount + pcount
    xf = lambda e: 2 * e
    xb = lambda e: 2 * e + 1
    y = lambda p: 2 * ecount + p
    z = lambda e: 2 * ecount + pcount + e
    rows, lbs, ubs = [], [], []

    def add(coeffs, lb, ub):
        row = np.zeros(nvars)
        for idx, val in coeffs:
            row[idx] = val
        rows.append(row)
        lbs.append(lb)
        ubs.append(ub)

    for e in range(ecount):
        add([(xf(e), 1), (xb(e), 1)], 1, np.inf)
        add([(z(e), 1), (xf(e), -1), (xb(e), -1)], -1, -1)
    for p, path in enumerate(paths):
        hop_vars = [xf(e) if d == FORWARD else xb(e) for e, d in path.hops]
        for hv in hop_vars:
            add([(y(p), 1), (hv, -1)], -np.inf, 0)
        add([(y(p), 1)] + [(hv, -1) for hv in hop_vars], 1 - len(hop_vars), np.inf)
        for e, _ in path.hops:
            add([(z(e), 1), (y(p), -1)], 0, np.inf)
    cost = np.zeros(nvars)
    for e in range(ecount):
        cost[z(e)] = 1
    res = milp(
        c=cost,
        constraints=LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs)),
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0
    return ecount - round(res.fun)


def test_search_matches_reference_milp(line):
    import random

    rng = random.Random(99)
    cases = [(line[0], line[1])]
    for _ in range(8):
        n = 5
        edges = {(i, i + 1) for i in range(n - 1)}
        while len(edges) < n + 1:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        net = make_network(n, sorted(edges), [6] * len(edges))
        adjacency = net.adjacency()
        routes = []
        for _ in range(6):
            src, dst = rng.sample(range(n), 2)
            # shortest route by BFS, lowest neighbor first
            prev = {src: None}
            queue = [src]
            while queue:
                u = queue.pop(0)
                for v in sorted(adjacency[u]):
                    if v not in prev:
                        prev[v] = u
                        queue.append(v)
            walk = [dst]
            while prev[walk[-1]] is not None:
                walk.append(prev[walk[-1]])
            routes.append(walk[::-1])
        paths = PathSet.of(path_from_nodes(net, r) for r in routes)
        cases.append((net, paths))
    for net, paths in cases:
        mine = max_deadlock_exact(net, paths)
        assert mine.status == "Optimal"
        assert mine.size == _reference_ilp_maximum(net, paths)


# --- tuple-based references ---
#
# The maximum-deadlock search and the ILP export on (edge, direction) hop
# tuples and a channel -> (path, direction) index, both rebuilt from the
# iterated Paths; the oracles read the routing arrays instead, and must
# return the same result and the same text.


def _hops_and_channel_paths(net, paths):
    hops = [p.hops for p in paths]
    on_edge = [[] for _ in range(net.edge_count)]
    for p, path_hops in enumerate(hops):
        for e, d in path_hops:
            on_edge[e].append((p, d))
    return hops, on_edge


def _reference_deadlock(net, paths):
    hops, on_edge = _hops_and_channel_paths(net, paths)
    ecount = net.edge_count
    order = sorted(range(ecount), key=lambda e: (-len(on_edge[e]), e))
    best = [0, {}]

    def apply(state, edge, value):
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
                if (v, d) in ((BLOCK_FORWARD, FORWARD), (BLOCK_BACKWARD, BACKWARD)):
                    nblock[p] += 1
            for p, _ in on_edge[e]:
                if nblock[p] > 0 or not needs[p]:
                    continue
                if nundec[p] == 0:
                    return False
                if nundec[p] == 1:
                    he, hd = next((he, hd) for he, hd in hops[p] if assign[he] is None)
                    stack.append((he, BLOCK_FORWARD if hd == FORWARD else BLOCK_BACKWARD))
        return True

    def search(state):
        assign = state[0]
        deadlocked = [e for e in range(ecount) if assign[e] in (BLOCK_FORWARD, BLOCK_BACKWARD)]
        undecided = [e for e in order if assign[e] is None]
        if len(deadlocked) + len(undecided) <= best[0]:
            return
        if not undecided:
            best[:] = [len(deadlocked), {e: assign[e] for e in deadlocked}]
            return
        for value in (BLOCK_FORWARD, BLOCK_BACKWARD, OPEN_BOTH):
            if best[0] == ecount:
                return
            child = tuple(list(part) for part in state)
            if apply(child, undecided[0], value):
                search(child)

    search(([None] * ecount, [0] * len(hops), [len(h) for h in hops], [False] * len(hops)))
    blocking = best[1]
    balances = [(0 if blocking[e] == BLOCK_FORWARD else cap) if e in blocking else cap / 2
                for e, cap in enumerate(net.capacities)]
    return DeadlockAssignment(
        OPTIMAL, frozenset(blocking),
        tuple((e, FORWARD if blocking[e] == BLOCK_FORWARD else BACKWARD)
              for e in sorted(blocking)),
        make_state(net, balances))


def _reference_ilp(net, paths):
    hops, on_edge = _hops_and_channel_paths(net, paths)
    edges = range(net.edge_count)
    lines = ["\\ maximum-deadlock search", "Minimize",
             " obj: " + " + ".join(f"z_{e}" for e in edges), "Subject To"]
    for e in edges:
        lines += [f" cap_{e}: x_{e}_f + x_{e}_b >= 1",
                  f" imb_{e}: z_{e} - x_{e}_f - x_{e}_b = -1"]
    for pi, path_hops in enumerate(hops):
        terms = [f"x_{e}_f" if d == FORWARD else f"x_{e}_b" for e, d in path_hops]
        lines += [f" blk_{pi}_{hi}: y_{pi} - {x} <= 0" for hi, x in enumerate(terms)]
        lines.append(f" opn_{pi}: y_{pi} - {' - '.join(terms)} >= {1 - len(terms)}")
    lines += [f" dlk_{e}_{pi}: z_{e} - y_{pi} >= 0" for e in edges for pi, _ in on_edge[e]]
    names = [f"x_{e}_{end}" for e in edges for end in "fb"]
    names += [f"y_{pi}" for pi in range(len(hops))] + [f"z_{e}" for e in edges]
    return "\n".join(lines + ["Binaries", " " + " ".join(names), "End"]) + "\n"


def test_oracles_match_tuple_reference_on_criterion_corpora(line):
    corpus = [(line[0], line[1], 20)]
    corpus += [(net, paths, 20) for _, _, net, paths in criterion_2_instances()]
    corpus += [(*cnf_to_creditnet(cnf), 80) for cnf in criterion_3_formulas()]
    for net, paths, max_edges in corpus:
        assert max_deadlock_exact(net, paths, max_edges=max_edges) == \
            _reference_deadlock(net, paths)
        assert export_ilp(net, paths) == _reference_ilp(net, paths)


# --- exported 0/1 program ---


def test_export_minimal_instance():
    net = make_network(2, [(0, 1)], [4])
    text = export_ilp(net, PathSet.of(()))
    assert text == export_ilp(net, PathSet.of(()))
    lines = text.splitlines()
    assert " obj: z_0" in lines
    constraints = [l for l in lines if l.startswith(" cap_") or l.startswith(" imb_")]
    assert constraints == [" cap_0: x_0_f + x_0_b >= 1", " imb_0: z_0 - x_0_f - x_0_b = -1"]
    binaries = lines[lines.index("Binaries") + 1].split()
    assert binaries == ["x_0_f", "x_0_b", "z_0"]


def test_export_line_structure(line):
    net, paths, _ = line
    lines = export_ilp(net, paths).splitlines()
    assert lines[1] == "Minimize"
    assert lines[2] == " obj: z_0 + z_1"
    assert " blk_0_1: y_0 - x_1_f <= 0" in lines
    assert " opn_0: y_0 - x_0_f - x_1_f >= -1" in lines
    assert " opn_2: y_2 - x_1_f >= 0" in lines
    assert sum(1 for l in lines if l.startswith(" dlk_")) == 6


# --- reachability enumeration ---


def test_enumerate_line_from_midpoint():
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    reached = enumerate_reachable(net, routing, _state(net, [1, 1]), 1)
    expected = {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert {tuple(s.balances) for s in reached} == expected


def test_line_deadlock_corner_is_absorbing():
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    reached = enumerate_reachable(net, routing, _state(net, [2, 0]), 1)
    assert reached == {_state(net, [2, 0])}


def test_line_empty_corner_is_not_absorbing():
    # both channels can still be refilled from the far side here
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    reached = enumerate_reachable(net, routing, _state(net, [0, 0]), 1)
    assert len(reached) == 6


def test_enumerate_without_paths_stays_put():
    net = make_network(2, [(0, 1)], [2])
    routing = build_routing_system(net, PathSet.of(()))
    start = _state(net, [1])
    assert enumerate_reachable(net, routing, start, 1) == {start}


def test_enumerate_single_edge_full_range():
    net, paths = _instance(2, [(0, 1)], [[0, 1], [1, 0]], capacity=2)
    routing = build_routing_system(net, paths)
    reached = enumerate_reachable(net, routing, _state(net, [0]), 1)
    assert {s.balances[0] for s in reached} == {0, 1, 2}


def test_enumerate_rejects_huge_lattice():
    net = make_network(2, [(0, 1)], [4 * 10**6])
    routing = build_routing_system(net, PathSet.of(()))
    with pytest.raises(ValueError, match="lattice"):
        enumerate_reachable(net, routing, _state(net, [0]), 1)


def test_enumerate_rejects_bad_granularity():
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    with pytest.raises(ValueError, match="positive"):
        enumerate_reachable(net, routing, _state(net, [1, 1]), 0)


@pytest.mark.parametrize("balances, message", [
    ((1,), "1 entries for 2 channels"),
    ((1, 2, 3), "3 entries for 2 channels"),
    ((30, 5), "balance 30 on channel 0 outside"),
    ((5, -1), "balance -1 on channel 1 outside"),
])
def test_enumerate_rejects_states_that_do_not_fit(line, balances, message):
    net, _, routing = line
    start = BalanceState(tuple(Fraction(b) for b in balances))
    with pytest.raises(ValueError, match=message):
        enumerate_reachable(net, routing, start, 1)


# --- stuck-channel brute force ---


def test_stuck_channels_at_deadlock_corner():
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    assert deadlocked_channels_bruteforce(net, routing, _state(net, [2, 0]), 1) == {0, 1}


def test_no_stuck_channels_at_midpoint():
    net, paths = _unit_line()
    routing = build_routing_system(net, paths)
    assert deadlocked_channels_bruteforce(net, routing, _state(net, [1, 1]), 1) == set()


def test_no_stuck_channels_at_worked_imbalanced_state(line):
    net, paths, routing = line
    state = make_state(net, [15, 5])
    assert deadlocked_channels_bruteforce(net, routing, state, 5) == set()


def test_worst_state_agrees_with_floor_on_line(line):
    net, paths, routing = line
    exact = max_deadlock_exact(net, paths)
    floor_frozen = lp.worst_state_throughput(net, routing, exact)
    floor_zeroed = lp.min_throughput(net, routing, set(exact.deadlocked_edges))
    assert floor_frozen == floor_zeroed == 0
