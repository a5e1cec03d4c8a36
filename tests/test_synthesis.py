import gc
import hashlib
import math
import random
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from creditnet import synthesis
from creditnet.model import make_network
from creditnet.ripple import PathLengthDistribution, ripple_add_prob
from creditnet.synthesis import (
    BUDGET_EXHAUSTED,
    MATCHED,
    JointDegreeDistribution,
    SynthesisTarget,
    build_design_matrix,
    distribution_distance,
    exact_path_length_distribution,
    jdd_from_graph,
    neutral_mixing_jdd,
    optimize_jdd,
    optimize_path_length_dist,
    patch_jdd_sequence,
    read_distribution_csv,
    read_jdd_csv,
    sample_edge_counts,
    search_flow_budget,
    synthesize_graph,
    synthesize_matched,
    target_additions,
    target_ripple,
    target_vector,
    validate_jdd_sequence,
    write_distribution_csv,
    write_jdd_csv,
)


def test_target_ripple_anchor_and_clamp():
    assert target_ripple(1500) == pytest.approx(1.7 * 1500 ** 0.4,
                                                rel=1e-12)
    assert 30.0 <= target_ripple(1500) <= 33.0
    # the curve never asks for more ripple than there are channels left
    assert target_ripple(1) == 1.0
    assert target_ripple(2) == 2.0
    assert target_ripple(0) == 0.0
    assert target_ripple(-3) == 0.0
    assert target_ripple(100, scale=0.5, decay=2.0) == pytest.approx(5.0)


def test_target_additions_telescope():
    # additions must cover the one channel consumed per level plus the
    # drift of the target curve, so partial sums close in closed form
    k = 40
    for level in (40, 30, 17, 5, 1):
        total = sum(target_additions(r, k) for r in range(k, level - 1, -1))
        assert total == pytest.approx(target_ripple(level) + (k - level),
                                      abs=1e-9)


@given(st.integers(2, 60), st.floats(0.5, 3.0), st.floats(1.5, 4.0))
@settings(max_examples=40, deadline=None)
def test_telescope_for_any_curve_shape(k, scale, decay):
    running = 0.0
    for r in range(k, 0, -1):
        running += target_additions(r, k, scale, decay)
        assert running == pytest.approx(
            target_ripple(r, scale, decay) + (k - r), abs=1e-8)


def test_target_vector_layout():
    k = 30
    goal = target_vector(k)
    assert len(goal) == k
    assert goal[0] == pytest.approx(target_ripple(k))
    assert np.all(goal[1:] >= -1e-12)
    assert np.all(goal[1:] <= 1.0 + 1e-12)
    assert goal[-1] == pytest.approx(0.0, abs=1e-12)


def test_design_matrix_layout():
    k = 30
    matrix = build_design_matrix(k, 8)
    assert matrix.shape == (k, 8)
    assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
    # on a full board only length-1 flows can land: the row is e1
    assert matrix[0][0] == 1.0
    assert np.all(matrix[0][1:] == 0.0)
    # interior rows quote the covering chance at the target ripple size
    level = 17
    row = matrix[k - level]
    before = target_ripple(level + 1)
    for length in range(1, 9):
        assert row[length - 1] == pytest.approx(
            ripple_add_prob(length, level, before, k), abs=1e-15)
    assert build_design_matrix(6).shape == (6, 6)


@pytest.fixture(scope="module")
def fitted_small():
    target = SynthesisTarget(channel_budget=300, node_budget=100,
                             flow_budget=260)
    return target, optimize_path_length_dist(target)


def test_optimizer_satisfies_all_constraints(fitted_small):
    target, out = fitted_small
    x = np.array(out.flow_counts)
    assert out.converged
    assert x.sum() == pytest.approx(260.0, abs=1e-9)
    assert np.all(x >= -1e-9)
    density_cap = 2 * 300 * 260 / (100 * 99)
    assert x[0] <= density_cap + 1e-9
    for i in range(1, len(x)):
        assert x[i] <= 10 ** (i + 1) * 260 / 100 + 1e-9
    # monotone from length 2 onward, length 1 unconstrained
    assert np.all(x[2:] <= x[1:-1] + 1e-9)
    assert len(x) == 10
    probs = out.distribution.probabilities
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_optimizer_frozen_fit(fitted_small):
    target, out = fitted_small
    assert out.residual == pytest.approx(4.1025070606, rel=1e-6)
    # the length-1 count pins at the density cap on this board
    assert out.flow_counts[0] == pytest.approx(2 * 300 * 260 / (100 * 99),
                                               abs=1e-6)
    assert out.distribution.prob(2) == pytest.approx(0.49508410, abs=1e-6)
    assert _kkt_gap(target, out) <= 1e-6
    history = out.residual_history
    for older, newer in zip(history, history[1:]):
        assert newer <= older + 1e-9
    assert history[-1] == pytest.approx(out.residual, abs=1e-12)


def _kkt_gap(target, out, active_tol=1e-6):
    """Distance of the objective gradient from the cone of the active
    constraint normals (the flow-total multiplier takes either sign),
    relative to the size of the gradient at zero."""
    x = np.array(out.flow_counts)
    size = len(x)
    k, n = target.channel_budget, target.node_budget
    m = float(target.flow_budget)
    matrix, goal = build_design_matrix(k, size), target_vector(k)
    caps = [min(m, target.max_degree ** i * m / n) for i in range(1, size + 1)]
    caps[0] = min(caps[0], 2.0 * k * m / (n * (n - 1)))
    unit = np.eye(size)
    normals = [np.ones(size), -np.ones(size)]
    for i in range(size):
        if x[i] <= active_tol:
            normals.append(unit[i])
        if caps[i] - x[i] <= active_tol:
            normals.append(-unit[i])
    for i in range(1, size - 1):
        if x[i] - x[i + 1] <= active_tol:
            normals.append(unit[i] - unit[i + 1])
    gradient = matrix.T @ (matrix @ x - goal)
    _, gap = nnls(np.array(normals).T, gradient)
    return gap / np.linalg.norm(matrix.T @ goal)


@pytest.mark.parametrize("budgets", [(300, 100, 260), (200, 80, 250),
                                     (120, 40, 30), (120, 40, 300),
                                     (1500, 300, 900)])
def test_optimizer_meets_kkt_conditions(budgets):
    target = SynthesisTarget(*budgets)
    out = optimize_path_length_dist(target)
    assert out.converged
    assert _kkt_gap(target, out) <= 1e-6


def test_optimizer_respects_hard_length_cutoff():
    # star-shaped budget: every route is one or two hops
    out = optimize_path_length_dist(SynthesisTarget(
        channel_budget=9, node_budget=10, flow_budget=20,
        max_path_length=2))
    assert out.distribution.max_length == 2
    assert out.flow_counts[0] == pytest.approx(4.0, abs=1e-9)
    assert out.flow_counts[1] == pytest.approx(16.0, abs=1e-6)


def test_optimizer_rejects_infeasible_budget():
    with pytest.raises(ValueError, match="degree cap"):
        optimize_path_length_dist(SynthesisTarget(
            channel_budget=50, node_budget=100, flow_budget=10_000,
            max_degree=2, max_path_length=4))
    with pytest.raises(ValueError):
        SynthesisTarget(channel_budget=0, node_budget=10, flow_budget=5)
    with pytest.raises(ValueError):
        SynthesisTarget(channel_budget=10, node_budget=10, flow_budget=5,
                        max_path_length=1)


def test_flow_budget_search_beats_the_bracket_ends():
    target = SynthesisTarget(channel_budget=120, node_budget=40,
                             flow_budget=100)
    best, fit = search_flow_budget(target, 30, 300, evaluations=8)
    assert 30 <= best <= 300
    lo = optimize_path_length_dist(SynthesisTarget(120, 40, 30)).residual
    hi = optimize_path_length_dist(SynthesisTarget(120, 40, 300)).residual
    assert fit.residual <= lo
    assert fit.residual <= hi
    assert fit.flow_budget == pytest.approx(best, abs=1e-6)


def test_jdd_from_known_graphs():
    ring = jdd_from_graph(nx.cycle_graph(12))
    assert ring.pair_mass(2, 2) == pytest.approx(1.0)
    assert ring.implied_node_count(12) == pytest.approx(12.0)

    star = jdd_from_graph(nx.star_graph(9))
    assert star.pair_mass(1, 9) == pytest.approx(1.0)
    assert star.pair_mass(9, 9) == 0.0
    assert star.implied_node_count(9) == pytest.approx(10.0)

    path = jdd_from_graph(nx.path_graph(4))
    assert path.pair_mass(1, 2) == pytest.approx(2 / 3)
    assert path.pair_mass(2, 2) == pytest.approx(1 / 3)

    # a hub of degree 9 over a cap of 4 counts as degree 4, bit for bit
    clamped = synthesis._joint_degree_matrix(nx.star_graph(9), 4)
    mass = 0.0
    for _ in range(9):
        mass += 0.5 / 9
    assert clamped.max_degree == 4
    assert clamped.entries[0][3] == clamped.entries[3][0] == mass
    assert sum(map(sum, clamped.entries)) == 2 * mass


def test_neutral_mixing_is_a_product_measure():
    jdd = neutral_mixing_jdd({1: 10, 3: 4}, 3)
    q1, q3 = 10 / 22, 12 / 22
    assert jdd.pair_mass(1, 1) == pytest.approx(q1 * q1)
    assert jdd.pair_mass(3, 3) == pytest.approx(q3 * q3)
    assert jdd.pair_mass(1, 3) == pytest.approx(2 * q1 * q3)
    assert jdd.pair_mass(2, 2) == 0.0
    with pytest.raises(ValueError):
        neutral_mixing_jdd({5: 3}, 4)
    with pytest.raises(ValueError):
        neutral_mixing_jdd({0: 3}, 4)


def test_jdd_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        JointDegreeDistribution(((0.5, 0.5),))
    with pytest.raises(ValueError, match="symmetric"):
        JointDegreeDistribution(((0.1, 0.3), (0.2, 0.4)))
    with pytest.raises(ValueError, match="negative"):
        JointDegreeDistribution(((-0.1, 0.55), (0.55, 0.0)))
    with pytest.raises(ValueError, match="sums"):
        JointDegreeDistribution(((0.3, 0.1), (0.1, 0.3)))
    for bad in (((1.0, 0.0), (0.0, math.nan)), ((math.inf, 0.0), (0.0, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            JointDegreeDistribution(bad)


def test_jdd_entries_are_a_read_only_array_with_value_equality():
    # the lower triangle of the pair masses is ignored
    jdd = JointDegreeDistribution.of_pairs([[0.25, 0.5], [9.0, 0.25]])
    assert jdd.entries.dtype == np.float64
    assert jdd.entries.tolist() == [[0.25, 0.25], [0.25, 0.25]]
    assert jdd.pairs.tolist() == [[0.25, 0.5], [0.0, 0.25]]
    with pytest.raises(ValueError, match="read-only"):
        jdd.entries[0, 0] = 1.0
    assert jdd == JointDegreeDistribution(((0.25, 0.25), (0.25, 0.25)))
    assert jdd != JointDegreeDistribution(((0.5, 0.0), (0.0, 0.5)))


# SHA-256 of the matrix before and after the walk below.  The anneal is
# chaotic in the last bit, so a move that reorders any float operation
# (numpy's pairwise sum for the renormalizing total, say) changes the
# second digest and, soon after, which matrices a search visits.
MOVE_WALK_DIGESTS = (
    "3d261510866cff4909fd1c5529affbda5e48d918bce6153b1b475d81bdfa3080",
    "11890149bcb76b0ccbbfcae7c0b618833feec2c4f7a57e65c8136768fb7e0048",
)


def test_move_mass_arithmetic_is_pinned():
    target = SynthesisTarget(channel_budget=1500, node_budget=300,
                             flow_budget=900)
    jdd = synthesis._hub_and_chain_jdd(target, 120, 12, 20)
    digests = [hashlib.sha256(jdd.entries.tobytes()).hexdigest()]
    rng = random.Random(6)
    for _ in range(500):
        moved = synthesis._move_mass(jdd, rng)
        if moved is not None:
            jdd = moved
    digests.append(hashlib.sha256(jdd.entries.tobytes()).hexdigest())
    assert tuple(digests) == MOVE_WALK_DIGESTS


def test_workload_size_search_is_pinned():
    """Criterion 8's 30-evaluation search on the 1500/300/900 fit: any
    change to the wiring, the component cut or the mix's counts moves
    which matrices the anneal visits, and with them this digest."""
    target = SynthesisTarget(channel_budget=1500, node_budget=300,
                             flow_budget=900)
    fit = optimize_path_length_dist(target).distribution
    result = optimize_jdd(fit, target, seed=7, budget=30)
    assert hashlib.sha256(result.jdd.entries.tobytes()).hexdigest() \
        == "ec155bafab24b541ff8968e6d1d5dbc7a16bceda1c3b63b088d9cbf924dc8f6b"
    assert repr(result.distance) == "0.049996109003689844"
    assert result.evaluations == 30


def test_sample_edge_counts_is_stratified():
    jdd = neutral_mixing_jdd({1: 10, 3: 4}, 3)
    counts = sample_edge_counts(jdd, 200, seed=3)
    total = 0
    for j in sorted(counts):
        for l, c in counts[j].items():
            if l < j:
                continue
            if j == l:
                assert c % 2 == 0
                edges = c // 2
            else:
                assert counts[l][j] == c
                edges = c
            # whole expectations are taken outright, so any cell sits
            # within the multinomial leftover of its mean
            assert abs(edges - 200 * jdd.pair_mass(j, l)) < 2.0
            total += edges
    assert total == 200


def test_validate_agrees_with_networkx():
    histograms = [
        {1: 10, 3: 4},
        {2: 12, 3: 8, 5: 4},
        {1: 6, 2: 6, 4: 6},
        {3: 15},
        {1: 20, 6: 5},
    ]
    checked = 0
    for h, hist in enumerate(histograms):
        jdd = neutral_mixing_jdd(hist, 6)
        for seed in range(3):
            counts = sample_edge_counts(jdd, 40 + 30 * h, seed=seed)
            ok, reasons = validate_jdd_sequence(counts)
            assert ok == nx.is_valid_joint_degree(counts), (hist, seed,
                                                            reasons)
            assert ok or reasons
            fixed = patch_jdd_sequence(counts)
            assert validate_jdd_sequence(fixed)[0]
            assert nx.is_valid_joint_degree(fixed)
            checked += 1
    assert checked == 15


def test_patch_only_ever_adds_edges():
    jdd = neutral_mixing_jdd({2: 12, 3: 8, 5: 4}, 6)
    counts = sample_edge_counts(jdd, 70, seed=11)
    fixed = patch_jdd_sequence(counts)
    for j, row in counts.items():
        for l, c in row.items():
            assert fixed[j][l] >= c
    for j, row in fixed.items():
        assert row.get(j, 0) % 2 == 0
        assert sum(row.values()) % j == 0
    # two nodes cannot hold 10^8 within-class edges, and each round of
    # the patch adds one node, so it runs out of rounds and says so
    huge = 10 ** 8
    with pytest.raises(RuntimeError, match="still crowded"):
        patch_jdd_sequence({huge: {huge: 2 * huge}})


@given(st.dictionaries(st.integers(1, 6), st.integers(1, 12),
                       min_size=1, max_size=4),
       st.integers(10, 80))
@settings(max_examples=40, deadline=None)
def test_patched_sequences_are_always_realizable(hist, channels):
    jdd = neutral_mixing_jdd(hist, 6)
    counts = sample_edge_counts(jdd, channels, seed=7)
    fixed = patch_jdd_sequence(counts)
    assert nx.is_valid_joint_degree(fixed)


def test_synthesize_graph_shares_collateral_and_connects():
    jdd = neutral_mixing_jdd({2: 30, 3: 30, 4: 10}, 6)
    network = synthesize_graph(jdd, 105, seed=5)
    assert sum(network.capacities) == Fraction(10_000)
    assert len(set(network.capacities)) == 1
    # the largest-component cut leaves one connected piece
    adj = network.adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert len(seen) == network.node_count
    again = synthesize_graph(jdd, 105, seed=5)
    assert again.edges == network.edges


def test_synthesized_graph_tracks_the_requested_mix():
    jdd = neutral_mixing_jdd({2: 30, 3: 30, 4: 10}, 6)
    network = synthesize_graph(jdd, 105, seed=5)
    adj = network.adjacency()
    graph = nx.Graph((u, v) for u in range(network.node_count)
                     for v in adj[u] if u < v)
    back = jdd_from_graph(graph)
    top = max(back.max_degree, jdd.max_degree)

    def mass(matrix, a, b):
        if a <= matrix.max_degree and b <= matrix.max_degree:
            return matrix.pair_mass(a, b)
        return 0.0

    gap = sum(abs(mass(jdd, a, b) - mass(back, a, b))
              for a in range(1, top + 1) for b in range(a, top + 1))
    assert gap <= 0.10


def test_distribution_distance_kinds():
    a = PathLengthDistribution((1.0,))
    b = PathLengthDistribution((0.5, 0.5))
    assert distribution_distance(a, b, "l1") == pytest.approx(1.0)
    assert distribution_distance(a, b, "l2") == pytest.approx(
        math.sqrt(0.5))
    assert distribution_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        distribution_distance(a, b, "linf")


def test_matched_synthesis_keeps_the_best_wiring():
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    target_dist = exact_path_length_distribution(
        synthesize_graph(jdd, 100, seed=77))
    network = synthesize_matched(jdd, target_dist, target, seed=9,
                                 restarts=4)
    picked = distribution_distance(exact_path_length_distribution(network),
                                   target_dist, "l1")
    gaps = []
    for r in range(4):
        candidate = synthesize_graph(jdd, 100, seed=9 + 104_729 * r)
        gaps.append(distribution_distance(
            exact_path_length_distribution(candidate), target_dist, "l1"))
    assert picked == pytest.approx(min(gaps), abs=1e-12)
    assert picked <= 0.15
    with pytest.raises(ValueError):
        synthesize_matched(jdd, target_dist, target, seed=9, restarts=0)


def test_matched_synthesis_keeps_the_first_wiring_without_a_lower_gap():
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    flat = PathLengthDistribution((0.2, 0.5, 0.3))
    with mock.patch.object(synthesis, "distribution_distance",
                           lambda a, b, kind: math.nan):
        network = synthesize_matched(jdd, flat, target, seed=9, restarts=3)
    assert network == synthesize_graph(jdd, 100, seed=9)


def test_synthesized_networks_have_python_int_edges():
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    flat = PathLengthDistribution((0.2, 0.5, 0.3))
    for network in (synthesize_graph(jdd, 100, seed=9),
                    synthesize_matched(jdd, flat, target, seed=9,
                                       restarts=3)):
        assert network.edges
        assert all(type(edge) is tuple and len(edge) == 2
                   and all(type(end) is int for end in edge)
                   for edge in network.edges)


def test_jdd_search_recovers_a_self_target():
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    target_dist = exact_path_length_distribution(
        synthesize_graph(jdd, 100, seed=77))
    result = optimize_jdd(target_dist, target, seed=3, budget=30,
                          eval_seeds=2, match_tol=0.2, initial=jdd)
    assert result.status == MATCHED
    assert result.distance <= 0.15
    assert result.evaluations <= 30
    assert result.jdd.max_degree == 8


def test_jdd_search_accepts_only_matching_initial_size():
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    wrong = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 6)
    flat = PathLengthDistribution((0.2, 0.5, 0.3))
    with pytest.raises(ValueError, match="degree cap"):
        optimize_jdd(flat, target, seed=1, budget=2, initial=wrong)


def test_jdd_search_status_reflects_tolerance():
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    far = PathLengthDistribution((1.0,))
    result = optimize_jdd(far, target, seed=5, budget=3, eval_seeds=1,
                          match_tol=1e-6, initial=jdd)
    assert result.status == BUDGET_EXHAUSTED
    assert result.distance > 1e-6


def test_distribution_csv_round_trip():
    dist = PathLengthDistribution((0.25, 0.5, 0.0, 0.25))
    text = write_distribution_csv(dist)
    assert text.splitlines()[0] == "d,probability"
    back = read_distribution_csv(text)
    assert back.probabilities == pytest.approx(dist.probabilities,
                                               abs=1e-12)
    with pytest.raises(ValueError):
        read_distribution_csv("length,probability\n1,1.0\n")


def test_jdd_csv_round_trip():
    jdd = neutral_mixing_jdd({1: 10, 3: 4, 5: 2}, 5)
    back = read_jdd_csv(write_jdd_csv(jdd))
    assert back.max_degree == jdd.max_degree
    for a in range(1, 6):
        for b in range(a, 6):
            assert back.pair_mass(a, b) == pytest.approx(
                jdd.pair_mass(a, b), abs=1e-12)
    with pytest.raises(ValueError, match="row 2"):
        read_jdd_csv("0.5\n0.25,0.25,0.1\n")


def _bfs_fans(node_count, edges):
    """Plain BFS from every source in turn: (source, distances to the
    other reachable nodes in queue order)."""
    adj = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for source in range(node_count):
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        yield source, [dist[v] for v in queue[1:]]


def _histogram(lengths):
    counts = [0] * max(lengths)
    for d in lengths:
        counts[d - 1] += 1
    return tuple(c / len(lengths) for c in counts)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1,
                         max_size=2 * n))
    return n, sorted(edges)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_exact_mix_matches_plain_bfs(graph):
    n, edges = graph
    network = make_network(n, edges, [Fraction(1)] * len(edges))
    lengths = [d for _, fan in _bfs_fans(n, edges) for d in fan]
    assert exact_path_length_distribution(network).probabilities \
        == _histogram(lengths)


@st.composite
def wide_graphs(draw):
    """2-200 nodes in several components, isolated nodes included, with
    labels shuffled so components straddle 64-bit words."""
    sizes = draw(st.lists(st.integers(1, 70), min_size=1, max_size=6))
    while sum(sizes) > 199:
        sizes.pop()
    sizes.append(1)
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    edges = set()
    first = 0
    for size in sizes:
        members = range(first, first + size)
        for i in members[1:]:
            if draw(st.integers(0, 9)):  # mostly a spanning tree
                j = draw(st.integers(first, i - 1))
                edges.add((j, i))
        extra = draw(st.integers(0, size))
        for _ in range(extra if size > 1 else 0):
            u, v = draw(st.lists(st.sampled_from(members), min_size=2,
                                 max_size=2, unique=True))
            edges.add((min(u, v), max(u, v)))
        first += size
    edges = sorted((min(label[u], label[v]), max(label[u], label[v]))
                   for u, v in edges)
    return n, edges


@given(wide_graphs())
@settings(max_examples=60, deadline=None)
def test_level_histograms_match_bfs_on_wide_graphs(graph):
    n, edges = graph
    lengths = [d for _, fan in _bfs_fans(n, edges) for d in fan]
    if lengths:
        network = make_network(n, edges, [Fraction(1)] * len(edges))
        assert exact_path_length_distribution(network).probabilities \
            == _histogram(lengths)


@given(wide_graphs())
@settings(max_examples=60, deadline=None)
def test_full_pair_mix_reads_edge_arrays_and_tuple_lists_alike(graph):
    n, edges = graph
    assume(edges)
    as_array = synthesis._full_pair_mix(n, np.array(edges, dtype=np.int64))
    assert as_array.probabilities \
        == synthesis._full_pair_mix(n, edges).probabilities


@pytest.mark.parametrize("node_count,edges,kept", [
    # node 0 alone, then two components of three: the one holding
    # node 1, the lower id, is kept
    (7, [(1, 4), (4, 5), (2, 6), (3, 6)], [1, 4, 5]),
    # a tie won by the component of node 0, whose edges are listed
    # from its highest node down
    (6, [(5, 3), (3, 0), (4, 1), (1, 2)], [0, 3, 5]),
    # a later, strictly larger component wins over the first one
    (6, [(0, 1), (2, 3), (3, 4), (4, 5)], [2, 3, 4, 5]),
    # a lone node beats nothing, and ties between lone nodes go to node 0
    (3, [], [0]),
])
def test_largest_component_keeps_what_networkx_keeps(node_count, edges,
                                                     kept):
    graph = nx.Graph()
    graph.add_nodes_from(range(node_count))
    graph.add_edges_from(edges)
    expected = sorted(max(nx.connected_components(graph), key=len))
    adj = [dict.fromkeys(graph.adj[u]) for u in graph]
    assert synthesis._largest_component(adj) == expected == kept


def _realized(jdd, channels, seed):
    """`_realize_edges` with its edge array checked and read back as a
    list of tuples."""
    node_count, edges = synthesis._realize_edges(jdd, channels, seed)
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    return node_count, [tuple(edge) for edge in edges.tolist()]


def test_realize_edges_leaves_no_reference_cycle():
    jdd = neutral_mixing_jdd({2: 30, 3: 30, 4: 10}, 6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        realized = _realized(jdd, 105, seed=5)
        # everything was freed by reference counting alone
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    network = synthesize_graph(jdd, 105, seed=5)
    assert realized == (network.node_count, list(network.edges))


def _networkx_realization(jdd, channels, seed):
    """Patched counts, then the wiring adjacency and the largest
    component's edges as networkx builds them from those counts."""
    counts = patch_jdd_sequence(sample_edge_counts(jdd, channels, seed))
    graph = nx.joint_degree_graph(counts, seed=seed)
    keep = sorted(max(nx.connected_components(graph), key=len))
    relabel = {old: new for new, old in enumerate(keep)}
    edges = sorted((relabel[u], relabel[v]) for u in keep
                   for v in graph.adj[u] if u < v)
    return counts, [list(graph.adj[u]) for u in graph], (len(keep), edges)


@st.composite
def degree_mixes(draw):
    """Joint degree mixes on a few random cells, within-class ones
    included, with caps up to 7 so small classes wire densely."""
    cap = draw(st.integers(1, 7))
    cells = [(j, l) for j in range(cap) for l in range(j, cap)]
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6,
                           unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(chosen),
                            max_size=len(chosen)))
    matrix = [[0.0] * cap for _ in range(cap)]
    for (j, l), w in zip(chosen, weights):
        mass = w / sum(weights)
        if j == l:
            matrix[j][j] += mass
        else:
            matrix[j][l] += mass / 2.0
            matrix[l][j] += mass / 2.0
    return JointDegreeDistribution(tuple(tuple(row) for row in matrix))


@given(degree_mixes())
@settings(max_examples=80, deadline=None)
def test_pair_masses_round_trip_bit_for_bit(jdd):
    # degree_mixes splits each pair's mass cell by cell in a loop
    assert JointDegreeDistribution.of_pairs(jdd.pairs) == jdd


@given(degree_mixes(), st.integers(1, 150), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_realization_is_networkx_construction(jdd, channels, seed):
    counts, wiring, realized = _networkx_realization(jdd, channels, seed)
    # same neighbours in the same insertion order, node by node
    assert [list(row) for row in
            synthesis._wire_joint_degrees(counts, seed)] == wiring
    assert _realized(jdd, channels, seed) == realized


@pytest.mark.parametrize("degree,channels", [(3, 15), (4, 12), (3, 60)])
def test_realization_matches_networkx_through_neighbour_switches(
        degree, channels):
    """Regular within-class mixes force switches, including ones that
    must skip the partner node holding its last stub."""
    matrix = [[0.0] * 6 for _ in range(6)]
    matrix[degree - 1][degree - 1] = 1.0
    jdd = JointDegreeDistribution(tuple(tuple(row) for row in matrix))
    switch = synthesis._switch_neighbour
    calls = []

    def spy(adj, w, unsat, residual, avoid=None):
        calls.append(avoid is not None and residual[avoid] <= 1)
        return switch(adj, w, unsat, residual, avoid)

    with mock.patch.object(synthesis, "_switch_neighbour", spy):
        for seed in range(10):
            assert _realized(jdd, channels, seed) \
                == _networkx_realization(jdd, channels, seed)[2]
    assert any(calls)


def test_workload_size_realization_is_networkx_construction():
    """Criterion 8's warm start at 1500/300/900, wired at the training
    seeds of its search seed 7: classes of tens to hundreds of nodes,
    where the draws take 5-8 bits."""
    target = SynthesisTarget(channel_budget=1500, node_budget=300,
                             flow_budget=900)
    warm = synthesis._initial_guess(
        optimize_path_length_dist(target).distribution, target)
    for seed in (7 * 65537 + 211 * s for s in range(3)):
        counts, wiring, realized = _networkx_realization(warm, 1500, seed)
        assert max(sum(row.values()) // k for k, row in counts.items()) > 64
        assert [list(row) for row in
                synthesis._wire_joint_degrees(counts, seed)] == wiring
        assert _realized(warm, 1500, seed) == realized


def test_wiring_refuses_a_pair_with_an_empty_class():
    # one stub owed to each class, too few for a degree-2 or degree-3 node
    with pytest.raises(ValueError, match="has no nodes"):
        synthesis._wire_joint_degrees({2: {3: 1}, 3: {2: 1}}, seed=0)


def test_jdd_search_rejects_bad_settings():
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    flat = PathLengthDistribution((0.2, 0.5, 0.3))
    for bad in ({"budget": 0}, {"budget": -5}, {"eval_seeds": 0},
                {"match_tol": -0.1}, {"match_tol": math.nan},
                {"match_tol": math.inf}):
        with pytest.raises(ValueError):
            optimize_jdd(flat, target, seed=1, **bad)


def test_stalled_search_stops_one_window_after_its_best(monkeypatch):
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    target_dist = exact_path_length_distribution(
        synthesize_graph(jdd, 100, seed=77))
    mixes = []
    real_mix = synthesis._full_pair_mix

    def traced(node_count, edges):
        mixes.append((real_mix(node_count, edges), node_count, len(edges)))
        return mixes[-1][0]

    monkeypatch.setattr(synthesis, "_full_pair_mix", traced)
    budget = 20 * synthesis.STALL_WINDOW
    stopped = optimize_jdd(target_dist, target, seed=3, budget=budget,
                           eval_seeds=1, initial=jdd)
    monkeypatch.setattr(synthesis, "_full_pair_mix", real_mix)
    low_n, high_n = synthesis.REALIZED_NODE_BAND
    low_k, high_k = synthesis.REALIZED_EDGE_BAND
    energies = [
        distribution_distance(mix, target_dist)
        + 3.0 * (max(0.0, low_n - nodes / 72)
                 + max(0.0, nodes / 72 - high_n)
                 + max(0.0, low_k - edges / 100)
                 + max(0.0, edges / 100 - high_k))
        # one per evaluation, then the two holdout energies
        for mix, nodes, edges in mixes[:-2]]
    assert len(energies) == stopped.evaluations < budget
    last_best = energies.index(min(energies)) + 1
    assert stopped.evaluations == last_best + synthesis.STALL_WINDOW
    capped = optimize_jdd(target_dist, target, seed=3,
                          budget=stopped.evaluations, eval_seeds=1,
                          initial=jdd)
    assert capped.evaluations == stopped.evaluations
    assert capped.jdd == stopped.jdd
    assert capped.distance == stopped.distance


def test_unimproved_search_scores_the_start_once_on_the_holdout(monkeypatch):
    jdd = neutral_mixing_jdd({2: 20, 3: 25, 4: 15}, 8)
    target = SynthesisTarget(channel_budget=100, node_budget=72,
                             flow_budget=80, jdd_max_degree=8)
    target_dist = PathLengthDistribution((0.05, 0.2, 0.3, 0.25, 0.2))
    seeds = []
    real_realize = synthesis._realize_edges

    def counted(jdd, channel_budget, seed):
        seeds.append(seed)
        return real_realize(jdd, channel_budget, seed)

    monkeypatch.setattr(synthesis, "_realize_edges", counted)
    result = optimize_jdd(target_dist, target, seed=3, budget=1,
                          initial=jdd)
    assert result.jdd is jdd and result.evaluations == 1
    # three training seeds, then the three holdout seeds once
    assert len(seeds) == len(set(seeds)) == 6
