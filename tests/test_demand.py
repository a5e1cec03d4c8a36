import random

import pytest

from creditnet import demand, fileio
from creditnet.model import make_network, path_nodes


def _triangle():
    return make_network(3, [(0, 1), (0, 2), (1, 2)], [10, 10, 10])


def _line(n):
    return make_network(n, [(i, i + 1) for i in range(n - 1)], [5] * (n - 1))


def test_saturated_uniform_demand_covers_all_pairs():
    net = _triangle()
    matrix = demand.sample_demand(net, demand.DemandSpec(pair_count=6, seed=0))
    assert sorted(matrix) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_degenerate_skew_also_saturates():
    net = _triangle()
    spec = demand.DemandSpec(pair_count=6, mode=demand.SKEWED,
                             heavy_fraction=1.0, seed=0)
    matrix = demand.sample_demand(net, spec)
    assert len(matrix) == 6
    assert len(set(matrix.pairs)) == 6


def test_overfull_demand_rejected():
    with pytest.raises(ValueError):
        demand.sample_demand(_triangle(), demand.DemandSpec(pair_count=7))
    # every draw comes from the 2 heavy nodes, which hold only 2 ordered pairs
    heavy_only = demand.DemandSpec(pair_count=10, mode=demand.SKEWED,
                                   heavy_fraction=0.1, heavy_probability=1.0)
    with pytest.raises(ValueError, match="heavy nodes"):
        demand.sample_demand(_line(20), heavy_only)


def test_demand_matrix_validation():
    with pytest.raises(ValueError):
        demand.DemandMatrix(pairs=((1, 1),))
    with pytest.raises(ValueError):
        demand.DemandMatrix(pairs=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        demand.DemandSpec(pair_count=4, mode="Bursty")
    with pytest.raises(ValueError):
        demand.DemandSpec(pair_count=4, heavy_fraction=0.0)


def test_sampling_is_deterministic():
    net = _line(30)
    spec = demand.DemandSpec(pair_count=40, mode=demand.SKEWED, seed=5)
    assert demand.sample_demand(net, spec) == demand.sample_demand(net, spec)
    other = demand.DemandSpec(pair_count=40, mode=demand.SKEWED, seed=6)
    assert demand.sample_demand(net, other) != demand.sample_demand(net, spec)


def test_skewed_sender_share_matches_mix():
    # The heavy set is the first thing the sampler's rng draws, so the
    # test can reconstruct it.  Small matrices keep the distinct-pair
    # rejection from distorting the draw distribution.
    net = make_network(500, [(0, v) for v in range(1, 500)], [1] * 499)
    spec_template = dict(pair_count=100, mode=demand.SKEWED)
    hits = total = 0
    for seed in range(1000):
        heavy = set(random.Random(seed).sample(range(500), 50))
        matrix = demand.sample_demand(
            net, demand.DemandSpec(seed=seed, **spec_template))
        for sender, _ in matrix:
            hits += sender in heavy
            total += 1
    assert total == 100_000
    assert abs(hits / total - 0.70) < 0.01


def test_line_pair_routes_through_middle():
    net = _line(3)
    matrix = demand.DemandMatrix(pairs=((0, 2),))
    paths = demand.build_paths(net, matrix)
    assert path_nodes(net, paths[0]) == [0, 1, 2]


def test_star_leaves_route_through_hub():
    net = make_network(5, [(0, v) for v in range(1, 5)], [1] * 4)
    matrix = demand.DemandMatrix(pairs=((1, 2), (4, 3)))
    paths = demand.build_paths(net, matrix)
    assert path_nodes(net, paths[0]) == [1, 0, 2]
    assert path_nodes(net, paths[1]) == [4, 0, 3]


def test_square_tie_breaks_toward_low_ids():
    net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1] * 4)
    matrix = demand.DemandMatrix(pairs=((1, 3),))
    paths = demand.build_paths(net, matrix)
    assert path_nodes(net, paths[0]) == [1, 0, 3]


def test_reversed_pair_rides_the_same_channels():
    # Two disjoint three-hop routes whose interior ids cross: a one-sided
    # breadth-first tie-break would pick different channels per direction.
    edges = [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)]
    net = make_network(6, edges, [1] * 6)
    matrix = demand.DemandMatrix(pairs=((0, 5), (5, 0)))
    paths = demand.build_paths(net, matrix)
    assert path_nodes(net, paths[0]) == [0, 1, 4, 5]
    assert path_nodes(net, paths[1]) == [5, 4, 1, 0]


def test_reversed_pairs_symmetric_on_random_graphs():
    from creditnet import topology
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=40,
                                 edge_budget=90, seed=13)
    net = topology.gen_topology(spec)
    rng = random.Random(99)
    pairs = []
    while len(pairs) < 30:
        s, r = rng.randrange(40), rng.randrange(40)
        if s != r and (s, r) not in pairs and (r, s) not in pairs:
            pairs.append((s, r))
    both = demand.DemandMatrix(
        pairs=tuple(pairs) + tuple((r, s) for s, r in pairs))
    paths = demand.build_paths(net, both)
    for i in range(30):
        fwd = path_nodes(net, paths[i])
        rev = path_nodes(net, paths[30 + i])
        assert rev == fwd[::-1]


def test_unroutable_pair_raises():
    net = make_network(4, [(0, 1), (2, 3)], [1, 1])
    matrix = demand.DemandMatrix(pairs=((0, 2),))
    with pytest.raises(ValueError):
        demand.build_paths(net, matrix)


def test_demand_file_round_trip():
    net = _line(10)
    matrix = demand.sample_demand(net, demand.DemandSpec(pair_count=12, seed=2))
    text = fileio.write_demand(matrix.pairs)
    assert fileio.read_demand(text) == list(matrix.pairs)
