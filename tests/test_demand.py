import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import demand, fileio
from creditnet.model import (PathSet, make_network, path_from_nodes,
                             path_nodes)


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
    # every draw comes from the 9 light nodes, which hold only 72
    light_only = demand.DemandSpec(pair_count=80, mode=demand.SKEWED,
                                   heavy_probability=0.0)
    with pytest.raises(ValueError, match="72 between 9 light nodes"):
        demand.sample_demand(_line(10), light_only)


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


def test_skewed_draw_is_unchanged_for_a_fixed_seed():
    # recorded draw: light picks index the light nodes in id order, so a
    # reordered light pool or an extra rng call changes these pairs
    net = _line(30)
    spec = demand.DemandSpec(pair_count=12, mode=demand.SKEWED,
                             heavy_fraction=0.2, seed=11)
    assert demand.sample_demand(net, spec).pairs == (
        (29, 3), (27, 25), (29, 15), (29, 14), (27, 24), (29, 18),
        (17, 25), (25, 29), (2, 10), (18, 14), (14, 17), (14, 0))


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
    # node ids outside 0..3: a negative one must not alias a real node,
    # and one past 64 bits is named, not overflowed
    for s, r in ((-2, -1), (0, 4), (-1, 2), (0, 2 ** 64)):
        with pytest.raises(ValueError, match=rf"pair \({s}, {r}\)"):
            demand.build_paths(net, demand.DemandMatrix(pairs=((s, r),)))


def test_demand_file_round_trip():
    net = _line(10)
    matrix = demand.sample_demand(net, demand.DemandSpec(pair_count=12, seed=2))
    text = fileio.write_demand(matrix.pairs)
    assert fileio.read_demand(text) == list(matrix.pairs)


def _reference_paths(network, matrix):
    """Routing by one plain BFS per distinct root (the higher endpoint)
    and a walk from the lower endpoint that always steps to the first
    neighbour, in id order, one hop closer to the root: a list of Paths."""
    adj = [sorted(nbrs) for nbrs in network.adjacency()]
    n = network.node_count
    by_root = {}
    for index, (s, r) in enumerate(matrix):
        if not (0 <= s < n and 0 <= r < n):
            raise ValueError(f"pair ({s}, {r}) names a node outside "
                             f"0..{n - 1}")
        by_root.setdefault(max(s, r), []).append(index)
    walks = [None] * len(matrix)
    for root, indices in by_root.items():
        dist = [None] * n
        dist[root] = 0
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for index in indices:
            walk = [min(matrix.pairs[index])]
            if dist[walk[0]] is None:
                continue
            while walk[-1] != root:
                here = dist[walk[-1]]
                walk.append(next(v for v in adj[walk[-1]]
                                 if dist[v] == here - 1))
            walks[index] = walk
    routes = []
    for (s, r), walk in zip(matrix, walks):
        if walk is None:
            raise ValueError(f"no route between {s} and {r}")
        routes.append(path_from_nodes(network, walk if s < r else walk[::-1]))
    return routes


def _assert_routes_match(paths, reference):
    """build_paths's arrays equal the reference Paths' arrays, and its
    Paths, read back off those arrays, equal the reference Paths."""
    expected = PathSet.of(reference)
    for name in ("source", "destination", "indptr", "edge", "sign"):
        assert getattr(paths, name).tolist() == getattr(expected, name).tolist(), name
    assert list(paths) == reference


@st.composite
def routing_cases(draw):
    """A graph of 2-150 nodes (split into components with isolated nodes,
    a star with a few chords, or a preferential-attachment graph) and up
    to 400 distinct pairs, some with their reverse and, sometimes, a few
    naming nodes outside the graph."""
    family = draw(st.sampled_from(["components", "star", "attachment"]))
    n = draw(st.integers(2, 150))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = set()
    if family == "attachment":
        attach = rng.randint(1, min(3, n - 1))
        graph = nx.barabasi_albert_graph(n, attach, seed=rng.randrange(2 ** 32))
        edges = set(graph.edges())
    elif family == "star":
        hub = rng.randrange(n)
        edges = {(hub, v) for v in range(n) if v != hub and rng.random() < 0.9}
        for _ in range(rng.randrange(n // 4 + 1)):
            edges.add(tuple(rng.sample(range(n), 2)))
    else:
        label = list(range(n))
        rng.shuffle(label)
        first = 0
        while first < n:
            size = rng.randint(1, n - first)
            for i in range(first + 1, first + size):
                edges.add((label[rng.randrange(first, i)], label[i]))
            for _ in range(rng.randrange(size) if size > 2 else 0):
                u, v = rng.sample(range(first, first + size), 2)
                edges.add((label[u], label[v]))
            first += size
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    pairs = {}
    for _ in range(draw(st.integers(0, 400))):
        s, r = rng.sample(range(n), 2)
        pairs[(s, r)] = None
        if rng.random() < 0.3:
            pairs[(r, s)] = None
    pairs = list(pairs)
    if rng.random() < 0.2:
        for bad in rng.sample([(-1, 0), (n, 1), (0, n + 2), (-3, -2)], 2):
            pairs.insert(rng.randint(0, len(pairs)), bad)
    return n, edges, pairs


@given(routing_cases())
@settings(max_examples=80, deadline=None)
def test_routes_match_plain_bfs_reference(case):
    n, edges, pairs = case
    net = make_network(n, edges, [1] * len(edges))
    matrix = demand.DemandMatrix(pairs=tuple(pairs))
    try:
        _reference_paths(net, matrix)
    except ValueError as error:
        # the first bad pair in demand order, out-of-range ones first
        with pytest.raises(ValueError) as raised:
            demand.build_paths(net, matrix)
        assert str(raised.value) == str(error)
        graph = nx.Graph(edges)
        graph.add_nodes_from(range(n))
        component = {v: k for k, part in enumerate(nx.connected_components(graph))
                     for v in part}
        matrix = demand.DemandMatrix(pairs=tuple(
            (s, r) for s, r in pairs
            if s in component and r in component and component[s] == component[r]))
    paths = demand.build_paths(net, matrix)
    _assert_routes_match(paths, _reference_paths(net, matrix))
    for path in paths:
        assert path_from_nodes(net, path_nodes(net, path)) == path


def test_routes_cross_a_word_of_roots():
    # 130 distinct roots on a preferential-attachment graph: three blocks
    graph = nx.barabasi_albert_graph(150, 2, seed=3)
    net = make_network(150, list(graph.edges()), [1] * graph.number_of_edges())
    pairs = tuple((v, v * 37 % 97 % v) for v in range(20, 150)) \
        + tuple((v * 37 % 97 % v, v) for v in range(20, 150))
    matrix = demand.DemandMatrix(pairs=pairs)
    assert len({max(p) for p in pairs}) == 130
    _assert_routes_match(demand.build_paths(net, matrix),
                         _reference_paths(net, matrix))
