import hashlib
import math
import random
import re
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import demand, fileio, topology
from creditnet.model import PathSet, make_network


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


def _reference_sample(network, spec):
    """The sampler as a per-draw loop, as written before it read the rng's
    words in bulk: the draws sample_demand must give, bit for bit."""
    n = network.node_count
    if spec.pair_count > n * (n - 1):
        raise ValueError(
            f"cannot place {spec.pair_count} distinct pairs among "
            f"{n * (n - 1)} possible ones")
    rng = random.Random(spec.seed)

    if spec.mode == demand.SKEWED:
        heavy_count = max(1, round(spec.heavy_fraction * n))
        # A pool picked with certainty holds every draw; with no light
        # nodes the heavy pool is all n nodes, checked above.
        for certain, kind, size in ((1.0, "heavy", heavy_count),
                                    (0.0, "light", n - heavy_count)):
            pairs = size * (size - 1)
            if (spec.heavy_probability == certain and size
                    and spec.pair_count > pairs):
                raise ValueError(f"cannot place {spec.pair_count} distinct pairs "
                                 f"among the {pairs} between {size} {kind} nodes")
        heavy = rng.sample(range(n), heavy_count)
        heavy_set = set(heavy)
        light = [v for v in range(n) if v not in heavy_set]

        def draw_node():
            pool = heavy
            if light and rng.random() >= spec.heavy_probability:
                pool = light
            return pool[rng.randrange(len(pool))]
    else:
        def draw_node():
            return rng.randrange(n)

    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(chosen) < spec.pair_count:
        s = draw_node()
        r = draw_node()
        if s == r or (s, r) in seen:
            continue
        seen.add((s, r))
        chosen.append((s, r))
    return demand.DemandMatrix(pairs=tuple(chosen))


@st.composite
def demand_cases(draw):
    """A node count in 2..70 (powers of two and one past them often), a
    mode, and a pair count up to n(n - 1). Skewed draws with two pools and
    a split heavy_probability stay at or below half the pairs and inside
    [0.2, 0.8], where the loop above finishes quickly."""
    n = draw(st.one_of(st.integers(2, 70),
                       st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65])))
    possible = n * (n - 1)
    mode = draw(st.sampled_from(demand.MODES))
    heavy_fraction = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    heavy_probability = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                       st.floats(0.2, 0.8)))
    heavy_count = max(1, round(heavy_fraction * n))
    split = mode == demand.SKEWED and heavy_count < n and 0 < heavy_probability < 1
    top = possible // 2 if split else possible
    pair_count = draw(st.one_of(st.integers(0, top), st.just(top)))
    seed = draw(st.one_of(st.integers(-2 ** 40, 2 ** 40), st.integers(2 ** 32, 2 ** 70)))
    return n, demand.DemandSpec(pair_count=pair_count, mode=mode,
                                heavy_fraction=heavy_fraction,
                                heavy_probability=heavy_probability, seed=seed)


def _assert_same_draw(n, spec):
    net = make_network(n, [], [])
    try:
        expected = _reference_sample(net, spec)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            demand.sample_demand(net, spec)
        assert str(raised.value) == str(error)
        return
    matrix = demand.sample_demand(net, spec)
    assert matrix == expected
    assert matrix.pairs == expected.pairs


@given(demand_cases())
@settings(max_examples=150, deadline=None)
def test_bulk_draws_equal_the_per_draw_loop(case):
    _assert_same_draw(*case)


def test_coin_ties_follow_random():
    # heavy_probability equal to the first draw's random(), and one float
    # above it: the comparison turns on the exact value of the coin
    n = 20
    for seed in range(20):
        rng = random.Random(seed)
        rng.sample(range(n), 2)
        coin = rng.random()
        for heavy_probability in (coin, math.nextafter(coin, 1.0)):
            _assert_same_draw(n, demand.DemandSpec(
                pair_count=30, mode=demand.SKEWED, heavy_fraction=0.1,
                heavy_probability=heavy_probability, seed=seed))


@pytest.mark.parametrize("n, mode, heavy_fraction", [
    (9, demand.UNIFORM, 0.1), (17, demand.SKEWED, 0.2), (16, demand.SKEWED, 1.0)])
def test_draws_carry_across_many_small_reads(n, mode, heavy_fraction):
    # reads of 80 words end inside draws and inside pairs, and a saturated
    # demand takes many of them
    with mock.patch.object(demand, "_MAX_CHUNK_WORDS", 80):
        for pair_count in (1, n * (n - 1) // 3, n * (n - 1)):
            _assert_same_draw(n, demand.DemandSpec(
                pair_count=pair_count, mode=mode, heavy_fraction=heavy_fraction,
                heavy_probability=0.6, seed=pair_count))


@pytest.mark.parametrize("pairs, message", [
    (((0, 1), (1, 1), (2, 2)), "node 1 cannot pay itself"),
    (((0, 1), (2, 3), (1, 0), (2, 3), (0, 1)), r"duplicate pair \(2, 3\)"),
    (((0, 1), (3, 3), (0, 1)), "node 3 cannot pay itself"),
    (((0, 1), (0, 2 ** 64)),
     r"pair \(0, 18446744073709551616\) names a node outside the int64 range"),
    (((-3, 2 ** 62), (1, 2), (-3, 2 ** 62)),
     r"duplicate pair \(-3, 4611686018427387904\)"),
])
def test_demand_matrix_names_the_first_bad_pair(pairs, message):
    with pytest.raises(ValueError, match=message):
        demand.DemandMatrix(pairs)


def test_demand_matrix_holds_read_only_arrays():
    matrix = demand.DemandMatrix(((3, 1), (1, 3), (-2, 2 ** 62)))
    for array in (matrix.source, matrix.destination):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert matrix.source.tolist() == [3, 1, -2]
    assert matrix.destination.tolist() == [1, 3, 2 ** 62]
    assert list(matrix) == [(3, 1), (1, 3), (-2, 2 ** 62)]
    assert all(type(v) is int for pair in matrix for v in pair)
    assert matrix == demand.DemandMatrix(np.array(matrix.pairs))
    assert matrix != demand.DemandMatrix(matrix.pairs[:2])
    assert len(demand.DemandMatrix(())) == 0


@pytest.mark.parametrize("pairs, bad", [
    ([(0, 1.5), (2, 3.9)], "(0, 1.5)"),
    ([(0, 1), (2, 3.9)], "(2, 3.9)"),
    (np.array([[4.0, 1.0], [0.25, 2.0]]), "(0.25, 2.0)"),
    ([(0, "3")], "(0, '3')"),
], ids=["floats", "second pair", "float array", "string"])
def test_demand_matrix_refuses_node_ids_that_are_not_integers(pairs, bad):
    message = re.escape(f"pair {bad} names a node id that is not an integer")
    with pytest.raises(ValueError, match=message):
        demand.DemandMatrix(pairs)
    # an integral float is the same node
    assert demand.DemandMatrix([(0, 2.0), (np.int32(1), 2)]).pairs == ((0, 2), (1, 2))


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_pair_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="pair_count must be an integer"):
        demand.DemandSpec(pair_count=count)
    assert demand.DemandSpec(pair_count=np.int64(3)).pair_count == 3


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
    assert paths.walks(net) == [[0, 1, 2]]


def test_star_leaves_route_through_hub():
    net = make_network(5, [(0, v) for v in range(1, 5)], [1] * 4)
    matrix = demand.DemandMatrix(pairs=((1, 2), (4, 3)))
    paths = demand.build_paths(net, matrix)
    assert paths.walks(net) == [[1, 0, 2], [4, 0, 3]]


def test_square_tie_breaks_toward_low_ids():
    net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1] * 4)
    matrix = demand.DemandMatrix(pairs=((1, 3),))
    paths = demand.build_paths(net, matrix)
    assert paths.walks(net) == [[1, 0, 3]]


def test_reversed_pair_rides_the_same_channels():
    # Two disjoint three-hop routes whose interior ids cross: a one-sided
    # breadth-first tie-break would pick different channels per direction.
    edges = [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)]
    net = make_network(6, edges, [1] * 6)
    matrix = demand.DemandMatrix(pairs=((0, 5), (5, 0)))
    paths = demand.build_paths(net, matrix)
    assert paths.walks(net) == [[0, 1, 4, 5], [5, 4, 1, 0]]


def test_reversed_pairs_symmetric_on_random_graphs():
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
    walks = demand.build_paths(net, both).walks(net)
    for i in range(30):
        fwd = walks[i]
        rev = walks[30 + i]
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
        routes.append(walk if s < r else walk[::-1])
    return list(PathSet.of_walks(network, routes))


def _assert_routes_match(paths, reference):
    """build_paths's arrays equal the reference Paths' arrays, and its
    Paths, read back off those arrays, equal the reference Paths."""
    expected = PathSet.of(reference)
    for name in ("source", "destination", "indptr", "edge", "sign"):
        assert getattr(paths, name).tolist() == getattr(expected, name).tolist(), name
    assert list(paths) == reference


@st.composite
def routing_cases(draw):
    """A graph of 2-150 nodes, or of a count either side of one or two
    64-bit words of node bits (split into components with isolated nodes,
    a star with a few chords, or a preferential-attachment graph) and up
    to 400 distinct pairs, some with their reverse and, sometimes, a few
    naming nodes outside the graph."""
    family = draw(st.sampled_from(["components", "star", "attachment"]))
    n = draw(st.integers(2, 150) | st.sampled_from([63, 64, 65, 127, 128, 129]))
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
    assert PathSet.of_walks(net, paths.walks(net)) == paths


def test_routes_cross_words_of_node_bits():
    # 150 nodes, three 64-bit words per bitset row: many steps pick among
    # closer neighbours in different words, and most take a neighbour
    # outside the first word of the node's own neighbourhood
    graph = nx.barabasi_albert_graph(150, 2, seed=3)
    net = make_network(150, list(graph.edges()), [1] * graph.number_of_edges())
    pairs = tuple((v, v * 37 % 97 % v) for v in range(20, 150)) \
        + tuple((v * 37 % 97 % v, v) for v in range(20, 150))
    matrix = demand.DemandMatrix(pairs=pairs)
    reference = _reference_paths(net, matrix)
    spread = skipped = 0
    for (s, r), walk in zip(pairs, PathSet.of(reference).walks(net)):
        dist = nx.single_source_shortest_path_length(graph, max(s, r))
        walk = walk if s < r else walk[::-1]  # lower endpoint first
        for here, step in zip(walk, walk[1:]):
            closer = [v for v in graph[here] if dist[v] == dist[here] - 1]
            spread += len({v >> 6 for v in closer}) > 1
            skipped += step >> 6 != min(v >> 6 for v in [here, *graph[here]])
    assert spread >= 20 and skipped >= 20
    _assert_routes_match(demand.build_paths(net, matrix), reference)


_STRESS_DIGESTS = (
    (topology.ERDOS_RENYI, 400, 1600, 0, 12000, demand.UNIFORM,
     "ad7edaeffc4e2922252e778b4e1cc16609a5b4c856a7d69a7f21b0a7e1fc925c"),
    (topology.ERDOS_RENYI, 400, 1600, 0, 12000, demand.SKEWED,
     "2ae3a0fc5cd649ba655782411f0a818c315941de888c64e3a4fd358b96fbd89b"),
    (topology.SCALE_FREE_BA, 400, 1584, 0, 12000, demand.UNIFORM,
     "cf4c9481a771f4df4fcdbf8a7e6294d68ebb667cabfc2f0d7cefa96d967ea36a"),
    (topology.ERDOS_RENYI, 400, 1600, 15, 12000, demand.UNIFORM,
     "dbaa7d42cd4c252754ebd934b357dd6bb01cf5a4351bd41c8cd410534c50d967"),
    (topology.ERDOS_RENYI, 400, 1600, 15, 12000, demand.SKEWED,
     "6adb592891a6abc67cc4b62750b2c0f73e249a768ff9d58937e4f4bbf33e4b8f"),
    (topology.SCALE_FREE_BA, 400, 1584, 15, 12000, demand.UNIFORM,
     "33d4e36e3fba122808f0ae6b16d3e290c589218bcbb6b299501b0ab119ecdf78"),
    (topology.ERDOS_RENYI, 1000, 4000, 0, 40, demand.UNIFORM,
     "2ee3cbdef3c249e90c1780b81751f4921c1d5c7429820df823b2a9c6d05c083e"),
    (topology.ERDOS_RENYI, 1000, 4000, 0, 30000, demand.UNIFORM,
     "69678b86944906ff8a35f699e29da1eceb36de2ff1702da06f499568d8b3bdd6"),
    (topology.SCALE_FREE_BA, 1000, 3984, 0, 40, demand.UNIFORM,
     "4b82ec55e1ef87294d66191fac62784c2135aa7ec251946e8709534639a14fb9"),
    (topology.SCALE_FREE_BA, 1000, 3984, 0, 30000, demand.UNIFORM,
     "58262e48b7685c8d762fa0cb13735904c7a9e6d3f7e696ae946bbb78d65c92fd"),
)


def test_routes_keep_their_recorded_digests_at_stress_size():
    # SHA-256 over the five arrays, recorded from the per-root-block
    # routing that came before: peel-stress's three cells on pool entries
    # 0 and 15 (12,000 pairs on 400 nodes, graph seed = entry, demand seed
    # one more), and ER and BA 1000/4000 cells with 40 and 30,000 pairs
    for kind, n, budget, seed, pairs, mode, digest in _STRESS_DIGESTS:
        net = topology.gen_topology(topology.TopologySpec(
            kind=kind, node_count=n, edge_budget=budget, seed=seed))
        paths = demand.build_paths(net, demand.sample_demand(
            net, demand.DemandSpec(pair_count=pairs, mode=mode, seed=seed + 1)))
        h = hashlib.sha256()
        for name in ("source", "destination", "indptr", "edge", "sign"):
            h.update(getattr(paths, name).astype("<i8").tobytes())
        assert h.hexdigest() == digest, (kind, n, seed, pairs, mode)
