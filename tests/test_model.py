import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet.model import (
    BACKWARD,
    BOUNDARY,
    CORNER,
    FORWARD,
    INTERIOR,
    CreditNetwork,
    FlowVector,
    Path,
    PathSet,
    RoutingSystem,
    apply_flow,
    build_routing_system,
    center_state,
    check_feasible,
    classify_state,
    closed_arcs,
    hop_levels,
    make_flow,
    make_network,
    make_state,
)


def test_canonical_edge_order_and_orientation():
    net = make_network(4, [(3, 1), (0, 2), (1, 0)], [5, 7, 9])
    assert net.edges == ((0, 1), (0, 2), (1, 3))
    assert net.capacities == (Fraction(9), Fraction(7), Fraction(5))


def test_network_rejects_bad_input():
    with pytest.raises(ValueError):
        make_network(3, [(0, 0)], [1])
    with pytest.raises(ValueError):
        make_network(3, [(0, 1), (1, 0)], [1, 1])
    with pytest.raises(ValueError):
        make_network(2, [(0, 5)], [1])
    with pytest.raises(ValueError):
        make_network(2, [(0, 1)], [0])
    with pytest.raises(TypeError):
        make_network(2, [(0, 1)], [0.5])


def test_network_names_the_first_failure_at_a_later_index():
    # the failing edge or capacity is not the first, and the message is the
    # one each check gave when it ran edge by edge
    one = Fraction(1)
    for edges, caps, error, message in (
            (((0, 1), (1, 2), (1, 5)), (one,) * 3, ValueError,
             "edge 2 endpoint out of range: (1, 5)"),
            (((0, 1), (-1, 2)), (one,) * 2, ValueError,
             "edge 1 endpoint out of range: (-1, 2)"),
            (((0, 1), (1, 2), (2, 1)), (one,) * 3, ValueError,
             "edge 2 not in canonical (u < v) form: (2, 1)"),
            (((0, 1), (1, 2), (1, 2)), (one,) * 3, ValueError, "duplicate edge (1, 2)"),
            (((0, 1), (1, 2), (0, 2)), (one,) * 3, ValueError,
             "edges not sorted lexicographically"),
            (((0, 1), (0, 2), (1, 2)), (one, one, 2), TypeError, "capacity 2 is not a Fraction"),
            (((0, 1), (1, 2)), (one, Fraction(0)), ValueError,
             "capacity 1 must be positive, got 0"),
            # edges are checked before capacities
            (((0, 1), (1, 2), (0, 2)), (one, Fraction(-1), 2), ValueError,
             "edges not sorted lexicographically")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CreditNetwork(3, edges, caps)
    for edges, caps, error, message in (
            ([(0, 1), (1, 2), (2, 2)], [1, 1, 1], ValueError, "self-loop at node 2"),
            ([(0, 1), (1, 2), (2, 2)], [1, 0.5, 1], TypeError,
             "refusing to coerce float 0.5 to a rational; pass int, str, or Fraction"),
            ([(0, 1), (2, 2), (1, 2)], [1, 1, 0.5], ValueError, "self-loop at node 2"),
            ([(0, 1), (1, 2)], [1], ValueError, "zip() argument 2 is shorter than argument 1"),
            ([(0, 0), (1, 2)], [1], ValueError, "self-loop at node 0"),
            ([(0, 1), (2, 7)], [1, 1], ValueError, "edge 1 endpoint out of range: (2, 7)"),
            ([(0, 1), (2, 1), (1, 0)], [1, 1, 1], ValueError, "duplicate edge (0, 1)"),
            ([(0, 1), (2, 1)], [1, 0], ValueError, "capacity 1 must be positive, got 0"),
            ([(0, 1), (1, 2, 3)], [1, 1], ValueError, "too many values to unpack (expected 2)")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make_network(3, edges, caps)


def test_network_ids_past_int64_and_far_apart():
    # ids int64 cannot hold take the edge-by-edge route, both ways
    big = make_network(2 ** 70, [(2 ** 65, 0), (1, 2)], [1, 1])
    assert big.edges == ((0, 2 ** 65), (1, 2))
    with pytest.raises(OverflowError):
        big.edge_array
    with pytest.raises(ValueError, match=re.escape("edge 1 endpoint out of range: (0, 36893488147419103232)")):
        make_network(3, [(0, 1), (0, 2 ** 65)], [1, 1])
    # u * n + v is past int64 here: the order and the check compare u, then v
    n = 10 ** 12
    net = make_network(n, [(n - 1, 9 * 10 ** 6), (10 ** 7 + 1, 10 ** 7), (5, 6)], [1, 2, 3])
    assert net.edges == ((5, 6), (9 * 10 ** 6, n - 1), (10 ** 7, 10 ** 7 + 1))
    assert net.capacities == (3, 1, 2)
    assert net.edge_array.tolist() == [list(e) for e in net.edges]
    one = Fraction(1)
    assert CreditNetwork(n, ((9 * 10 ** 6, 10 ** 11), (10 ** 7, 10 ** 7 + 1)), (one, one))
    with pytest.raises(ValueError, match="edges not sorted"):
        CreditNetwork(n, ((10 ** 7, 10 ** 7 + 1), (9 * 10 ** 6, 10 ** 11)), (one, one))


def test_edge_array_is_read_only_and_not_pickled():
    net = make_network(4, [(3, 1), (0, 2), (1, 0)], [5, 7, 9])
    assert net.edge_array.dtype == np.int64
    assert net.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
    with pytest.raises(ValueError):
        net.edge_array[0, 0] = 2
    # the pickle holds the three fields alone, so its bytes, == and hash
    # are those of the network without the array
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net and hash(copy) == hash(net)
    assert set(copy.__dict__) == {"node_count", "edges", "capacities"}
    assert not copy.edge_array.flags.writeable
    assert np.array_equal(copy.edge_array, net.edge_array)
    empty = make_network(1, [], [])
    assert empty.edge_array.shape == (0, 2)


def routing_hops(routing):
    """Each path's (edge, direction) hops, read back from the routing's
    arrays through the `Path`s that a `PathSet` over them yields."""
    ends = np.zeros(routing.path_count, dtype=np.int64)
    return [p.hops for p in PathSet(ends, ends, routing.indptr, routing.edge,
                                    routing.sign)]


def dense_views(routing):
    """The dense (canonical edges) x (ordered paths) forward, backward and
    delta = forward - backward incidences, read off the hops."""
    views = []
    for forward_entry, backward_entry in ((1, 0), (0, 1), (1, -1)):
        rows = [[0] * routing.path_count for _ in range(routing.edge_count)]
        for p, hops in enumerate(routing_hops(routing)):
            for e, d in hops:
                rows[e][p] = forward_entry if d == FORWARD else backward_entry
        views.append(tuple(tuple(row) for row in rows))
    return tuple(views)


def _csr(routing):
    return routing.indptr.tolist(), routing.edge.tolist(), routing.sign.tolist()


def test_routing_matrices_match_line_example(line):
    net, paths, routing = line
    forward, backward, delta = dense_views(routing)
    assert forward == ((1, 0, 0, 0), (1, 0, 1, 0))
    assert backward == ((0, 1, 0, 1), (0, 1, 0, 0))
    assert delta == ((1, -1, 0, -1), (1, -1, 1, 0))
    assert _csr(routing) == ([0, 2, 4, 5, 6], [0, 1, 1, 0, 1, 0], [1, 1, -1, -1, 1, -1])


def test_routing_empty_and_single_hop():
    net = make_network(2, [(0, 1)], [4])
    empty = build_routing_system(net, PathSet.of(()))
    forward, _, _ = dense_views(empty)
    assert forward == ((0,) * 0,) * 1 or forward == ((),)
    assert empty.path_count == 0
    assert _csr(empty) == ([0], [], [])
    single = build_routing_system(
        net, PathSet.of((Path(0, 1, ((0, FORWARD),)),))
    )
    assert dense_views(single) == (((1,),), ((0,),), ((1,),))
    assert _csr(single) == ([0, 1], [0], [1])


def test_routing_arrays_are_int_and_read_only(line):
    _, _, routing = line
    for array in (routing.indptr, routing.edge, routing.sign):
        assert array.dtype.kind == "i"
        assert not array.flags.writeable


def test_routing_rejects_malformed_paths():
    net = make_network(3, [(0, 1), (1, 2)], [1, 1])
    broken = PathSet.of((Path(0, 2, ((0, FORWARD), (1, BACKWARD))),))
    with pytest.raises(ValueError, match="path 0"):
        build_routing_system(net, broken)
    oob = PathSet.of((Path(0, 1, ((7, FORWARD),)),))
    with pytest.raises(ValueError, match="out of range"):
        build_routing_system(net, oob)
    # the error names the lowest failing path, here the second
    late = PathSet.of((Path(0, 1, ((0, FORWARD),)), Path(1, 0, ((1, BACKWARD),))))
    with pytest.raises(ValueError, match="path 1: non-contiguous at edge 1"):
        build_routing_system(net, late)
    edgeless = make_network(2, [], [])
    with pytest.raises(ValueError, match="path 0: edge index 0 out of range"):
        build_routing_system(edgeless, PathSet.of((Path(0, 1, ((0, FORWARD),)),)))


def test_path_set_keeps_its_routing_per_network(line):
    net, paths, routing = line
    assert build_routing_system(net, paths) is routing
    # an equal network is another object, so the paths are validated anew
    twin = make_network(3, [(0, 1), (1, 2)], [20, 20])
    again = build_routing_system(twin, paths)
    assert again is not routing
    assert _csr(again) == _csr(routing) and again.edge_count == routing.edge_count
    assert build_routing_system(twin, paths) is again
    # the kept routing is no part of what a path set equals
    fresh = PathSet.of(tuple(paths))
    assert paths == fresh and fresh == paths


def test_path_set_valid_for_one_network_still_fails_on_another(line):
    net, paths, routing = line
    # the line's path 0 walks 0 -> 1 -> 2 over edges 0 and 1; here edge 1 is
    # (0, 2), so its second hop does not start where the first ended
    other = make_network(3, [(0, 1), (0, 2)], [20, 20])
    for _ in range(2):
        with pytest.raises(ValueError, match="path 0: non-contiguous at edge 1"):
            build_routing_system(other, paths)
    assert build_routing_system(net, paths) is routing


def test_routing_refuses_a_hopless_path_off_the_graph():
    net = make_network(3, [(0, 1), (1, 2)], [1, 1])
    inside = PathSet.of((Path(0, 1, ((0, FORWARD),)), Path(2, 2, ())))
    assert build_routing_system(net, inside).path_count == 2
    for node in (99, 3, -1):
        off = PathSet.of((Path(0, 1, ((0, FORWARD),)), Path(node, node, ())))
        with pytest.raises(ValueError, match=rf"path 1: node {node} outside 0\.\.2"):
            build_routing_system(net, off)
    # a hopless path between two nodes still fails on where it ends
    with pytest.raises(ValueError, match="path 0: does not end at its destination"):
        build_routing_system(net, PathSet.of((Path(0, 99, ()),)))


@st.composite
def _hop_lists(draw):
    edge_count = draw(st.integers(min_value=1, max_value=6))
    hop = st.tuples(st.integers(min_value=0, max_value=edge_count - 1),
                    st.sampled_from((FORWARD, BACKWARD)))
    paths = draw(st.lists(st.lists(hop, max_size=4), max_size=6))
    return edge_count, PathSet.of(Path(0, 0, tuple(h)) for h in paths)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 2)),
                                   max_size=4)),
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_pathset_arrays_round_trip_paths(drawn):
    # unchecked: the arrays hold whatever hops they are given
    paths = [Path(s, r, tuple(h)) for s, r, h in drawn]
    pathset = PathSet.of(paths)
    assert len(pathset) == len(paths)
    assert list(pathset) == paths
    assert [pathset[i] for i in range(-len(paths), 0)] == paths
    with pytest.raises(IndexError):
        pathset[len(paths)]
    assert pathset.indptr.tolist() == [0, *np.cumsum([len(p) for p in paths], dtype=int)]
    assert pathset.edge.tolist() == [e for p in paths for e, _ in p.hops]
    assert pathset.sign.tolist() == [1 - 2 * d for p in paths for _, d in p.hops]
    for name in ("source", "destination", "indptr", "edge", "sign"):
        array = getattr(pathset, name)
        assert array.dtype == np.int64 and not array.flags.writeable
    assert pathset == PathSet.of(paths)
    assert pathset != PathSet.of(paths + [Path(0, 0, ())])


def test_routing_shares_the_pathset_arrays(line):
    _, paths, routing = line
    for name in ("indptr", "edge", "sign"):
        assert getattr(routing, name) is getattr(paths, name)


@given(_hop_lists())
@settings(max_examples=60, deadline=None)
def test_directed_paths_is_the_hop_transpose_by_channel_id(instance):
    # built directly: the drawn hop lists are not contiguous paths
    edge_count, paths = instance
    routing = RoutingSystem(paths.indptr, paths.edge, paths.sign, edge_count)
    assert routing.directed.tolist() == [2 * e + d for p in paths for e, d in p.hops]
    assert not routing.directed.flags.writeable
    index = routing.directed_paths
    assert len(index) == 2 * edge_count
    for c, entry in enumerate(index):
        assert entry == tuple(p for p, path in enumerate(paths)
                              for e, d in path.hops if 2 * e + d == c)


def test_directed_paths_on_line(line):
    _, _, routing = line
    # channel 0 forward, 0 backward, 1 forward, 1 backward
    assert routing.directed_paths == ((0,), (1, 3), (0, 2), (1,))


def test_directed_paths_edgeless_and_empty_paths():
    edgeless = build_routing_system(make_network(2, [], []),
                                    PathSet.of((Path(0, 0, ()), Path(1, 1, ()))))
    assert edgeless.directed.size == 0
    assert edgeless.directed_paths == ()
    net = make_network(3, [(0, 1), (1, 2)], [1, 1])
    assert build_routing_system(net, PathSet.of(())).directed_paths == ((),) * 4
    hopless = build_routing_system(net, PathSet.of((Path(2, 2, ()),)))
    assert hopless.directed_paths == ((),) * 4


def test_check_feasible_line_cases(line):
    net, paths, routing = line
    b = make_state(net, [15, 5])
    assert check_feasible(net, routing, b, make_flow([3, 0, 2, 0]))
    # forward row of channel (1,2) is [1,0,1,0]: 6 tokens needed, only 5 held
    assert not check_feasible(net, routing, b, make_flow([6, 0, 0, 0]))
    assert check_feasible(net, routing, b, make_flow([0, 0, 0, 0]))


def test_check_feasible_float_tolerance(line):
    net, paths, routing = line
    b = make_state(net, [15, 5])
    slightly_over = FlowVector((3.0000000001, 0.0, 2.0, 0.0))
    assert check_feasible(net, routing, b, slightly_over)
    assert check_feasible(net, routing, b, FlowVector((3.1, 0.0, 0.0, 0.0)))
    assert not check_feasible(net, routing, b, FlowVector((0.0, 0.0, 5.1, 0.0)))


def test_apply_flow_table_values(line):
    net, paths, routing = line
    b = make_state(net, [15, 5])
    after = apply_flow(net, routing, b, make_flow([3, 0, 2, 0]))
    assert after.balances == (Fraction(12), Fraction(0))
    same = apply_flow(net, routing, b, make_flow([0, 0, 0, 0]))
    assert same.balances == b.balances


def test_apply_flow_circulation_identity(line):
    net, paths, routing = line
    b = make_state(net, [10, 10])
    after = apply_flow(net, routing, b, make_flow([10, 10, 0, 0]))
    assert after.balances == (Fraction(10), Fraction(10))


def test_apply_flow_rejects_infeasible(line):
    net, paths, routing = line
    b = make_state(net, [15, 5])
    with pytest.raises(ValueError, match="channel 1.*forward"):
        apply_flow(net, routing, b, make_flow([6, 0, 0, 0]))


def test_apply_flow_additivity(line):
    net, paths, routing = line
    b = make_state(net, [15, 5])
    f1 = make_flow([2, 1, 0, 0])
    f2 = make_flow([1, 0, 2, 1])
    two_step = apply_flow(net, routing, apply_flow(net, routing, b, f1), f2)
    combined = make_flow([3, 1, 2, 1])
    one_step = apply_flow(net, routing, b, combined)
    assert two_step.balances == one_step.balances


def test_classify_state(line):
    net, paths, routing = line
    assert classify_state(net, make_state(net, [10, 10])).kind == INTERIOR
    assert classify_state(net, make_state(net, [15, 5])).kind == INTERIOR
    corner = classify_state(net, make_state(net, [20, 0]))
    assert corner.kind == CORNER
    assert corner.imbalanced == ((0, BACKWARD), (1, FORWARD))
    boundary = classify_state(net, make_state(net, [20, 5]))
    assert boundary.kind == BOUNDARY
    assert boundary.imbalanced == ((0, BACKWARD),)


def test_classify_symmetry_under_orientation_flip():
    # flipping the stored endpoint convention maps b to C - b; the class and
    # the imbalanced edge set must not change
    net = make_network(3, [(0, 1), (1, 2)], [8, 8])
    b = make_state(net, [0, 3])
    flipped = make_state(net, [8, 5])
    assert classify_state(net, b).kind == classify_state(net, flipped).kind
    assert {e for e, _ in classify_state(net, b).imbalanced} == {
        e for e, _ in classify_state(net, flipped).imbalanced
    }


def test_center_state(line):
    net, _, _ = line
    assert center_state(net).balances == (Fraction(10), Fraction(10))


def test_path_node_round_trip(line):
    net, paths, routing = line
    assert PathSet.of_walks(net, paths.walks(net)) == paths


@st.composite
def small_instance(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    # spanning tree first so every graph is connected
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        v = draw(st.integers(min_value=u + 1, max_value=n - 1))
        edges.add((u, v))
    caps = [draw(st.integers(min_value=2, max_value=12)) for _ in edges]
    net = make_network(n, sorted(edges), caps)

    adj = net.adjacency()
    walks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        walk = [start]
        used = set()
        steps = draw(st.integers(min_value=1, max_value=3))
        for _ in range(steps):
            options = [
                w
                for w in adj[walk[-1]]
                if frozenset((walk[-1], w)) not in used
            ]
            if not options:
                break
            nxt = draw(st.sampled_from(sorted(options)))
            used.add(frozenset((walk[-1], nxt)))
            walk.append(nxt)
        if len(walk) >= 2:
            walks.append(walk)
    if not walks:
        walks = [list(net.edges[0])]
    # the reverse of about two in three walks, so that most draws can
    # circulate flow and some still have a zero optimum
    walks += [walk[::-1] for walk in walks if draw(st.integers(0, 2))]
    pathset = PathSet.of_walks(net, walks)
    routing = build_routing_system(net, pathset)

    balances = [
        Fraction(draw(st.integers(min_value=0, max_value=int(c))))
        for c in net.capacities
    ]
    b = make_state(net, balances)
    return net, pathset, routing, b


@given(small_instance(), st.data())
@settings(max_examples=60, deadline=None)
def test_apply_flow_stays_in_polytope(instance, data):
    net, pathset, routing, b = instance
    amounts = [
        Fraction(data.draw(st.integers(min_value=0, max_value=3)))
        for _ in range(len(pathset))
    ]
    f = FlowVector(tuple(amounts))
    if check_feasible(net, routing, b, f):
        after = apply_flow(net, routing, b, f)
        for k, bal in enumerate(after.balances):
            assert 0 <= bal <= net.capacities[k]


@given(small_instance())
@settings(max_examples=40, deadline=None)
def test_zero_flow_is_identity(instance):
    net, pathset, routing, b = instance
    zero = make_flow([0] * len(pathset))
    assert check_feasible(net, routing, b, zero)
    assert apply_flow(net, routing, b, zero).balances == b.balances


def _bfs_distance(node_count, edges, source):
    adj = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * node_count
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def split_graphs(draw):
    """1-200 nodes in random trees plus extra edges, isolated nodes and
    several components included, with labels shuffled."""
    n = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    first = 0
    while first < n:
        size = rng.randint(1, n - first)
        for i in range(first + 1, first + size):
            if rng.random() < 0.9:
                edges.add((rng.randrange(first, i), i))
        for _ in range(rng.randrange(size) if size > 1 else 0):
            u, v = rng.sample(range(first, first + size), 2)
            edges.add((u, v))
        first += size
    edges = {(min(label[u], label[v]), max(label[u], label[v]))
             for u, v in edges}
    return n, sorted(edges)


def _level_distances(arcs, sources):
    """Hop distance from sources[j] to node v at [v, j], -1 where v is
    unreachable, read off the kernel's level bits; each (v, j) bit is set
    at one level at most, and no bit past the last source is ever set."""
    width = len(sources)
    dist = np.full((len(arcs.starts), width), -1)
    dist[np.asarray(sources, dtype=np.int64), np.arange(width)] = 0
    for level, new in enumerate(hop_levels(arcs, sources), 1):
        bits = np.unpackbits(new.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little").view(bool)
        assert not bits[:, width:].any()
        assert (dist[bits[:, :width]] < 0).all()
        dist[bits[:, :width]] = level
    return dist


@given(split_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_distances_match_plain_bfs(graph, rng):
    n, edges = graph
    arcs = closed_arcs(n, edges)
    # every source, and a subset in shuffled order that often spans
    # more than one 64-bit word of source bits
    subset = rng.sample(range(n), rng.randint(1, n))
    for sources in (list(range(n)), subset):
        dist = _level_distances(arcs, sources)
        assert dist.shape == (n, len(sources))
        for j, source in enumerate(sources):
            assert dist[:, j].tolist() == _bfs_distance(n, edges, source)
        # the search stops at the last level that reaches a new node
        assert len(list(hop_levels(arcs, sources))) == max(dist.max(), 0)


def test_kernel_spans_words_on_a_long_line():
    n = 150
    edges = [(i, i + 1) for i in range(n - 1)]
    dist = _level_distances(closed_arcs(n, edges), range(n))
    assert dist.tolist() == [[abs(u - v) for v in range(n)] for u in range(n)]
