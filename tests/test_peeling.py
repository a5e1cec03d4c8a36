import random
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import BACKWARD, FORWARD, PathSet, make_network
from creditnet.peeling import (FAILURE, SUCCESS, PeelResult, build_peeling_graph,
                               peel, residue, ripple_trace_csv)
from test_model import routing_hops


def _opposite(channel):
    edge, direction = channel
    return (edge, BACKWARD if direction == FORWARD else FORWARD)


def _reference_peel(routing, seed, pairing=False):
    """The decoder on (edge, direction) tuples: each flow's hop list is
    rebuilt as its channels are processed, and the channel -> path view is
    scanned in both directions. peel must return the same PeelResult."""
    rng = random.Random(seed)
    initial_hops = routing_hops(routing)
    hops = [list(h) for h in initial_hops]
    channel_paths = [[] for _ in range(routing.edge_count)]
    for i, path_hops in enumerate(initial_hops):
        for e, d in path_hops:
            channel_paths[e].append((i, d))
    total = 2 * routing.edge_count
    processed = set()
    released = set()  # rippling or processed
    ripple = []  # kept sorted

    def release(channel):
        if channel not in released:
            released.add(channel)
            insort(ripple, channel)

    for i, initial in enumerate(initial_hops):
        if len(initial) == 1:
            hops[i] = []
            release(_opposite(initial[0]))

    trace = [(0, len(ripple), total)]
    step = 0
    forced = []
    while ripple:
        if forced:
            current = forced.pop()
        else:
            current = rng.choice(ripple)
        del ripple[bisect_left(ripple, current)]
        processed.add(current)
        step += 1
        edge, direction = current
        for i, d in channel_paths[edge]:
            if d != direction or not hops[i]:
                continue
            hops[i] = [c for c in hops[i] if c != current]
            degree = len(hops[i])
            if degree == 1:
                release(_opposite(hops[i][0]))
            elif degree == 0:
                for channel in initial_hops[i]:
                    release(_opposite(channel))
        trace.append((step, len(ripple), total - step))
        if pairing:
            twin = _opposite(current)
            if twin in released and twin not in processed:
                forced.append(twin)

    unpeeled = frozenset(
        e
        for e in range(routing.edge_count)
        if (e, FORWARD) not in processed or (e, BACKWARD) not in processed
    )
    return PeelResult(
        processed=frozenset(processed),
        unpeeled_edges=unpeeled,
        ripple_trace=tuple(trace),
        outcome=SUCCESS if len(processed) == total else FAILURE,
    )


def _instance(node_count, edges, routes):
    net = make_network(node_count, edges, [10] * len(edges))
    paths = PathSet.of_walks(net, routes)
    return net, paths


def _chain():
    # path graph with three single-hop flows plus two longer ones riding over them
    return _instance(
        4,
        [(0, 1), (1, 2), (2, 3)],
        [[1, 0], [2, 1], [2, 3], [0, 1, 2], [3, 2, 1, 0]],
    )


def _stuck_triangle():
    # every flow has two hops, so nothing seeds the ripple
    return _instance(
        3,
        [(0, 1), (0, 2), (1, 2)],
        [[0, 1, 2], [2, 1, 0], [1, 2, 0], [0, 2, 1], [1, 0, 2], [2, 0, 1]],
    )


def _opposing_pair():
    return _instance(2, [(0, 1)], [[0, 1], [1, 0]])


def _graph(instance):
    return build_peeling_graph(*instance)


def test_chain_build_degrees():
    graph = _graph(_chain())
    assert [len(h) for h in routing_hops(graph)] == [1, 1, 1, 2, 3]
    assert graph.path_count == 5


def test_stuck_triangle_has_no_single_hop_flows():
    graph = _graph(_stuck_triangle())
    assert all(len(h) == 2 for h in routing_hops(graph))


def test_empty_path_set():
    net, _ = _opposing_pair()
    graph = build_peeling_graph(net, PathSet.of(()))
    assert graph.path_count == 0
    result = peel(graph, seed=0)
    assert result.outcome == "Failure"
    assert result.processed == frozenset()
    assert result.unpeeled_edges == {0}
    assert result.ripple_trace == ((0, 0, 2),)


def test_chain_peels_completely():
    result = peel(_graph(_chain()), seed=3)
    assert result.outcome == "Success"
    assert len(result.processed) == 6
    assert result.unpeeled_edges == frozenset()
    assert result.ripple_trace[0] == (0, 3, 6)
    assert result.ripple_trace[-1] == (6, 0, 0)
    assert len(result.ripple_trace) == 7


def test_trace_counts_down_one_per_step():
    for instance in (_chain(), _stuck_triangle(), _opposing_pair()):
        trace = peel(_graph(instance), seed=1).ripple_trace
        for (s0, _, u0), (s1, _, u1) in zip(trace, trace[1:]):
            assert s1 == s0 + 1
            assert u1 == u0 - 1


def test_stuck_triangle_processes_nothing():
    result = peel(_graph(_stuck_triangle()), seed=5)
    assert result.outcome == "Failure"
    assert result.processed == frozenset()
    assert result.unpeeled_edges == {0, 1, 2}
    assert result.ripple_trace == ((0, 0, 6),)


def test_opposing_pair_minimal_success():
    result = peel(_graph(_opposing_pair()), seed=0)
    assert result.outcome == "Success"
    assert result.ripple_trace == ((0, 2, 2), (1, 1, 1), (2, 0, 0))


def test_line_instance_stalls_halfway(line):
    net, paths, _ = line
    result = peel(build_peeling_graph(net, paths), seed=0)
    assert result.outcome == "Failure"
    assert result.processed == {(0, FORWARD), (1, BACKWARD)}
    assert result.unpeeled_edges == {0, 1}
    assert result.ripple_trace == ((0, 2, 4), (1, 1, 3), (2, 0, 2))


def test_partial_peel_isolates_one_edge():
    # the protected channel peels, the tail channel's forward never does
    net, paths = _instance(3, [(0, 1), (1, 2)], [[0, 1], [1, 0], [0, 1, 2]])
    result = peel(build_peeling_graph(net, paths), seed=2)
    assert result.outcome == "Failure"
    assert result.unpeeled_edges == {1}
    assert result.processed == {(0, FORWARD), (0, BACKWARD), (1, BACKWARD)}


def test_outcome_invariant_across_seeds(line):
    instances = [_chain(), _stuck_triangle(), _opposing_pair(), (line[0], line[1])]
    for instance in instances:
        graph = _graph(instance)
        baseline = peel(graph, seed=0)
        for seed in range(1, 10):
            again = peel(graph, seed=seed)
            assert again.outcome == baseline.outcome
            assert again.unpeeled_edges == baseline.unpeeled_edges
            assert again.processed == baseline.processed


def test_pairing_mode_reaches_the_same_answer(line):
    for instance in (_chain(), _stuck_triangle(), (line[0], line[1])):
        graph = _graph(instance)
        plain = peel(graph, seed=4)
        paired = peel(graph, seed=4, pairing=True)
        assert paired.outcome == plain.outcome
        assert paired.unpeeled_edges == plain.unpeeled_edges


def test_peel_does_not_consume_the_graph():
    graph = _graph(_chain())
    before = routing_hops(graph)
    first = peel(graph, seed=7)
    assert routing_hops(graph) == before
    assert peel(graph, seed=7) == first


def test_trace_csv_success_run():
    text = ripple_trace_csv(peel(_graph(_chain()), seed=3))
    lines = text.strip().split("\n")
    assert lines[0] == "unprocessed_symbols,ripple_size"
    assert lines[1] == "6,3"
    assert lines[-1] == "0,0"


def test_trace_csv_failure_run():
    text = ripple_trace_csv(peel(_graph(_stuck_triangle()), seed=3))
    assert text == "unprocessed_symbols,ripple_size\n6,0\n"


def _single_hops():
    # every flow is one hop, so the ripple starts with all it will ever hold
    return _instance(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                     [[0, 1], [1, 0], [2, 1], [3, 2], [0, 3]])


def _duplicated_routes():
    routes = [[0, 1, 2], [2, 1], [1, 0], [0, 1, 2], [2, 1, 0], [2, 1]]
    return _instance(3, [(0, 1), (1, 2)], routes)


def _hopless():
    # one-node routes start at zero hops and release nothing
    return _instance(3, [(0, 1), (1, 2)], [[0], [0, 1], [2], [2, 1, 0], [1]])


_NAMED = {
    "empty": lambda: (_opposing_pair()[0], PathSet.of(())),
    "hopless": _hopless,
    "single hops": _single_hops,
    "stalled triangle": _stuck_triangle,
    "duplicated routes": _duplicated_routes,
    "chain": _chain,
    "opposing pair": _opposing_pair,
}


@pytest.mark.parametrize("name", sorted(_NAMED))
@pytest.mark.parametrize("pairing", [False, True])
def test_peel_matches_reference_on_named_instances(name, pairing):
    graph = _graph(_NAMED[name]())
    for seed in range(6):
        expected = _reference_peel(graph, seed, pairing)
        assert peel(graph, seed, pairing) == expected
        _assert_residue_matches(graph, expected)


def _assert_residue_matches(graph, expected):
    """residue's order-free answer is the step-by-step decoder's, and its
    rounds account for every processed channel."""
    found = residue(graph)
    assert found.processed == expected.processed
    assert found.unpeeled_edges == expected.unpeeled_edges
    assert found.outcome == expected.outcome
    assert sum(found.rounds) == len(found.processed)
    assert all(found.rounds)


def test_residue_takes_a_round_per_link_of_an_alternating_chain():
    # each three-node flow waits for the one before it: one channel a round
    n = 200
    routes = [[1, 0]] + [[k, k + 1, k + 2] if k % 2 == 0 else [k + 2, k + 1, k]
                         for k in range(n - 2)]
    graph = _graph(_instance(n, [(k, k + 1) for k in range(n - 1)], routes))
    found = residue(graph)
    assert found.rounds == (1,) * (n - 1)
    assert found.outcome == FAILURE
    _assert_residue_matches(graph, peel(graph, 0))
    _assert_residue_matches(graph, _reference_peel(graph, 0))


def _random_instance(instance_seed):
    """A random graph on up to 7 nodes and trails on it (no edge twice in a
    route), some of them hopless, the last few repeating earlier ones."""
    rng = random.Random(instance_seed)
    n = rng.randint(2, 7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    net = make_network(n, edges, [1] * len(edges))
    adjacency = net.adjacency()
    routes = []
    for _ in range(rng.randrange(17)):
        walk = [rng.randrange(n)]
        used = set()
        for _ in range(rng.randrange(5)):
            options = [v for v in adjacency[walk[-1]]
                       if frozenset((walk[-1], v)) not in used]
            if not options:
                break
            v = rng.choice(options)
            used.add(frozenset((walk[-1], v)))
            walk.append(v)
        routes.append(walk)
    if routes:
        routes += [rng.choice(routes) for _ in range(rng.randrange(4))]
    paths = PathSet.of_walks(net, routes)  # a one-node route has no hops
    return net, paths


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=150, deadline=None)
def test_peel_matches_reference(instance_seed, seed, pairing):
    graph = build_peeling_graph(*_random_instance(instance_seed))
    expected = _reference_peel(graph, seed, pairing)
    assert peel(graph, seed, pairing) == expected
    _assert_residue_matches(graph, expected)
