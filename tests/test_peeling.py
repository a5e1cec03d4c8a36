from creditnet import BACKWARD, FORWARD, PathSet, make_network, path_from_nodes
from creditnet.peeling import build_peeling_graph, peel, ripple_trace_csv


def _instance(node_count, edges, routes):
    net = make_network(node_count, edges, [10] * len(edges))
    paths = PathSet(tuple(path_from_nodes(net, r) for r in routes))
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
    assert [len(h) for h in graph.hops] == [1, 1, 1, 2, 3]
    assert graph.path_count == 5


def test_stuck_triangle_has_no_single_hop_flows():
    graph = _graph(_stuck_triangle())
    assert all(len(h) == 2 for h in graph.hops)


def test_empty_path_set():
    net, _ = _opposing_pair()
    graph = build_peeling_graph(net, PathSet(()))
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
    before = [len(h) for h in graph.hops]
    first = peel(graph, seed=7)
    assert [len(h) for h in graph.hops] == before
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
