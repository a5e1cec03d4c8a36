from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_instance
from creditnet.demand import DemandMatrix, build_paths
from creditnet.fileio import (
    format_rational,
    parse_rational,
    read_demand,
    read_graph,
    read_paths,
    write_demand,
    write_graph,
    write_paths,
)
from creditnet.model import BACKWARD, FORWARD, Path, PathSet, make_network


def test_rational_formatting_round_trip():
    cases = [
        Fraction(3),
        Fraction(-7),
        Fraction(12, 5),
        Fraction(1, 8),
        Fraction(25, 2),
        Fraction(1000, 3),
        Fraction(-9, 40),
    ]
    for x in cases:
        assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(25, 2)) == "12.5"
    assert format_rational(Fraction(1, 8)) == "0.125"
    assert format_rational(Fraction(1000, 3)) == "1000/3"


def test_graph_round_trip():
    net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [5, "2.5", 7, Fraction(10, 3)])
    text = write_graph(net)
    assert text.splitlines()[0] == "nodes 4"
    again = read_graph(text)
    assert again == net
    assert write_graph(again) == text


def test_graph_read_rejects_garbage():
    with pytest.raises(ValueError):
        read_graph("3\n0 1 5\n")
    with pytest.raises(ValueError):
        read_graph("nodes 3\n1 0 5\n")


def test_path_round_trip():
    net = make_network(4, [(0, 1), (1, 2), (2, 3)], [1, 1, 1])
    ps = PathSet.of_walks(net, ([0, 1, 2, 3], [3, 2, 1], [1, 2]))
    text = write_paths(net, ps)
    assert text.splitlines()[0] == "0 3 0 1 2 3"
    assert read_paths(net, text) == ps


@st.composite
def routed_graphs(draw):
    """A connected graph of 2-9 nodes (a random tree plus chords) and the
    routes that build_paths gives up to 30 distinct pairs on it."""
    n = draw(st.integers(min_value=2, max_value=9))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        edges.add((u, draw(st.integers(min_value=u + 1, max_value=n - 1))))
    net = make_network(n, sorted(edges), [1] * len(edges))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda pair: pair[0] != pair[1]),
                          max_size=30, unique=True))
    return net, build_paths(net, DemandMatrix(tuple(pairs)))


@given(routed_graphs())
@settings(max_examples=100, deadline=None)
def test_path_files_round_trip_routes(case):
    net, paths = case
    assert read_paths(net, write_paths(net, paths)) == paths


@pytest.mark.parametrize("path, message", [
    (Path(0, 1, ((99, FORWARD),)), "edge index 99 out of range"),
    (Path(1, 2, ((-1, FORWARD),)), "edge index -1 out of range"),
    (Path(1, 0, ((0, 2),)), "bad direction 2 on edge 0"),
    # once written, this was the line "0 1 0 1 0", which no reader accepts
    (Path(0, 1, ((0, FORWARD), (0, BACKWARD))), "edge 0 used twice"),
    (Path(1, 1, ()), "a path file needs at least one hop"),
])
def test_write_paths_refuses_what_cannot_be_read_back(path, message):
    net, paths, _ = line_instance()
    with pytest.raises(ValueError, match=message):
        write_paths(net, PathSet.of([*paths, path]))


def test_demand_round_trip():
    pairs = [(0, 3), (2, 1), (1, 0)]
    assert read_demand(write_demand(pairs)) == pairs
    assert write_demand([]) == ""
