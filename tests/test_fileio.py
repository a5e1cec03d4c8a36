from fractions import Fraction

import pytest

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
from creditnet.model import PathSet, make_network, path_from_nodes


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
    ps = PathSet.of(
        (
            path_from_nodes(net, [0, 1, 2, 3]),
            path_from_nodes(net, [3, 2, 1]),
            path_from_nodes(net, [1, 2]),
        )
    )
    text = write_paths(net, ps)
    assert text.splitlines()[0] == "0 3 0 1 2 3"
    assert read_paths(net, text) == ps


def test_demand_round_trip():
    pairs = [(0, 3), (2, 1), (1, 0)]
    assert read_demand(write_demand(pairs)) == pairs
    assert write_demand([]) == ""
