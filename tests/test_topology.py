import hashlib
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditnet import fileio, topology
from creditnet.model import make_network


def _nx_view(network):
    g = nx.Graph()
    g.add_nodes_from(range(network.node_count))
    g.add_edges_from(network.edges)
    return g


def test_star_shape():
    spec = topology.TopologySpec(kind=topology.STAR, node_count=500, seed=3)
    net = topology.gen_topology(spec)
    assert net.node_count == 500
    assert len(net.edges) == 499
    degrees = net.degree_sequence()
    assert degrees[0] == 499
    assert all(d == 1 for d in degrees[1:])


def test_random_regular_counts():
    spec = topology.TopologySpec(kind=topology.RANDOM_REGULAR,
                                 node_count=500, degree=8, seed=1)
    net = topology.gen_topology(spec)
    assert len(net.edges) == 2000
    assert set(net.degree_sequence()) == {8}
    assert nx.is_connected(_nx_view(net))


def test_small_world_without_rewiring_is_a_ring():
    spec = topology.TopologySpec(kind=topology.SMALL_WORLD, node_count=10,
                                 degree=2, rewire_prob=0.0, seed=0)
    net = topology.gen_topology(spec)
    assert len(net.edges) == 10
    assert set(net.degree_sequence()) == {2}
    assert nx.is_connected(_nx_view(net))


def test_erdos_renyi_hits_budget_exactly():
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=100,
                                 edge_budget=400, seed=7)
    net = topology.gen_topology(spec)
    assert len(net.edges) == 400
    assert nx.is_connected(_nx_view(net))


def test_capacities_split_the_collateral_pool():
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=100,
                                 edge_budget=400, seed=7)
    net = topology.gen_topology(spec)
    assert set(net.capacities) == {Fraction(10_000, 400)}
    assert sum(net.capacities) == 10_000

    rich = topology.TopologySpec(kind=topology.STAR, node_count=6,
                                 total_collateral=35, seed=0)
    net = topology.gen_topology(rich)
    assert net.capacities == (Fraction(7),) * 5


def test_scale_free_lands_in_edge_band():
    spec = topology.TopologySpec(kind=topology.SCALE_FREE_BA, node_count=500,
                                 edge_budget=2000, seed=5)
    net = topology.gen_topology(spec)
    assert len(net.edges) == (500 - 4) * 4
    assert abs(len(net.edges) - 2000) <= 0.02 * 2000
    degrees = sorted(net.degree_sequence())
    assert degrees[-1] >= 4 * degrees[250]


def test_power_law_exact_budget_and_heavy_tail():
    spec = topology.TopologySpec(kind=topology.POWER_LAW_CONFIG,
                                 node_count=500, edge_budget=2000, seed=11)
    net = topology.gen_topology(spec)
    assert len(net.edges) == 2000
    assert nx.is_connected(_nx_view(net))
    degrees = sorted(net.degree_sequence())
    assert degrees[0] >= 1
    assert degrees[-1] >= 4 * degrees[250]


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (3, 3)])
def test_power_law_below_four_nodes_is_its_layout(n, m):
    for seed in range(5):
        net = topology.gen_topology(topology.TopologySpec(
            kind=topology.POWER_LAW_CONFIG, node_count=n, edge_budget=m, seed=seed))
        assert net.edge_count == m
        assert nx.is_connected(_nx_view(net))
        # the only connected graph on n nodes and m channels, up to labels
        assert sorted(net.degree_sequence()) == {(2, 1): [1, 1], (3, 2): [1, 1, 2],
                                                 (3, 3): [2, 2, 2]}[n, m]


def test_same_seed_same_bytes():
    for kind, kwargs in (
        (topology.ERDOS_RENYI, {"edge_budget": 300}),
        (topology.RANDOM_REGULAR, {"degree": 6}),
        (topology.SCALE_FREE_BA, {"edge_budget": 291}),
        (topology.POWER_LAW_CONFIG, {"edge_budget": 300}),
        (topology.SMALL_WORLD, {"degree": 4, "rewire_prob": 0.3}),
    ):
        spec = topology.TopologySpec(kind=kind, node_count=100, seed=42,
                                     **kwargs)
        first = fileio.write_graph(topology.gen_topology(spec))
        second = fileio.write_graph(topology.gen_topology(spec))
        assert first == second, kind

        shifted = topology.TopologySpec(kind=kind, node_count=100, seed=43,
                                        **kwargs)
        assert fileio.write_graph(topology.gen_topology(shifted)) != first


def test_imported_graph_is_renormalized(tmp_path):
    base = make_network(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4])
    path = tmp_path / "ring.graph"
    fileio.save_graph(base, path)
    spec = topology.TopologySpec(kind=topology.IMPORTED, graph_path=str(path),
                                 total_collateral=100)
    net = topology.gen_topology(spec)
    assert net.edges == base.edges
    assert net.capacities == (Fraction(25),) * 4


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        topology.TopologySpec(kind="Lattice")
    with pytest.raises(ValueError):
        topology.gen_topology(topology.TopologySpec(
            kind=topology.RANDOM_REGULAR, node_count=5, degree=3))
    with pytest.raises(ValueError):
        topology.gen_topology(topology.TopologySpec(
            kind=topology.ERDOS_RENYI, node_count=100, edge_budget=50))
    with pytest.raises(ValueError):
        topology.gen_topology(topology.TopologySpec(
            kind=topology.SMALL_WORLD, node_count=10, degree=3))
    with pytest.raises(ValueError):
        topology.gen_topology(topology.TopologySpec(
            kind=topology.POWER_LAW_CONFIG, node_count=100, edge_budget=300,
            exponent=1.8))


def test_unattainable_preferential_attachment_budget():
    # round(260 / 100) = 3 attachments force 291 edges, outside the band.
    with pytest.raises(ValueError):
        topology.gen_topology(topology.TopologySpec(
            kind=topology.SCALE_FREE_BA, node_count=100, edge_budget=260))


def test_gives_up_on_hopelessly_sparse_spec():
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=30,
                                 edge_budget=29, seed=0)
    with pytest.raises(RuntimeError):
        topology.gen_topology(spec)


def test_snowball_on_star_keeps_the_hub():
    spec = topology.TopologySpec(kind=topology.STAR, node_count=500, seed=3)
    net = topology.gen_topology(spec)
    sample = topology.snowball_sample(net, 5, seed=9)
    assert sample.node_count == 5
    assert len(sample.edges) == 4
    assert sorted(sample.degree_sequence()) == [1, 1, 1, 1, 4]


def test_snowball_full_target_returns_everything():
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=40,
                                 edge_budget=120, seed=2)
    net = topology.gen_topology(spec)
    sample = topology.snowball_sample(net, 40, seed=0)
    assert sample.edges == net.edges
    assert sample.capacities == net.capacities


def test_snowball_takes_contiguous_chunk_of_line():
    net = make_network(6, [(i, i + 1) for i in range(5)], [1] * 5)
    sample = topology.snowball_sample(net, 3, seed=4)
    assert sample.node_count == 3
    assert len(sample.edges) == 2
    assert nx.is_connected(_nx_view(sample))


def test_snowball_is_deterministic_and_validates():
    spec = topology.TopologySpec(kind=topology.SCALE_FREE_BA, node_count=200,
                                 edge_budget=800, seed=6)
    net = topology.gen_topology(spec)
    a = topology.snowball_sample(net, 50, seed=1)
    b = topology.snowball_sample(net, 50, seed=1)
    assert a.edges == b.edges
    assert a.node_count == 50
    assert nx.is_connected(_nx_view(a))
    with pytest.raises(ValueError):
        topology.snowball_sample(net, 0, seed=1)
    with pytest.raises(ValueError):
        topology.snowball_sample(net, 201, seed=1)


def test_snowball_sample_is_pinned():
    # Values of the list-queue implementation: the deque's visit order
    # and the sample must stay the same.
    spec = topology.TopologySpec(kind=topology.SCALE_FREE_BA, node_count=1000,
                                 edge_budget=997 * 3, seed=21)
    sample = topology.snowball_sample(topology.gen_topology(spec), 500, seed=8)
    assert (sample.node_count, sample.edge_count) == (500, 1259)
    assert sample.edges[-2:] == ((464, 466), (472, 494))
    assert sum(sample.capacities) == Fraction(12590000, 2991)
    digest = hashlib.sha256(
        repr((sample.edges, sample.capacities)).encode()).hexdigest()
    assert digest == ("f838f8c0dcef1447d9e19cfad64d156c"
                      "33cdf0bb2208b406e7e6c9e8edbb3b06")


def test_snowball_trapped_in_small_component():
    net = make_network(5, [(0, 1), (2, 3), (3, 4)], [1, 1, 1])
    rng_roots = {random.Random(s).randrange(5) for s in range(20)}
    assert rng_roots == set(range(5))
    for seed in range(20):
        sample = topology.snowball_sample(net, 4, seed=seed)
        assert sample.node_count in (2, 3)


# (spec, SHA-256 of the int64 edge array, first 32 hex digits), recorded
# from the networkx draws that came before: the desk families on pool
# entries 0 and 15, the stress cells' two graphs (both ER cells draw
# one), one exact-small recipe per family, a 4-node walk net, an ER spec
# whose seed 0 needs five connectivity retries, and the kinds that keep
# networkx's generators
_DRAW_DIGESTS = (
    (dict(kind=topology.ERDOS_RENYI, node_count=100, edge_budget=400, seed=0),
     "d960daf7fbc0d231ed600be0a8bcd21d"),
    (dict(kind=topology.ERDOS_RENYI, node_count=100, edge_budget=400, seed=15),
     "9782e31ffe4d37e37fcfa0a9f91b9cb3"),
    (dict(kind=topology.RANDOM_REGULAR, node_count=100, degree=8, seed=0),
     "82d55459ff6a982948b4437341eb2c5c"),
    (dict(kind=topology.RANDOM_REGULAR, node_count=100, degree=8, seed=15),
     "38d10593e78331ab8564cc0718ea9c35"),
    (dict(kind=topology.SCALE_FREE_BA, node_count=100, edge_budget=384, seed=0),
     "d4fc35d4d3870305ad2ebd0f79bcfcb4"),
    (dict(kind=topology.SCALE_FREE_BA, node_count=100, edge_budget=384, seed=15),
     "fdc20c912ae1dd9a8df808e5dc0f4488"),
    (dict(kind=topology.STAR, node_count=100, seed=0),
     "dee67c1a5f052ecd65fc9357a4787448"),
    (dict(kind=topology.STAR, node_count=100, seed=15),
     "dee67c1a5f052ecd65fc9357a4787448"),
    (dict(kind=topology.ERDOS_RENYI, node_count=400, edge_budget=1600, seed=0),
     "00e0c888c16df9b9fd9f2f2bbd35b037"),
    (dict(kind=topology.SCALE_FREE_BA, node_count=400, edge_budget=1584, seed=0),
     "fc2844788f884a7cc82f35a55ff286ed"),
    (dict(kind=topology.ERDOS_RENYI, node_count=10, edge_budget=18, seed=0),
     "019b30c3f351dae91a4ce201994f5a07"),
    (dict(kind=topology.RANDOM_REGULAR, node_count=12, degree=3, edge_budget=18,
          seed=1000), "34d4e61db27c94f7fd5325c92f50b6ab"),
    (dict(kind=topology.SCALE_FREE_BA, node_count=10, edge_budget=16, seed=2000),
     "61e82ddb49bde62da3a80adb536f2967"),
    (dict(kind=topology.STAR, node_count=14, edge_budget=13, seed=3000),
     "834aa78ca0355ea6b3bca4631c4f106e"),
    (dict(kind=topology.ERDOS_RENYI, node_count=4, edge_budget=3,
          total_collateral=12, seed=656122), "7831c9cb5a67c3324de77aa656f53440"),
    (dict(kind=topology.ERDOS_RENYI, node_count=30, edge_budget=40, seed=0),
     "7df9a20e8cef353122ee86379eb6ac53"),
    (dict(kind=topology.ERDOS_RENYI, node_count=12, edge_budget=66, seed=3),
     "c793f82a83bcdc245296049616245a1b"),
    (dict(kind=topology.SMALL_WORLD, node_count=100, degree=4, rewire_prob=0.3,
          seed=42), "7d65c2d010f9086943670b249696c344"),
    (dict(kind=topology.POWER_LAW_CONFIG, node_count=100, edge_budget=300,
          seed=42), "2543db6dcfd5b2d4bb93f7699f2075ab"),
)


def test_draws_keep_their_recorded_digests():
    for kwargs, digest in _DRAW_DIGESTS:
        net = topology.gen_topology(topology.TopologySpec(**kwargs))
        got = hashlib.sha256(net.edge_array.astype("<i8").tobytes()).hexdigest()
        assert got[:32] == digest, kwargs
        assert net.edge_array.tolist() == [list(e) for e in net.edges]
        assert set(net.capacities) == {Fraction(kwargs.get("total_collateral", 10_000),
                                                net.edge_count)}


def _nx_edges(graph):
    return sorted(sorted(e) for e in graph.edges())


@st.composite
def _gnm(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    return n, m, draw(st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None)
@given(_gnm())
@example((2, 1, 0))
@example((30, 29, 5))  # m = n - 1
@example((12, 66, 3))  # the complete graph
@example((40, 779, 8))  # one edge short of it
def test_erdos_renyi_draws_networkx_edge_set(case):
    n, m, seed = case
    assert topology._erdos_renyi(n, m, seed).tolist() == _nx_edges(
        nx.gnm_random_graph(n, m, seed=seed))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1), st.integers(0, 2 ** 32))))
@example((2, 1, 0))
@example((400, 4, 0))
def test_barabasi_albert_draws_networkx_edge_set(case):
    n, attach, seed = case
    assert topology._barabasi_albert(n, attach, seed).tolist() == _nx_edges(
        nx.barabasi_albert_graph(n, attach, seed=seed))


@pytest.mark.parametrize("n", [2, 3, 50])
def test_star_is_networkx_star(n):
    net = topology.gen_topology(topology.TopologySpec(kind=topology.STAR, node_count=n))
    assert [list(e) for e in net.edges] == _nx_edges(nx.star_graph(n - 1))


def test_spec_refuses_non_integral_and_non_numeric_fields():
    for kwargs, message in (
            (dict(node_count=20.7), "node_count must be an integer, got 20.7"),
            (dict(node_count=20, edge_budget=40.5), "edge_budget must be an integer"),
            (dict(node_count=20, edge_budget="40"), "edge_budget must be an integer"),
            (dict(node_count=20, degree=4.5), "degree must be an integer"),
            (dict(node_count=20, seed=1.0), "seed must be an integer"),
            (dict(node_count=20, rewire_prob="x"), "rewire_prob must be a number"),
            (dict(node_count=20, exponent=None), "exponent must be a number")):
        with pytest.raises(ValueError, match=message):
            topology.TopologySpec(kind=topology.ERDOS_RENYI, **kwargs)
    # numpy integers are integers, and reach the draws as ints
    spec = topology.TopologySpec(kind=topology.ERDOS_RENYI, node_count=np.int64(20),
                                 edge_budget=np.int32(40), seed=np.int64(1))
    assert type(spec.node_count) is int and type(spec.edge_budget) is int
    assert topology.gen_topology(spec) == topology.gen_topology(topology.TopologySpec(
        kind=topology.ERDOS_RENYI, node_count=20, edge_budget=40, seed=1))
