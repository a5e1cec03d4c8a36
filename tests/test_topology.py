import hashlib
import random
from fractions import Fraction

import networkx as nx
import pytest

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
