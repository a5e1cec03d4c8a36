import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import line_instance
from creditnet.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    desk_scale_config,
    load_sweep_config,
    main,
    run_sweep,
    SweepConfig,
)
from creditnet.demand import DemandMatrix, DemandSpec, build_paths, sample_demand
from creditnet.fileio import (
    parse_rational,
    read_demand,
    read_graph,
    read_paths,
    save_graph,
    write_paths,
)
from creditnet.lp import max_throughput, min_throughput
from creditnet.model import build_routing_system
from creditnet.peeling import build_peeling_graph, peel
from creditnet.reduction import cnf_to_creditnet, parse_dimacs
from creditnet.synthesis import neutral_mixing_jdd, write_jdd_csv
from creditnet.topology import TopologySpec


def _parse_record(out: str) -> dict:
    record = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            record[key] = value
    return record


def _line_files(tmp_path):
    network, paths, _ = line_instance()
    graph_file = tmp_path / "line.graph"
    save_graph(network, graph_file)
    paths_file = tmp_path / "line.paths"
    paths_file.write_text(write_paths(network, paths), encoding="utf-8")
    return graph_file, paths_file


def test_analyze_line_instance(tmp_path, capsys):
    graph_file, paths_file = _line_files(tmp_path)
    rc = main(["analyze", "--graph", str(graph_file),
               "--paths", str(paths_file), "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert record["phi_max"] == "20"
    assert record["phi_min"] == "0"
    assert record["unpeeled_count"] == "2"
    assert record["outcome"] == "Failure"
    trace = Path(record["ripple_trace"]).read_text(encoding="utf-8")
    assert trace.splitlines()[0] == "unprocessed_symbols,ripple_size"


def test_analyze_matches_direct_library_calls(tmp_path, capsys):
    rc = main(["gen", "--kind", "ErdosRenyi", "--nodes", "24",
               "--edges", "50", "--seed", "4", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(["analyze", "--graph", str(tmp_path / "graph.txt"),
               "--pairs", "30", "--seed", "9", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    record = _parse_record(capsys.readouterr().out)

    network = read_graph(tmp_path / "graph.txt")
    demand = sample_demand(network, DemandSpec(pair_count=30, seed=9))
    paths = build_paths(network, demand, seed=9)
    routing = build_routing_system(network, paths)
    result = peel(build_peeling_graph(network, paths), seed=9)
    unpeeled = set(result.unpeeled_edges)
    assert parse_rational(record["phi_max"]) \
        == max_throughput(network, routing)
    assert parse_rational(record["phi_min"]) \
        == min_throughput(network, routing, unpeeled)
    assert int(record["unpeeled_count"]) == len(unpeeled)
    assert record["unpeeled_fraction"] \
        == f"{len(unpeeled) / network.edge_count:.6f}"


def test_gen_and_demand_are_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        rc = main(["gen", "--kind", "RandomRegular", "--nodes", "16",
                   "--degree", "4", "--seed", "7",
                   "--out-dir", str(tmp_path / sub)])
        assert rc == EXIT_OK
        rc = main(["demand", "--graph", str(tmp_path / sub / "graph.txt"),
                   "--pairs", "12", "--seed", "7",
                   "--out-dir", str(tmp_path / sub)])
        assert rc == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "a/graph.txt").read_bytes() \
        == (tmp_path / "b/graph.txt").read_bytes()
    assert (tmp_path / "a/demand.txt").read_bytes() \
        == (tmp_path / "b/demand.txt").read_bytes()
    network = read_graph(tmp_path / "a/graph.txt")
    assert network.node_count == 16
    assert all(d == 4 for d in network.degree_sequence())
    pairs = read_demand(tmp_path / "a/demand.txt")
    assert len(pairs) == 12


def test_sweep_two_cells_rerun_and_pool_identical(tmp_path, capsys):
    config = {
        "topologies": [{"kind": "ErdosRenyi", "nodes": 20, "edges": 40}],
        "densities": [30, 60],
        "graph_instances": 1,
        "demand_matrices": 1,
        "seed": 5,
        "runtime": False,
    }
    config_file = tmp_path / "sweep.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    for sub in ("one", "two"):
        rc = main(["sweep", "--config", str(config_file),
                   "--out-dir", str(tmp_path / sub)])
        assert rc == EXIT_OK
    rc = main(["sweep", "--config", str(config_file), "--threads", "2",
               "--out-dir", str(tmp_path / "pool")])
    assert rc == EXIT_OK
    capsys.readouterr()

    results = (tmp_path / "one/sweep_results.csv").read_text("utf-8")
    lines = results.strip().splitlines()
    assert lines[0] == ("topology,seed,pairs,phi_max,phi_min,"
                        "frac_unpeeled,runtime_ms")
    assert len(lines) == 3
    assert all(line.startswith("ErdosRenyi,") for line in lines[1:])
    # byte-stable across reruns and across worker counts
    assert (tmp_path / "one/sweep_results.csv").read_bytes() \
        == (tmp_path / "two/sweep_results.csv").read_bytes()
    assert (tmp_path / "one/sweep_results.csv").read_bytes() \
        == (tmp_path / "pool/sweep_results.csv").read_bytes()
    stats = (tmp_path / "one/sweep_stats.csv").read_text("utf-8")
    assert len(stats.strip().splitlines()) == 3
    plot = (tmp_path / "one/sweep_plot.gp").read_text("utf-8")
    assert "strcol(1) eq 'ErdosRenyi'" in plot
    assert "set output" in plot


def test_sweep_rows_match_library_sweep(tmp_path, capsys):
    config = SweepConfig(
        topologies=(TopologySpec(kind="Star", node_count=15),),
        densities=(20,), graph_instances=1, demand_matrices=2,
        base_seed=3, measure_runtime=False)
    rows = run_sweep(config)
    assert len(rows) == 2
    assert {row["pairs"] for row in rows} == {20}
    assert rows[0]["seed"] != rows[1]["seed"]
    config_file = tmp_path / "s.json"
    config_file.write_text(json.dumps({
        "topologies": [{"kind": "Star", "nodes": 15}],
        "densities": [20], "graph_instances": 1, "demand_matrices": 2,
        "seed": 3, "runtime": False}), encoding="utf-8")
    rc = main(["sweep", "--config", str(config_file),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    body = (tmp_path / "sweep_results.csv").read_text("utf-8")
    for row in rows:
        assert f"Star,{row['seed']},20," in body


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="density"):
        SweepConfig(
            topologies=(TopologySpec(kind="Star", node_count=10),),
            densities=(200,))
    with pytest.raises(ValueError):
        SweepConfig(topologies=(), densities=(10,))
    config = desk_scale_config()
    assert config.densities[0] == 300 and config.densities[-1] == 3000
    assert len(config.topologies) == 4


def test_verify_reports_equality(tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    graph_file, paths_file = _line_files(tmp_path / "corpus")
    rc = main(["verify", "--corpus", str(tmp_path / "corpus")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.splitlines()[0] \
        == "instance,unpeeled_count,exact_deadlock_count,equal"
    assert "line,2,2,yes" in out
    assert "equal_rate=1.0000" in out
    # shrinking the oracle budget turns the run into a limit failure
    rc = main(["verify", "--corpus", str(tmp_path / "corpus"),
               "--max-edges", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_BUDGET
    assert "unsolved" in out


def test_reduce_round_trips_the_gadget(tmp_path, capsys):
    text = "p cnf 3 2\n1 -2 0\n2 3 0\n"
    cnf_file = tmp_path / "f.cnf"
    cnf_file.write_text(text, encoding="utf-8")
    rc = main(["reduce", "--cnf", str(cnf_file),
               "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    network, paths = cnf_to_creditnet(parse_dimacs(text))
    assert int(record["nodes"]) == network.node_count
    assert int(record["channels"]) == network.edge_count
    assert int(record["paths"]) == len(paths)
    back = read_graph(tmp_path / "gadget.graph")
    assert back.edges == network.edges
    assert len(read_paths(back, tmp_path / "gadget.paths")) == len(paths)


def test_predict_writes_trajectory(tmp_path, capsys):
    dist_file = tmp_path / "dist.csv"
    dist_file.write_text("d,probability\n1,1.0\n", encoding="utf-8")
    rc = main(["predict", "--dist", str(dist_file), "--flows", "3",
               "--channels", "5", "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert record["stall_level"] == "2"
    lines = (tmp_path / "trajectory.csv").read_text("utf-8").splitlines()
    assert lines[0] == "L,predicted,empirical_mean,empirical_sd"
    assert lines[1] == "5,3.000000,,"
    rc = main(["predict", "--dist", str(dist_file), "--flows", "30",
               "--channels", "5", "--trials", "40", "--seed", "1",
               "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert record["stall_level"] == "none"
    assert float(record["success_rate"]) > 0.9


def test_optimize_dist_reports_fit(tmp_path, capsys):
    rc = main(["optimize-dist", "--channels", "60", "--nodes", "20",
               "--flows", "40", "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert record["converged"] == "yes"
    assert float(record["residual"]) > 0.0
    body = (tmp_path / "dist.csv").read_text("utf-8")
    assert body.splitlines()[0] == "d,probability"
    total = sum(float(line.split(",")[1])
                for line in body.strip().splitlines()[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_synthesize_with_fixed_degree_matrix(tmp_path, capsys):
    jdd = neutral_mixing_jdd({2: 30, 3: 30, 4: 10}, 6)
    jdd_file = tmp_path / "family.csv"
    jdd_file.write_text(write_jdd_csv(jdd), encoding="utf-8")
    dist_file = tmp_path / "target.csv"
    dist_file.write_text(
        "d,probability\n1,0.05\n2,0.2\n3,0.3\n4,0.25\n5,0.2\n",
        encoding="utf-8")
    rc = main(["synthesize", "--channels", "105", "--nodes", "70",
               "--flows", "50", "--jdd", str(jdd_file),
               "--target-dist", str(dist_file), "--restarts", "3",
               "--seed", "2", "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_OK
    network = read_graph(tmp_path / "synthesized.graph")
    assert network.node_count == int(record["nodes"])
    assert float(record["l1_gap"]) < 2.0
    assert (tmp_path / "jdd.csv").exists()
    assert (tmp_path / "achieved_dist.csv").read_text("utf-8") \
        .startswith("d,probability")


def test_export_ilp_writes_program(tmp_path, capsys):
    graph_file, paths_file = _line_files(tmp_path)
    rc = main(["export-ilp", "--graph", str(graph_file),
               "--paths", str(paths_file), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    text = (tmp_path / "deadlock.lp").read_text("utf-8")
    assert "Minimize" in text and "Binaries" in text


def test_invalid_input_exits_two(tmp_path, capsys):
    graph_file, _ = _line_files(tmp_path)
    rc = main(["demand", "--graph", str(graph_file), "--pairs", "500",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err
    rc = main(["analyze", "--graph", str(graph_file),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    capsys.readouterr()
    rc = main(["gen", "--kind", "ErdosRenyi", "--nodes", "30",
               "--edges", "2", "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    capsys.readouterr()
    zero_den = tmp_path / "zero.graph"
    zero_den.write_text("nodes 3\n0 1 1/0\n1 2 20\n", encoding="utf-8")
    rc = main(["analyze", "--graph", str(zero_den), "--pairs", "2",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "zero denominator" in capsys.readouterr().err
