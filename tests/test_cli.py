import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from conftest import line_instance
from creditnet.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    build_parser,
    desk_scale_config,
    gnuplot_script,
    load_sweep_config,
    main,
    results_csv,
    run_sweep,
    SweepConfig,
)
from creditnet.demand import (DEFAULT_HEAVY_FRACTION, DEFAULT_HEAVY_PROBABILITY, DemandMatrix,
                              DemandSpec, build_paths, sample_demand)
from creditnet.fileio import (
    parse_rational,
    read_demand,
    read_graph,
    read_paths,
    save_graph,
    write_paths,
)
from creditnet import lp, model
from creditnet.lp import max_throughput, min_throughput
from creditnet.model import build_routing_system, make_network
from creditnet.peeling import build_peeling_graph, peel
from creditnet.reduction import cnf_to_creditnet, parse_dimacs
from creditnet.synthesis import (
    BUDGET_EXHAUSTED,
    DEFAULT_SEARCH_BUDGET,
    SynthesisTarget,
    neutral_mixing_jdd,
    search_flow_budget,
    write_distribution_csv,
    write_jdd_csv,
)
from creditnet.topology import DEFAULT_TOTAL_COLLATERAL, ERDOS_RENYI, TopologySpec, gen_topology


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


@pytest.mark.parametrize("nodes, edges", [("3", "2"), ("3", "3"), ("2", "1")])
def test_power_law_gen_below_four_nodes(tmp_path, capsys, nodes, edges):
    # networkx's connected double edge swap refuses fewer than four nodes
    rc = main(["gen", "--kind", "PowerLawConfig", "--nodes", nodes,
               "--edges", edges, "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    network = read_graph(tmp_path / "graph.txt")
    assert (network.node_count, network.edge_count) == (int(nodes), int(edges))


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


def test_sweep_floor_does_not_depend_on_the_ceiling():
    # 3 * 60 channels * 120+ paths > EXACT_CELL_LIMIT, so every LP takes
    # the float route
    solves, highs = [], lp._highs

    def counting_highs(*args):
        solves.append(args)
        return highs(*args)

    def sweep(with_phi_max):
        solves.clear()
        with mock.patch.object(lp, "_highs", counting_highs):
            return run_sweep(SweepConfig(
                topologies=(TopologySpec(kind=ERDOS_RENYI, node_count=30,
                                         edge_budget=60),),
                densities=(120, 240), graph_instances=2, demand_matrices=2,
                with_phi_max=with_phi_max, measure_runtime=False))

    without_max = sweep(False)
    assert len(solves) == 8
    with_max = sweep(True)
    # the kept ceilings answer some floors, not all
    assert 8 < len(solves) < 16
    assert all(isinstance(row["phi_max"], float) for row in with_max)
    assert all(row["phi_max"] == "" for row in without_max)
    for a, b in zip(with_max, without_max):
        assert a["frac_unpeeled"] == b["frac_unpeeled"]
        assert a["phi_min"] == pytest.approx(b["phi_min"], rel=1e-9, abs=1e-9)
    assert ([line.split(",")[4] for line in results_csv(with_max).splitlines()]
            == [line.split(",")[4] for line in results_csv(without_max).splitlines()])


# gnuplot_script's output for three kinds, pinned byte for byte
_PLOT_SCRIPT = """\
set datafile separator ","
set key outside right
set xlabel "demand pairs"
set terminal svg size 800,500
set output 'sweep_unpeeled.svg'
set ylabel "fraction of channels unpeeled"
plot \\
  'stats.csv' skip 1 using (strcol(1) eq 'ErdosRenyi' ? $2 : NaN):4:3:5 with yerrorlines title 'ErdosRenyi', \\
  'stats.csv' skip 1 using (strcol(1) eq 'Star' ? $2 : NaN):4:3:5 with yerrorlines title 'Star', \\
  'stats.csv' skip 1 using (strcol(1) eq 'ScaleFreeBA' ? $2 : NaN):4:3:5 with yerrorlines title 'ScaleFreeBA'
set output 'sweep_phi_max.svg'
set ylabel "throughput ceiling"
plot \\
  'stats.csv' skip 1 using (strcol(1) eq 'ErdosRenyi' ? $2 : NaN):7:6:8 with yerrorlines title 'ErdosRenyi', \\
  'stats.csv' skip 1 using (strcol(1) eq 'Star' ? $2 : NaN):7:6:8 with yerrorlines title 'Star', \\
  'stats.csv' skip 1 using (strcol(1) eq 'ScaleFreeBA' ? $2 : NaN):7:6:8 with yerrorlines title 'ScaleFreeBA'
"""


def test_plot_script_text():
    kinds = dict.fromkeys(["ErdosRenyi", "Star", "ScaleFreeBA"])
    assert gnuplot_script(kinds, "stats.csv") == _PLOT_SCRIPT


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


def test_verify_validates_each_instance_once(tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    _line_files(tmp_path / "corpus")
    validated = []
    validate = model._validated_routing

    def counting(network, paths):
        validated.append(paths)
        return validate(network, paths)

    with mock.patch.object(model, "_validated_routing", counting):
        assert main(["verify", "--corpus", str(tmp_path / "corpus")]) == EXIT_OK
    assert "line,2,2,yes" in capsys.readouterr().out
    assert len(validated) == 1


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


def test_optimize_dist_searches_the_flow_total(tmp_path, capsys):
    rc = main(["optimize-dist", "--channels", "60", "--nodes", "20",
               "--search-flows", "10", "200", "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    flows, fit = search_flow_budget(
        SynthesisTarget(channel_budget=60, node_budget=20, flow_budget=1), 10, 200)
    assert rc == EXIT_OK
    assert 10 <= flows <= 200
    assert record["flows"] == str(flows)
    assert record["residual"] == f"{fit.residual:.6f}"
    assert (tmp_path / "dist.csv").read_text("utf-8") \
        == write_distribution_csv(fit.distribution)


def test_synthesize_runs_the_degree_mix_search(tmp_path, capsys):
    # no --jdd: five evaluations do not match the fitted mix, so the run
    # still writes its graph and exits with the budget code
    rc = main(["synthesize", "--channels", "40", "--nodes", "20", "--flows",
               "30", "--budget", "5", "--out-dir", str(tmp_path)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == EXIT_BUDGET
    assert record["search_status"] == BUDGET_EXHAUSTED
    assert record["search_evaluations"] == "5"
    network = read_graph(tmp_path / "synthesized.graph")
    assert network.edge_count == int(record["channels"])
    assert (tmp_path / "jdd.csv").exists()


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


def test_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    # 3 * 50 channels * 200 pairs is past the exact route, so HiGHS runs
    rc = main(["gen", "--kind", "ErdosRenyi", "--nodes", "24",
               "--edges", "50", "--seed", "4", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(lp, "_highs", lambda *a: lp.LpSolution(lp.NUMERICAL_FAILURE, (), 0.0))
    rc = main(["analyze", "--graph", str(tmp_path / "graph.txt"),
               "--pairs", "200", "--seed", "9", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_BUDGET
    assert "NumericalFailure" in captured.err
    assert "nan" not in captured.out


def _graph_with_wide_capacity(tmp_path, nodes, channels, capacity):
    network = gen_topology(TopologySpec(kind=ERDOS_RENYI, node_count=nodes,
                                        edge_budget=channels, seed=3))
    capacities = list(network.capacities)
    capacities[5] = Fraction(capacity)
    graph_file = tmp_path / f"wide_{nodes}.graph"
    save_graph(make_network(nodes, network.edges, capacities), graph_file)
    return graph_file


@pytest.mark.parametrize("capacity", [10 ** 21, 10 ** 400], ids=["1e21", "1e400"])
def test_analyze_capacity_beyond_float_range(tmp_path, capsys, capacity):
    # 18 channels x 50 pairs: the exact route, which scales the bounds by a
    # power of two into HiGHS's range and proves the optimum after one
    # round of refinement at 1e400
    graph_file = _graph_with_wide_capacity(tmp_path, 10, 18, capacity)
    rc = main(["analyze", "--graph", str(graph_file), "--pairs", "50",
               "--seed", "10", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert parse_rational(_parse_record(capsys.readouterr().out)["phi_max"]) > capacity // 2
    # 60 channels x 120 pairs is past EXACT_CELL_LIMIT: the float route
    # cannot hold the bound, so the input is refused
    graph_file = _graph_with_wide_capacity(tmp_path, 30, 60, capacity)
    rc = main(["analyze", "--graph", str(graph_file), "--pairs", "120",
               "--seed", "10", "--out-dir", str(tmp_path)])
    assert 3 * 60 * 120 > lp.EXACT_CELL_LIMIT
    assert rc == EXIT_BAD_INPUT
    assert "channel 5" in capsys.readouterr().err


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    gen = parse(["gen", "--kind", "ErdosRenyi"])
    sampled = parse(["demand", "--graph", "g", "--pairs", "1"])
    search = parse(["synthesize", "--channels", "1", "--nodes", "1", "--flows", "1"])
    assert gen.collateral == DEFAULT_TOTAL_COLLATERAL
    assert sampled.heavy_fraction == DEFAULT_HEAVY_FRACTION
    assert sampled.heavy_probability == DEFAULT_HEAVY_PROBABILITY
    assert search.budget == DEFAULT_SEARCH_BUDGET


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
    def power_law(nodes, exponent):
        # --exponent=... so that argparse reads "-inf" as a value
        return main(["gen", "--kind", "PowerLawConfig", "--nodes", nodes, "--edges", "20",
                     f"--exponent={exponent}", "--out-dir", str(tmp_path)])
    for exponent in ("inf", "nan", "-inf"):
        assert power_law("10", exponent) == EXIT_BAD_INPUT, exponent
        assert f"power-law exponent must be finite, got {exponent}" in capsys.readouterr().err
    # a huge exponent draws every degree at the mean, 4 here: no overflow;
    # Havel-Hakimi lays 4-regular on 10 nodes out as two K5s every attempt,
    # and the double edge swaps join them; on 11 nodes the layout connects
    assert power_law("10", "1e308") == EXIT_OK
    assert power_law("11", "1e308") == EXIT_OK
    capsys.readouterr()
    # 29 channels on 30 nodes must draw a spanning tree: the retries run out
    rc = main(["gen", "--kind", "ErdosRenyi", "--nodes", "30", "--edges", "29",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_BUDGET
    assert "no connected ErdosRenyi graph" in capsys.readouterr().err
    capsys.readouterr()
    # only sweep runs worker processes, so only sweep takes --threads
    with pytest.raises(SystemExit) as stop:
        main(["gen", "--kind", "ErdosRenyi", "--nodes", "10", "--edges", "20",
              "--threads", "2", "--out-dir", str(tmp_path)])
    assert stop.value.code == EXIT_BAD_INPUT
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    zero_den = tmp_path / "zero.graph"
    zero_den.write_text("nodes 3\n0 1 1/0\n1 2 20\n", encoding="utf-8")
    rc = main(["analyze", "--graph", str(zero_den), "--pairs", "2",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "zero denominator" in capsys.readouterr().err
    dist_file = tmp_path / "dist.csv"
    dist_file.write_text("d,probability\n1,1.0\n", encoding="utf-8")
    rc = main(["predict", "--dist", str(dist_file), "--flows", "3",
               "--channels", "0", "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "at least one channel" in capsys.readouterr().err
    rc = main(["optimize-dist", "--channels", "10", "--nodes", "1",
               "--flows", "5", "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "node budget" in capsys.readouterr().err
    rc = main(["synthesize", "--channels", "40", "--nodes", "20", "--flows", "30",
               "--jdd-max-degree", "0", "--budget", "2", "--out-dir", str(tmp_path)])
    assert rc == EXIT_BAD_INPUT
    assert "joint degree cap" in capsys.readouterr().err
    small = ["synthesize", "--channels", "40", "--nodes", "20", "--flows",
             "30", "--out-dir", str(tmp_path)]
    for flags, message in ((["--budget", "0"], "search budget"),
                           (["--budget", "-5"], "search budget"),
                           (["--match-tol", "nan"], "match tolerance"),
                           (["--restarts", "0"], "restart")):
        rc = main(small + flags)
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT, flags
        assert message in captured.err
        # rejected before any search runs
        assert "search_status" not in captured.out
    nan_jdd = tmp_path / "nan.jdd"
    nan_jdd.write_text("1\n0,nan\n", encoding="utf-8")
    nan_dist = tmp_path / "nan.csv"
    nan_dist.write_text("d,probability\n1,0.5\n2,nan\n", encoding="utf-8")
    for argv in (small + ["--jdd", str(nan_jdd)],
                 small + ["--target-dist", str(nan_dist), "--budget", "2"],
                 ["predict", "--dist", str(nan_dist), "--flows", "3",
                  "--channels", "5", "--out-dir", str(tmp_path)]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT, argv
        assert "must be finite" in captured.err
    # on a 10-node graph: node ids out of range, 80 pairs for the 72
    # among the 9 light nodes, and negative flow and trial counts
    assert main(["gen", "--kind", "ErdosRenyi", "--nodes", "10", "--edges",
                 "20", "--out-dir", str(tmp_path)]) == EXIT_OK
    ten = str(tmp_path / "graph.txt")
    far = tmp_path / "far.txt"
    for line, message in (("-2 -1", "pair (-2, -1)"), ("0 12", "pair (0, 12)")):
        far.write_text(line + "\n", encoding="utf-8")
        rc = main(["analyze", "--graph", ten, "--demand", str(far),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT, line
        assert message in capsys.readouterr().err
    long_dist = tmp_path / "long.csv"
    long_dist.write_text("d,probability\n" + "".join(
        f"{d},0.125\n" for d in range(1, 9)), encoding="utf-8")
    # rows must run d = 1, 2, ... as written: no repeat, no gap
    repeated_dist = tmp_path / "repeated.csv"
    repeated_dist.write_text("d,probability\n1,0.5\n1,0.5\n2,0.5\n", encoding="utf-8")
    gap_dist = tmp_path / "gap.csv"
    gap_dist.write_text("d,probability\n1,0.5\n3,0.5\n", encoding="utf-8")
    for argv, message in (
            (["demand", "--graph", ten, "--pairs", "80", "--mode", "Skewed",
              "--heavy-probability", "0"], "light nodes"),
            (["predict", "--dist", str(dist_file), "--flows", "-5",
              "--channels", "10"], "flow count"),
            (["predict", "--dist", str(dist_file), "--flows", "3",
              "--channels", "10", "--trials", "-3"], "trial count"),
            # paths of up to 8 hops on 4 channels, with no --trials
            (["predict", "--dist", str(long_dist), "--flows", "30",
              "--channels", "4"], "support exceeds"),
            (["predict", "--dist", str(repeated_dist), "--flows", "3",
              "--channels", "10"], "row 2 has d = 1"),
            (["synthesize", "--channels", "40", "--nodes", "20", "--flows", "30",
              "--target-dist", str(gap_dist), "--budget", "2"], "row 2 has d = 3")):
        rc = main(argv + ["--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT, argv
        assert message in capsys.readouterr().err
    # the exact search's limits: a NaN or negative time budget and a
    # negative core cap are bad input, not an exhausted budget
    (tmp_path / "corpus").mkdir()
    _line_files(tmp_path / "corpus")
    for flags, message in ((["--time-budget", "nan"], "time budget"),
                           (["--time-budget=-1"], "time budget"),
                           (["--max-edges=-5"], "max_edges must be non-negative")):
        rc = main(["verify", "--corpus", str(tmp_path / "corpus")] + flags)
        assert rc == EXIT_BAD_INPUT, flags
        assert message in capsys.readouterr().err
    # a sweep config value of the wrong type is refused, not truncated
    # (20.7 nodes, 10.9 pairs) or drawn as given (40.5 channels)
    er = {"kind": "ErdosRenyi", "nodes": 20, "edges": 40}
    config = tmp_path / "typed.json"
    for topo, extra, message in (
            ({"kind": "RandomRegular", "nodes": 20, "degree": 4.5}, {},
             "degree must be an integer, got 4.5"),
            ({**er, "edges": "40"}, {}, "edge_budget must be an integer, got '40'"),
            ({"kind": "SmallWorld", "nodes": 20, "degree": 4, "rewire_prob": "x"}, {},
             "rewire_prob must be a number, got 'x'"),
            ({**er, "exponent": "steep"}, {}, "exponent must be a number, got 'steep'"),
            ({**er, "edges": 40.5}, {}, "edge_budget must be an integer, got 40.5"),
            ({**er, "nodes": 20.7}, {}, "node_count must be an integer, got 20.7"),
            (er, {"densities": [10.9]}, "density must be an integer, got 10.9"),
            (er, {"densities": 10}, "densities must be a list, got 10"),
            (er, {"graph_instances": 1.5}, "graph_instances must be an integer, got 1.5"),
            (er, {"demand_matrices": "2"}, "demand_matrices must be an integer, got '2'"),
            (er, {"seed": 0.5}, "seed must be an integer, got 0.5")):
        config.write_text(json.dumps({"topologies": [topo], "densities": [10], **extra}),
                          encoding="utf-8")
        rc = main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT, (topo, extra)
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("0 3 0 3", "no edge between 0 and 3"),
    # on 10 nodes the keys 0 * 10 + 12 and -1 * 10 + 11 are those of the
    # edges (1, 2) and (0, 1)
    ("0 12 0 12", "no edge between 0 and 12"),
    ("-1 11 -1 11", "no edge between -1 and 11"),
    ("0 0 0 1 0", "path 1: edge 0 used twice"),
    ("0 0 0", "bad path line: '0 0 0'"),
    ("0 2 0 1 3", "path endpoints disagree with node walk: '0 2 0 1 3'"),
    ("0 1 0 1.5", "invalid literal for int() with base 10: '1.5'"),
    (f"0 {2 ** 70} 0 {2 ** 70}", "node id out of the int64 range"),
])
def test_malformed_path_file_exits_two(tmp_path, capsys, line, message):
    network = make_network(10, [(0, 1), (0, 9), (1, 2), (2, 3)], [4] * 4)
    save_graph(network, tmp_path / "bad.graph")
    (tmp_path / "bad.paths").write_text(f"0 3 0 1 2 3\n{line}\n", encoding="utf-8")
    for argv in (["analyze", "--graph", str(tmp_path / "bad.graph"), "--paths",
                  str(tmp_path / "bad.paths"), "--out-dir", str(tmp_path)],
                 ["verify", "--corpus", str(tmp_path)]):
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_BAD_INPUT, argv
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert message in err[0]


@pytest.mark.parametrize("line, message", [
    ("0 1 2", "bad demand line: '0 1 2'"),
    ("0", "bad demand line: '0'"),
    ("0 x", "bad demand line: '0 x'"),
    ("0 1.5", "bad demand line: '0 1.5'"),
    ("1 1", "node 1 cannot pay itself"),
    ("0 2", "duplicate pair (0, 2)"),
    (f"0 {2 ** 64}", f"pair (0, {2 ** 64}) names a node outside the int64 range"),
])
def test_malformed_demand_file_exits_two(tmp_path, capsys, line, message):
    network = make_network(10, [(0, 1), (1, 2), (2, 3)], [4] * 3)
    save_graph(network, tmp_path / "bad.graph")
    (tmp_path / "bad.demand").write_text(f"0 2\n{line}\n", encoding="utf-8")
    rc = main(["analyze", "--graph", str(tmp_path / "bad.graph"), "--demand",
               str(tmp_path / "bad.demand"), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == EXIT_BAD_INPUT
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this creditnet."""
    src = str(Path(lp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)


_LINE = """
    from dataclasses import replace
    from fractions import Fraction
    from creditnet import lp
    from creditnet.model import (BACKWARD, FORWARD, Path, PathSet,
                                 build_routing_system, make_network)
    net = make_network(3, [(0, 1), (1, 2)], [20, 20])
    paths = PathSet.of((Path(0, 2, ((0, FORWARD), (1, FORWARD))),
                        Path(2, 0, ((1, BACKWARD), (0, BACKWARD))),
                        Path(1, 2, ((1, FORWARD),)), Path(1, 0, ((0, BACKWARD),))))

    def line_lps():
        exact = lp.max_throughput(net, build_routing_system(net, paths))
        lp.EXACT_CELL_LIMIT, limit = -1, lp.EXACT_CELL_LIMIT
        approx = lp.max_throughput(net, build_routing_system(net, replace(paths)))
        lp.EXACT_CELL_LIMIT = limit
        assert type(exact) is Fraction and type(approx) is float, (exact, approx)
        assert abs(approx - exact) <= 1e-9 * exact, (exact, approx)
"""


def test_cold_import_loads_neither_scipy_optimize_nor_networkx():
    done = _python(_LINE + """
    import sys
    import creditnet, creditnet.cli, creditnet.lp, creditnet.oracle
    import creditnet.synthesis, creditnet.topology
    from creditnet.oracle import OPTIMAL, max_deadlock_exact
    from creditnet.synthesis import SynthesisTarget, optimize_path_length_dist
    from creditnet.topology import RANDOM_REGULAR, TopologySpec, gen_topology

    def heavy():
        return sorted(m for m in sys.modules if m in ("scipy.optimize", "networkx"))

    assert heavy() == [], heavy()
    line_lps()
    assert max_deadlock_exact(net, paths).status == OPTIMAL
    assert heavy() == [], heavy()
    # the calls that need them import them
    network = gen_topology(TopologySpec(kind=RANDOM_REGULAR, node_count=12, degree=3))
    assert network.degree_sequence() == [3] * 12
    fit = optimize_path_length_dist(SynthesisTarget(channel_budget=40, node_budget=20,
                                                    flow_budget=30))
    assert fit.converged
    assert heavy() == ["networkx", "scipy.optimize"], heavy()
    # scipy.optimize holds the binding creditnet.lp loaded, and solves
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core
    assert _core is creditnet.lp._core
    assert sys.modules["scipy.optimize._highspy._core"] is creditnet.lp._core
    solved = linprog([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6], method="highs")
    assert solved.status == 0 and abs(solved.fun + 2.8) < 1e-9, solved
    line_lps()
    """)
    assert done.returncode == 0, done.stderr


def test_binding_loaded_by_scipy_first_is_reused():
    done = _python("""
    import sys
    import scipy.optimize
    binding = sys.modules["scipy.optimize._highspy._core"]
    """ + _LINE + """
    assert lp._core is binding
    line_lps()
    """)
    assert done.returncode == 0, done.stderr


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# A lean process without the pinned malloc thresholds unmaps numpy's
# per-call temporaries on free and faults them in again: about 1,000 minor
# faults on this cell's third run, and 1,090-1,160 in a process that also
# imports scipy.optimize and networkx.  Pinned, the third run reads 0.
HEAP_FAULT_BOUND = 64


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are pinned on glibc only")
def test_repeated_sweep_cell_stays_faulted_in():
    done = _python("""
    import resource
    from creditnet.cli import SweepConfig, run_sweep
    from creditnet.topology import ERDOS_RENYI, TopologySpec
    config = SweepConfig(
        topologies=(TopologySpec(kind=ERDOS_RENYI, node_count=400, edge_budget=1600),),
        densities=(12000,), graph_instances=1, demand_matrices=1,
        with_phi_max=False, with_phi_min=False, measure_runtime=False)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sweep(config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < HEAP_FAULT_BOUND
