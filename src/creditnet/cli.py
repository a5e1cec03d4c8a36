"""Batch experiment driver: generate, measure, sweep, and export.

Every subcommand is deterministic under a fixed ``--seed`` and writes
its artifacts into ``--out-dir``.  Sweeps fan out over a process pool
and merge rows by cell key, so the CSV output is independent of
completion order.  Plots are emitted as data plus a gnuplot script;
nothing is ever rendered in-process.

Exit codes: 0 on success, 2 on invalid input, 3 when a search budget,
retry limit, or solver budget is exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .demand import (DemandMatrix, DemandSpec, MODES, UNIFORM, build_paths,
                     sample_demand)
from .fileio import (
    format_rational,
    read_demand,
    read_graph,
    read_paths,
    save_graph,
    write_demand,
    write_graph,
    write_paths,
)
from .lp import max_throughput, min_throughput
from .model import build_routing_system
from .oracle import UNSOLVED, export_ilp, max_deadlock_exact
from .peeling import peel, ripple_trace_csv
from .reduction import cnf_to_creditnet, parse_dimacs
from .ripple import predict_ripple, simulate_iid_peeling, trajectory_csv
from .synthesis import (
    BUDGET_EXHAUSTED,
    SynthesisTarget,
    distribution_distance,
    exact_path_length_distribution,
    optimize_jdd,
    optimize_path_length_dist,
    read_distribution_csv,
    read_jdd_csv,
    search_flow_budget,
    synthesize_matched,
    write_distribution_csv,
    write_jdd_csv,
)
from .topology import KINDS, TopologySpec, gen_topology

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

RESULTS_HEADER = "topology,seed,pairs,phi_max,phi_min,frac_unpeeled,runtime_ms"

# Desk-scale defaults: a full sweep stays under ten minutes on a laptop.
DESK_NODES = 100
DESK_EDGES = 400
# Preferential attachment on 100 nodes can only realize (100 - a) * a
# edges; 384 (attach 4) is the closest size to the 400-edge budget.
DESK_BA_EDGES = 384
DESK_DENSITIES = tuple(range(300, 3001, 300))
DESK_GRAPHS = 3
DESK_DEMANDS = 2


@dataclass(frozen=True)
class SweepConfig:
    """One batch run: topologies x densities x (graphs x demand draws)."""

    topologies: tuple[TopologySpec, ...]
    densities: tuple[int, ...]
    graph_instances: int = DESK_GRAPHS
    demand_matrices: int = DESK_DEMANDS
    base_seed: int = 0
    demand_mode: str = UNIFORM
    with_phi_max: bool = True
    with_phi_min: bool = True
    measure_runtime: bool = True

    def __post_init__(self):
        if not self.topologies or not self.densities:
            raise ValueError("sweep needs at least one topology and one "
                             "demand density")
        if self.graph_instances < 1 or self.demand_matrices < 1:
            raise ValueError("trial counts must be positive")
        if self.demand_mode not in MODES:
            raise ValueError(f"unknown demand mode {self.demand_mode!r}")
        for spec in self.topologies:
            limit = spec.node_count * (spec.node_count - 1)
            for density in self.densities:
                if density < 1 or density > limit:
                    raise ValueError(
                        f"density {density} does not fit {spec.kind} on "
                        f"{spec.node_count} nodes (at most {limit} pairs)")


def desk_scale_config(seed: int = 0) -> SweepConfig:
    n, m = DESK_NODES, DESK_EDGES
    return SweepConfig(
        topologies=(
            TopologySpec(kind="ErdosRenyi", node_count=n, edge_budget=m),
            TopologySpec(kind="RandomRegular", node_count=n, degree=8),
            TopologySpec(kind="ScaleFreeBA", node_count=n,
                         edge_budget=DESK_BA_EDGES),
            TopologySpec(kind="Star", node_count=n),
        ),
        densities=DESK_DENSITIES,
        base_seed=seed,
    )


def load_sweep_config(path: Path) -> SweepConfig:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    specs = []
    for entry in data["topologies"]:
        specs.append(TopologySpec(
            kind=entry["kind"],
            node_count=int(entry["nodes"]),
            edge_budget=entry.get("edges"),
            degree=entry.get("degree"),
            rewire_prob=entry.get("rewire_prob", 0.1),
            exponent=entry.get("exponent", 2.5),
        ))
    return SweepConfig(
        topologies=tuple(specs),
        densities=tuple(int(d) for d in data["densities"]),
        graph_instances=int(data.get("graph_instances", DESK_GRAPHS)),
        demand_matrices=int(data.get("demand_matrices", DESK_DEMANDS)),
        base_seed=int(data.get("seed", 0)),
        demand_mode=data.get("demand_mode", UNIFORM),
        with_phi_max=bool(data.get("phi_max", True)),
        with_phi_min=bool(data.get("phi_min", True)),
        measure_runtime=bool(data.get("runtime", True)),
    )


def _fmt_value(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _sweep_cell(args):
    """One (topology, density, graph draw, demand draw) measurement.

    Takes and returns only picklable primitives so cells can run in a
    process pool; the graph is re-derived from its seed inside the cell,
    which keeps cells independent of scheduling.
    """
    (spec, pairs, graph_seed, demand_seed, mode,
     want_max, want_min, measure) = args
    started = time.perf_counter()
    network = gen_topology(replace(spec, seed=graph_seed))
    demand = sample_demand(network, DemandSpec(
        pair_count=pairs, mode=mode, seed=demand_seed))
    paths = build_paths(network, demand, seed=demand_seed)
    routing = build_routing_system(network, paths)
    result = peel(routing, seed=demand_seed)
    unpeeled = set(result.unpeeled_edges)
    phi_max = ""
    phi_min = ""
    if want_max:
        phi_max = max_throughput(network, routing)
    if want_min:
        phi_min = min_throughput(network, routing, unpeeled)
    elapsed_ms = round((time.perf_counter() - started) * 1000) if measure \
        else 0
    return {
        "topology": spec.kind,
        "seed": demand_seed,
        "pairs": pairs,
        "phi_max": phi_max,
        "phi_min": phi_min,
        "frac_unpeeled": len(unpeeled) / network.edge_count,
        "runtime_ms": elapsed_ms,
    }


def sweep_cells(config: SweepConfig):
    """The cell list in merge order; the row order never depends on
    which worker finishes first."""
    cells = []
    for spec in config.topologies:
        for pairs in config.densities:
            for g in range(config.graph_instances):
                graph_seed = config.base_seed + 101 * g
                for d in range(config.demand_matrices):
                    demand_seed = config.base_seed + 101 * g + 17 * d + 1
                    cells.append((spec, pairs, graph_seed, demand_seed,
                                  config.demand_mode, config.with_phi_max,
                                  config.with_phi_min,
                                  config.measure_runtime))
    return cells


def run_sweep(config: SweepConfig, threads: int = 1) -> list[dict]:
    cells = sweep_cells(config)
    if threads <= 1:
        return [_sweep_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_sweep_cell, cells))


def results_csv(rows: list[dict]) -> str:
    lines = [RESULTS_HEADER]
    for row in rows:
        lines.append(",".join((
            row["topology"], str(row["seed"]), str(row["pairs"]),
            _fmt_value(row["phi_max"]), _fmt_value(row["phi_min"]),
            f"{row['frac_unpeeled']:.6f}", str(row["runtime_ms"]))))
    return "\n".join(lines) + "\n"


def whisker_stats(rows: list[dict]) -> list[dict]:
    """Per-cell min/mean/max, aggregated over the trial draws."""
    groups: dict[tuple[str, int], list[dict]] = {}
    order = []
    for row in rows:
        key = (row["topology"], row["pairs"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        bucket = groups[key]
        stat = {"topology": key[0], "pairs": key[1]}
        for metric in ("frac_unpeeled", "phi_max", "phi_min"):
            values = [float(r[metric]) for r in bucket if r[metric] != ""]
            if not values:
                continue
            stat[metric] = (min(values), sum(values) / len(values),
                            max(values))
        out.append(stat)
    return out


def stats_csv(stats: list[dict]) -> str:
    lines = ["topology,pairs"
             ",unpeeled_min,unpeeled_mean,unpeeled_max"
             ",phi_max_min,phi_max_mean,phi_max_max"
             ",phi_min_min,phi_min_mean,phi_min_max"]
    for stat in stats:
        cells = [stat["topology"], str(stat["pairs"])]
        for metric, digits in (("frac_unpeeled", 6), ("phi_max", 4),
                               ("phi_min", 4)):
            if metric in stat:
                cells.extend(f"{v:.{digits}f}" for v in stat[metric])
            else:
                cells.extend(("", "", ""))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def gnuplot_script(topologies, stats_name: str) -> str:
    """Whisker plots from the stats table, one curve per topology.

    Rows are picked out of the shared CSV with a strcol filter, so the
    script needs no preprocessing step.
    """
    lines = [
        "set datafile separator \",\"",
        "set key outside right",
        "set xlabel \"demand pairs\"",
        "set terminal svg size 800,500",
        "set output 'sweep_unpeeled.svg'",
        "set ylabel \"fraction of channels unpeeled\"",
    ]
    curves = []
    for kind in topologies:
        curves.append(
            f"  '{stats_name}' skip 1 "
            f"using (strcol(1) eq '{kind}' ? $2 : NaN):4:3:5 "
            f"with yerrorlines title '{kind}'")
    lines.append("plot \\\n" + ", \\\n".join(curves))
    lines.extend([
        "set output 'sweep_phi_max.svg'",
        "set ylabel \"throughput ceiling\"",
    ])
    curves = []
    for kind in topologies:
        curves.append(
            f"  '{stats_name}' skip 1 "
            f"using (strcol(1) eq '{kind}' ? $2 : NaN):7:6:8 "
            f"with yerrorlines title '{kind}'")
    lines.append("plot \\\n" + ", \\\n".join(curves))
    return "\n".join(lines) + "\n"


def _out_dir(args) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def cmd_gen(args) -> int:
    spec = TopologySpec(
        kind=args.kind, node_count=args.nodes, edge_budget=args.edges,
        degree=args.degree, rewire_prob=args.rewire_prob,
        exponent=args.exponent, total_collateral=args.collateral,
        graph_path=args.graph, seed=_seed(args))
    network = gen_topology(spec)
    target = _out_dir(args) / args.out
    save_graph(network, target)
    print(f"wrote {target} ({network.node_count} nodes, "
          f"{network.edge_count} channels)")
    return EXIT_OK


def cmd_demand(args) -> int:
    network = read_graph(Path(args.graph))
    demand = sample_demand(network, DemandSpec(
        pair_count=args.pairs, mode=args.mode,
        heavy_fraction=args.heavy_fraction,
        heavy_probability=args.heavy_probability, seed=_seed(args)))
    target = _out_dir(args) / args.out
    target.write_text(write_demand(demand), encoding="utf-8")
    print(f"wrote {target} ({len(demand)} pairs)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    network = read_graph(Path(args.graph))
    if args.paths:
        paths = read_paths(network, Path(args.paths))
    else:
        if args.demand:
            pairs = read_demand(Path(args.demand))
            demand_pairs = tuple(pairs)
        elif args.pairs:
            demand_pairs = tuple(sample_demand(network, DemandSpec(
                pair_count=args.pairs, mode=args.mode, seed=_seed(args))))
        else:
            raise ValueError("analyze needs --paths, --demand, or --pairs")
        paths = build_paths(network, DemandMatrix(demand_pairs),
                            seed=_seed(args))
    routing = build_routing_system(network, paths)
    result = peel(routing, seed=_seed(args), pairing=args.pairing)
    unpeeled = set(result.unpeeled_edges)
    phi_max = max_throughput(network, routing)
    phi_min = min_throughput(network, routing, unpeeled)
    trace_path = _out_dir(args) / args.trace
    trace_path.write_text(ripple_trace_csv(result), encoding="utf-8")
    print(f"pairs={len(paths)}")
    print(f"phi_max={_fmt_value(phi_max)}")
    print(f"phi_min={_fmt_value(phi_min)}")
    print(f"unpeeled_count={len(unpeeled)}")
    print(f"unpeeled_fraction={len(unpeeled) / network.edge_count:.6f}")
    print(f"outcome={result.outcome}")
    print(f"ripple_trace={trace_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.config:
        config = load_sweep_config(Path(args.config))
    else:
        config = desk_scale_config()
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    rows = run_sweep(config, threads=args.threads)
    directory = _out_dir(args)
    (directory / args.results).write_text(results_csv(rows),
                                          encoding="utf-8")
    stats = whisker_stats(rows)
    (directory / args.stats).write_text(stats_csv(stats), encoding="utf-8")
    kinds = []
    for spec in config.topologies:
        if spec.kind not in kinds:
            kinds.append(spec.kind)
    (directory / args.plot).write_text(gnuplot_script(kinds, args.stats),
                                       encoding="utf-8")
    print(f"wrote {directory / args.results} ({len(rows)} rows)")
    print(f"wrote {directory / args.stats} ({len(stats)} cells)")
    print(f"wrote {directory / args.plot}")
    return EXIT_OK


def cmd_verify(args) -> int:
    corpus = Path(args.corpus)
    graph_files = sorted(corpus.glob("*.graph"))
    if not graph_files:
        raise ValueError(f"no *.graph instances under {corpus}")
    unsolved = 0
    agreements = 0
    print("instance,unpeeled_count,exact_deadlock_count,equal")
    for graph_file in graph_files:
        paths_file = graph_file.with_suffix(".paths")
        if not paths_file.exists():
            raise ValueError(f"{graph_file} has no matching .paths file")
        network = read_graph(graph_file)
        paths = read_paths(network, paths_file)
        result = peel(build_routing_system(network, paths),
                      seed=_seed(args))
        unpeeled = len(result.unpeeled_edges)
        exact = max_deadlock_exact(network, paths,
                                   max_edges=args.max_edges,
                                   time_budget=args.time_budget)
        if exact.status == UNSOLVED:
            unsolved += 1
            print(f"{graph_file.stem},{unpeeled},unsolved,no")
            continue
        equal = unpeeled == exact.size
        agreements += equal
        print(f"{graph_file.stem},{unpeeled},{exact.size},"
              f"{'yes' if equal else 'no'}")
    solved = len(graph_files) - unsolved
    rate = agreements / solved if solved else 0.0
    print(f"instances={len(graph_files)}")
    print(f"equal_rate={rate:.4f}")
    return EXIT_BUDGET if unsolved else EXIT_OK


def cmd_reduce(args) -> int:
    cnf = parse_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    network, paths = cnf_to_creditnet(cnf)
    directory = _out_dir(args)
    graph_path = directory / args.graph_out
    paths_path = directory / args.paths_out
    save_graph(network, graph_path)
    paths_path.write_text(write_paths(network, paths), encoding="utf-8")
    print(f"variables={cnf.variable_count}")
    print(f"clauses={len(cnf.clauses)}")
    print(f"nodes={network.node_count}")
    print(f"channels={network.edge_count}")
    print(f"paths={len(paths)}")
    print(f"graph={graph_path}")
    print(f"paths_file={paths_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    dist = read_distribution_csv(Path(args.dist).read_text(encoding="utf-8"))
    prediction = predict_ripple(dist, args.flows, args.channels)
    stats = None
    if args.trials:
        stats = simulate_iid_peeling(dist, args.flows, args.channels,
                                     seed=_seed(args), trials=args.trials)
    target = _out_dir(args) / args.out
    target.write_text(trajectory_csv(prediction, stats), encoding="utf-8")
    stall = prediction.stall_level()
    print(f"stall_level={'none' if stall is None else stall}")
    if stats is not None:
        print(f"success_rate={stats.success_rate:.4f}")
    print(f"trajectory={target}")
    return EXIT_OK


def cmd_optimize_dist(args) -> int:
    target = SynthesisTarget(
        channel_budget=args.channels, node_budget=args.nodes,
        flow_budget=args.flows if args.flows else 1,
        max_path_length=args.max_path_length, max_degree=args.max_degree)
    if args.search_flows:
        low, high = args.search_flows
        flows, fit = search_flow_budget(target, low, high)
    else:
        if not args.flows:
            raise ValueError("need --flows M or --search-flows LO HI")
        flows, fit = args.flows, optimize_path_length_dist(target)
    out_path = _out_dir(args) / args.out
    out_path.write_text(write_distribution_csv(fit.distribution),
                        encoding="utf-8")
    print(f"flows={flows}")
    print(f"residual={fit.residual:.6f}")
    print(f"converged={'yes' if fit.converged else 'no'}")
    print(f"distribution={out_path}")
    return EXIT_OK if fit.converged else EXIT_BUDGET


def cmd_synthesize(args) -> int:
    if args.restarts < 1:
        raise ValueError("need at least one restart")
    target = SynthesisTarget(
        channel_budget=args.channels, node_budget=args.nodes,
        flow_budget=args.flows, max_path_length=args.max_path_length,
        max_degree=args.max_degree, jdd_max_degree=args.jdd_max_degree)
    if args.target_dist:
        target_dist = read_distribution_csv(
            Path(args.target_dist).read_text(encoding="utf-8"))
    else:
        target_dist = optimize_path_length_dist(target).distribution
    exhausted = False
    if args.jdd:
        jdd = read_jdd_csv(Path(args.jdd).read_text(encoding="utf-8"))
    else:
        search = optimize_jdd(target_dist, target, seed=_seed(args),
                              budget=args.budget,
                              match_tol=args.match_tol)
        jdd = search.jdd
        exhausted = search.status == BUDGET_EXHAUSTED
        print(f"search_status={search.status}")
        print(f"search_distance={search.distance:.6f}")
        print(f"search_evaluations={search.evaluations}")
    network = synthesize_matched(jdd, target_dist, target,
                                 seed=_seed(args), restarts=args.restarts)
    achieved = exact_path_length_distribution(network)
    gap = distribution_distance(achieved, target_dist, "l1")
    directory = _out_dir(args)
    graph_path = directory / args.out
    save_graph(network, graph_path)
    (directory / args.jdd_out).write_text(write_jdd_csv(jdd),
                                          encoding="utf-8")
    (directory / args.dist_out).write_text(
        write_distribution_csv(achieved), encoding="utf-8")
    print(f"nodes={network.node_count}")
    print(f"channels={network.edge_count}")
    print(f"l1_gap={gap:.6f}")
    print(f"graph={graph_path}")
    return EXIT_BUDGET if exhausted else EXIT_OK


def cmd_export_ilp(args) -> int:
    network = read_graph(Path(args.graph))
    paths = read_paths(network, Path(args.paths))
    target = _out_dir(args) / args.out
    target.write_text(export_ilp(network, paths), encoding="utf-8")
    print(f"wrote {target}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="root seed for every random draw")
    common.add_argument("--out-dir", default=".",
                        help="directory for emitted artifacts")
    common.add_argument("--threads", type=int, default=1,
                        help="worker processes for sweep cells")

    parser = argparse.ArgumentParser(
        prog="creditnet",
        description="credit-network throughput and peeling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="draw a topology and write a graph file")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--rewire-prob", type=float, default=0.1)
    p.add_argument("--exponent", type=float, default=2.5)
    p.add_argument("--collateral", type=int, default=10_000)
    p.add_argument("--graph", default=None,
                   help="source file for the Imported kind")
    p.add_argument("--out", default="graph.txt")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("demand", parents=[common],
                       help="sample a demand matrix for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=UNIFORM)
    p.add_argument("--heavy-fraction", type=float, default=0.10)
    p.add_argument("--heavy-probability", type=float, default=0.70)
    p.add_argument("--out", default="demand.txt")
    p.set_defaults(handler=cmd_demand)

    p = sub.add_parser("analyze", parents=[common],
                       help="throughput and peeling metrics for one "
                            "instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", default=None,
                   help="explicit route file; overrides demand options")
    p.add_argument("--demand", default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=UNIFORM)
    p.add_argument("--pairing", action="store_true",
                   help="peel opposite channel directions as one unit")
    p.add_argument("--trace", default="ripple_trace.csv")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep", parents=[common],
                       help="batch measurements over topologies x "
                            "densities")
    p.add_argument("--config", default=None,
                   help="JSON config; desk-scale defaults when omitted")
    p.add_argument("--results", default="sweep_results.csv")
    p.add_argument("--stats", default="sweep_stats.csv")
    p.add_argument("--plot", default="sweep_plot.gp")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="peeling bound vs exact deadlock over a "
                            "corpus")
    p.add_argument("--corpus", required=True,
                   help="directory of *.graph with sibling *.paths")
    p.add_argument("--max-edges", type=int, default=20)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reduce", parents=[common],
                       help="compile a DIMACS CNF into a deadlock gadget")
    p.add_argument("--cnf", required=True)
    p.add_argument("--graph-out", default="gadget.graph")
    p.add_argument("--paths-out", default="gadget.paths")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("predict", parents=[common],
                       help="analytic ripple trajectory for a length mix")
    p.add_argument("--dist", required=True)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--trials", type=int, default=0,
                   help="also simulate and report empirical columns")
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("optimize-dist", parents=[common],
                       help="fit a path-length mix to the ripple target")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--flows", type=int, default=None)
    p.add_argument("--search-flows", type=int, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--max-path-length", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--out", default="dist.csv")
    p.set_defaults(handler=cmd_optimize_dist)

    p = sub.add_parser("synthesize", parents=[common],
                       help="search degree space and realize a matched "
                            "topology")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--target-dist", default=None,
                   help="target length mix CSV; fitted when omitted")
    p.add_argument("--jdd", default=None,
                   help="skip the search and realize this degree matrix")
    p.add_argument("--budget", type=int, default=1500)
    p.add_argument("--match-tol", type=float, default=0.06)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--max-path-length", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--jdd-max-degree", type=int, default=20)
    p.add_argument("--out", default="synthesized.graph")
    p.add_argument("--jdd-out", default="jdd.csv")
    p.add_argument("--dist-out", default="achieved_dist.csv")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("export-ilp", parents=[common],
                       help="emit the exact deadlock search as a 0/1 "
                            "program")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--out", default="deadlock.lp")
    p.set_defaults(handler=cmd_export_ilp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        # retry and patch limits surface here, not as input errors
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
