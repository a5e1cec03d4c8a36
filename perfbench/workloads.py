"""The benchmark's four workloads.

A workload turns a pool index (the ``--seed`` modulo the workload's pool
size) into a fixed list of items, one pass.  Every item has a plain
runner, used for the end-to-end numbers, and a traced runner that wraps
each call into a library module's public function in a span.  Both
return the same output record, which is checked against the stored
reference in ``reference/``.

Why these four (see README.md for sizes):

* desk-sweep: the desk sweep cell, where the two float-route LP calls
  and the dense routing system dominate.
* peel-stress: route building and peeling at a size where no routing
  system or LP is built; the "no change" workload for LP work.
* exact-small: small instances on the exact rational route plus the
  exact oracles; per-call overhead dominates, not matrix size.
* synthesis: the stage-one fit, one short joint-degree search and
  synthesis; no LP and no routing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from creditnet.cli import SweepConfig, run_sweep, sweep_cells
from creditnet.demand import SKEWED, UNIFORM, DemandSpec, build_paths, \
    sample_demand
from creditnet.lp import OPTIMAL as LP_OPTIMAL
from creditnet.lp import max_throughput, min_throughput, one_step_throughput
from creditnet.model import BalanceState, build_routing_system
from creditnet.oracle import OPTIMAL as ORACLE_OPTIMAL
from creditnet.oracle import enumerate_reachable, max_deadlock_exact
from creditnet.peeling import FAILURE, SUCCESS, build_peeling_graph, peel
from creditnet.ripple import predict_ripple, simulate_iid_peeling
from creditnet.synthesis import (
    MATCHED,
    SynthesisTarget,
    distribution_distance,
    exact_path_length_distribution,
    optimize_jdd,
    optimize_path_length_dist,
    synthesize_matched,
)
from creditnet.topology import (
    ERDOS_RENYI,
    RANDOM_REGULAR,
    SCALE_FREE_BA,
    STAR,
    TopologySpec,
    gen_topology,
)

from reference import mismatches
from tracing import NullTracer


class ItemFailure(Exception):
    """The item ran but its result cannot count: a NaN or non-optimal LP
    result, or an unsolved oracle."""


class Tally:
    """Counts throughput values and how many came back as exact Fractions."""

    def __init__(self):
        self.values = 0
        self.exact = 0

    def psi(self, value):
        if isinstance(value, float) and math.isnan(value):
            raise ItemFailure("throughput LP returned NaN")
        self.values += 1
        self.exact += isinstance(value, Fraction)
        return value


@dataclass(frozen=True)
class Item:
    key: str
    plain: Callable[[Tally], dict]
    traced: Callable[[object, Tally], dict]
    limit_s: float


def _shared(key, run, limit_s) -> Item:
    """An item whose plain and traced runs share one code path."""
    null = NullTracer()
    return Item(key, lambda tally: run(null, tally), run, limit_s)


# --- stage helpers: one span per public call --------------------------------

def _topology(t, spec):
    with t.span("topology.gen_topology"):
        return gen_topology(spec)


def _demand_and_paths(t, network, spec, path_seed=0):
    with t.span("demand.sample_demand"):
        demand = sample_demand(network, spec)
    with t.span("demand.build_paths"):
        paths = build_paths(network, demand, seed=path_seed)
    t.count("demand.build_paths.pairs", len(demand))
    return paths


def _peel(t, network, paths, seed):
    with t.span("peeling.build_peeling_graph"):
        graph = build_peeling_graph(network, paths)
    with t.span("peeling.peel"):
        result = peel(graph, seed=seed)
    t.count("peeling.peel.steps", len(result.ripple_trace) - 1)
    t.count("peeling.unpeeled", len(result.unpeeled_edges))
    t.count("peeling.edges", network.edge_count)
    return result


def _routing(t, network, paths):
    with t.span("model.build_routing_system"):
        routing = build_routing_system(network, paths)
    t.count("model.build_routing_system.cells",
            3 * routing.edge_count * routing.path_count)
    return routing


def _lp(t, tally, name, routing, call):
    with t.span(name):
        value = call()
    if name == "lp.one_step_throughput":
        if value.solver_status != LP_OPTIMAL:
            raise ItemFailure(f"LP status {value.solver_status}")
        value = value.psi_value
    t.count("lp.cells", 3 * routing.edge_count * routing.path_count)
    t.count("lp.exact_calls", isinstance(value, Fraction))
    return tally.psi(value)


def _deadlock(t, network, paths, max_edges):
    with t.span("oracle.max_deadlock_exact"):
        result = max_deadlock_exact(network, paths, max_edges=max_edges)
    if result.status != ORACLE_OPTIMAL:
        t.count("oracle.max_deadlock_exact.unsolved")
        raise ItemFailure("max_deadlock_exact returned Unsolved")
    return result


# --- desk-sweep and peel-stress: run_sweep one cell at a time --------------

def _cell_config(spec, pairs, base_seed, mode, with_phi):
    return SweepConfig(
        topologies=(spec,), densities=(pairs,), graph_instances=1,
        demand_matrices=1, base_seed=base_seed, demand_mode=mode,
        with_phi_max=with_phi, with_phi_min=with_phi, measure_runtime=False)


def _cell_record(phi_max, phi_min, frac_unpeeled):
    return {"phi_max": phi_max, "phi_min": phi_min,
            "frac_unpeeled": frac_unpeeled,
            "outcome": SUCCESS if frac_unpeeled == 0 else FAILURE}


def _sweep_plain(config, tally):
    (row,) = run_sweep(config, threads=1)
    for value in (row["phi_max"], row["phi_min"]):
        if value != "":
            tally.psi(value)
    return _cell_record(row["phi_max"], row["phi_min"], row["frac_unpeeled"])


def _sweep_traced(config, t, tally):
    """The stages of one sweep cell, in the order the sweep runs them."""
    ((spec, pairs, graph_seed, demand_seed, mode, want_max, want_min, _),) = \
        sweep_cells(config)
    network = _topology(t, replace(spec, seed=graph_seed))
    paths = _demand_and_paths(
        t, network, DemandSpec(pair_count=pairs, mode=mode, seed=demand_seed),
        path_seed=demand_seed)
    result = _peel(t, network, paths, demand_seed)
    unpeeled = set(result.unpeeled_edges)
    phi_max = phi_min = ""
    if want_max or want_min:
        routing = _routing(t, network, paths)
        if want_max:
            phi_max = _lp(t, tally, "lp.max_throughput", routing,
                          lambda: max_throughput(network, routing))
        if want_min:
            phi_min = _lp(t, tally, "lp.min_throughput", routing,
                          lambda: min_throughput(network, routing, unpeeled))
    return _cell_record(phi_max, phi_min,
                        len(unpeeled) / network.edge_count)


def _cell_item(key, config, limit_s) -> Item:
    return Item(key, lambda tally: _sweep_plain(config, tally),
                lambda t, tally: _sweep_traced(config, t, tally), limit_s)


def _family_item(spec, densities, base_seed) -> Item:
    """One topology family's cells, one run_sweep call per cell.

    A family is one item so that the item times are not split between a
    fast and a slow mode (300 against 3000 pairs), where the median item
    would turn on a single short cell.
    """
    cells = [(f"{spec.kind}/{pairs}",
              _cell_config(spec, pairs, base_seed, UNIFORM, True))
             for pairs in densities]

    def plain(tally):
        return {key: _sweep_plain(config, tally) for key, config in cells}

    def traced(t, tally):
        out = {}
        for key, config in cells:
            t.begin_item(key)
            with t.span("cell"):
                out[key] = _sweep_traced(config, t, tally)
        return out

    return Item(spec.kind, plain, traced, 60.0 * len(cells))


DESK_FAMILIES = (
    TopologySpec(kind=ERDOS_RENYI, node_count=100, edge_budget=400),
    TopologySpec(kind=RANDOM_REGULAR, node_count=100, degree=8),
    # (100 - 4) * 4: the preferential-attachment size nearest 400 edges.
    TopologySpec(kind=SCALE_FREE_BA, node_count=100, edge_budget=384),
    TopologySpec(kind=STAR, node_count=100),
)
DESK_PAIRS = (300, 3000)


def desk_sweep_items(index: int, tiny: bool = False) -> list[Item]:
    families, densities = DESK_FAMILIES, DESK_PAIRS
    if tiny:
        families = (TopologySpec(kind=ERDOS_RENYI, node_count=20,
                                 edge_budget=40),
                    TopologySpec(kind=STAR, node_count=10))
        densities = (20, 30)
    return [_family_item(spec, densities, index) for spec in families]


# Average degree 8 and 7.5 pairs per channel, as in a 1000-node,
# 4000-channel, 30000-pair stress cell, at a size whose pass fits a run.
STRESS_NODES = 400
STRESS_CELLS = (
    (TopologySpec(kind=ERDOS_RENYI, node_count=STRESS_NODES,
                  edge_budget=4 * STRESS_NODES), UNIFORM),
    (TopologySpec(kind=ERDOS_RENYI, node_count=STRESS_NODES,
                  edge_budget=4 * STRESS_NODES), SKEWED),
    (TopologySpec(kind=SCALE_FREE_BA, node_count=STRESS_NODES,
                  edge_budget=(STRESS_NODES - 4) * 4), UNIFORM),
)
STRESS_PAIRS = 30 * STRESS_NODES


def peel_stress_items(index: int, tiny: bool = False) -> list[Item]:
    cells, pairs = STRESS_CELLS, STRESS_PAIRS
    if tiny:
        cells = ((TopologySpec(kind=ERDOS_RENYI, node_count=60,
                               edge_budget=240), UNIFORM),
                 (TopologySpec(kind=ERDOS_RENYI, node_count=60,
                               edge_budget=240), SKEWED))
        pairs = 1800
    return [_cell_item(f"{spec.kind}/{mode}",
                       _cell_config(spec, pairs, index, mode, False), 60.0)
            for spec, mode in cells]


# --- exact-small: criterion-2 instances and criterion-4 walks ---------------

# Small enough for the exact deadlock search's default 20-edge budget.
EXACT_RECIPES = (
    (ERDOS_RENYI, dict(node_count=10, edge_budget=18)),
    (RANDOM_REGULAR, dict(node_count=12, degree=3, edge_budget=18)),
    (SCALE_FREE_BA, dict(node_count=10, edge_budget=16)),
    (STAR, dict(node_count=14, edge_budget=13)),
)
# The low end of criterion 2's 50-90 pairs, the same for every instance:
# a random pair count would swing the exact-route cost of a pass by 3x
# from seed to seed.
EXACT_PAIRS = 50
EXACT_REPEATS = 8
WALKS = 4
WALK_STARTS = 10
WALK_QUANTUM = 2
# Criterion 4 draws 3 or 4 channels, but on 4 nodes a 4-channel net with
# 6 pairs is almost never deadlock-free, so every walk uses 3 channels:
# a lattice of 3**3 states.
WALK_EDGES = 3
WALK_ATTEMPTS = 500


def _oracle_instance(t, tally, kind, kw, seed):
    network = _topology(t, TopologySpec(kind=kind, seed=seed, **kw))
    paths = _demand_and_paths(
        t, network, DemandSpec(pair_count=EXACT_PAIRS, seed=seed + 7))
    result = _peel(t, network, paths, seed)
    unpeeled = set(result.unpeeled_edges)
    deadlock = _deadlock(t, network, paths, 20)
    routing = _routing(t, network, paths)
    phi_max = _lp(t, tally, "lp.max_throughput", routing,
                  lambda: max_throughput(network, routing))
    phi_min = _lp(t, tally, "lp.min_throughput", routing,
                  lambda: min_throughput(network, routing, unpeeled))
    return {"pairs": EXACT_PAIRS, "unpeeled": len(unpeeled),
            "outcome": result.outcome, "deadlock": deadlock.size,
            "phi_max": phi_max, "phi_min": phi_min}


def _walk(t, tally, rng_seed, starts):
    """Criterion 4 on one net: draw 4-node nets until the oracle certifies
    one deadlock-free, then take the best one-step throughput over the
    reachable set from several boundary starts."""
    rng = random.Random(rng_seed)
    for _ in range(WALK_ATTEMPTS):
        seed = rng.randrange(10 ** 6)
        try:
            network = _topology(t, TopologySpec(
                kind=ERDOS_RENYI, node_count=4, edge_budget=WALK_EDGES,
                total_collateral=4 * WALK_EDGES, seed=seed))
        except RuntimeError:
            continue
        paths = _demand_and_paths(
            t, network, DemandSpec(pair_count=6, seed=seed + 1))
        if _deadlock(t, network, paths, 10).size == 0:
            break
    else:
        raise ItemFailure(f"no deadlock-free net in {WALK_ATTEMPTS} draws")
    routing = _routing(t, network, paths)
    psi_center = _lp(t, tally, "lp.max_throughput", routing,
                     lambda: max_throughput(network, routing))
    start_rng = random.Random(seed ^ 0x5EED)
    best, states = [], 0
    for _ in range(starts):
        balances = [Fraction(WALK_QUANTUM * start_rng.randint(
            0, int(c) // WALK_QUANTUM)) for c in network.capacities]
        pinned = start_rng.randrange(len(balances))
        balances[pinned] = (Fraction(0) if start_rng.random() < 0.5
                            else network.capacities[pinned])
        with t.span("oracle.enumerate_reachable"):
            reachable = enumerate_reachable(
                network, routing, BalanceState(tuple(balances)),
                granularity=WALK_QUANTUM)
        t.count("oracle.enumerate_reachable.states", len(reachable))
        states += len(reachable)
        best.append(max(
            _lp(t, tally, "lp.one_step_throughput", routing,
                lambda s=state: one_step_throughput(network, routing, s))
            for state in reachable))
    return {"net_seed": seed, "edges": network.edge_count,
            "psi_center": psi_center, "states": states, "best": best}


def exact_small_items(index: int, tiny: bool = False) -> list[Item]:
    recipes = EXACT_RECIPES[::3] if tiny else EXACT_RECIPES
    repeats = 1 if tiny else EXACT_REPEATS
    walks, starts = (1, 2) if tiny else (WALKS, WALK_STARTS)
    items = []
    for family, (kind, kw) in enumerate(recipes):
        for r in range(repeats):
            seed = 1000 * family + repeats * index + r
            items.append(_shared(
                f"{kind}/{r}",
                lambda t, tally, kind=kind, kw=kw, seed=seed:
                    _oracle_instance(t, tally, kind, kw, seed), 30.0))
    for w in range(walks):
        rng_seed = 40_000 + 10 * index + w
        items.append(_shared(
            f"walk/{w}",
            lambda t, tally, rng_seed=rng_seed:
                _walk(t, tally, rng_seed, starts), 30.0))
    return items


# --- synthesis: fit -> ripple -> degree-mix search -> synthesis -------------

SYNTH_TARGET = SynthesisTarget(channel_budget=1500, node_budget=300,
                               flow_budget=900)
# Criterion 8's search seed, with a budget whose holdout distance already
# equals the long search's.
JDD_SEED = 7
JDD_BUDGET = 30
# Criterion 8's realization seeds; the pool index picks one.
SYNTH_SEEDS = (11, 22, 33, 44, 55)
RIPPLE_TRIALS = 20
FIT_TOL = 1e-9


def _fit_violations(fit, target) -> list[str]:
    """Criterion 8's stage-one constraints, each to FIT_TOL."""
    flows = fit.flow_counts
    total = float(target.flow_budget)
    k, n = target.channel_budget, target.node_budget
    checks = {
        "converged": fit.converged,
        "total": abs(sum(flows) - total) <= FIT_TOL,
        "non-negative": all(v >= -FIT_TOL for v in flows),
        "length-1 cap": flows[0] <= 2 * k * total / (n * (n - 1)) + FIT_TOL,
        "monotone tail": all(flows[i + 1] <= flows[i] + FIT_TOL
                             for i in range(1, len(flows) - 1)),
        "length cutoff": len(flows) == target.max_path_length,
        "degree cap": all(
            flows[i] <= target.max_degree ** (i + 1) * total / n + FIT_TOL
            for i in range(len(flows))),
    }
    return [name for name, ok in checks.items() if not ok]


def _synthesis_chain(t, tally, target, seed, budget):
    del tally
    with t.span("synthesis.optimize_path_length_dist"):
        fit = optimize_path_length_dist(target)
    t.count("synthesis.optimize_path_length_dist.iterations",
            len(fit.residual_history) - 2)
    flows, channels = target.flow_budget, target.channel_budget
    with t.span("ripple.predict_ripple"):
        prediction = predict_ripple(fit.distribution, flows, channels)
    with t.span("ripple.simulate_iid_peeling"):
        stats = simulate_iid_peeling(fit.distribution, flows, channels,
                                     seed=seed, trials=RIPPLE_TRIALS)
    with t.span("synthesis.optimize_jdd"):
        search = optimize_jdd(fit.distribution, target, seed=JDD_SEED,
                              budget=budget)
    t.count("synthesis.optimize_jdd.evaluations", search.evaluations)
    with t.span("synthesis.synthesize_matched"):
        network = synthesize_matched(search.jdd, fit.distribution, target,
                                     seed=seed)
    with t.span("synthesis.exact_path_length_distribution"):
        realized = exact_path_length_distribution(network)
    return {
        "fit_violations": _fit_violations(fit, target),
        "fit_residual": fit.residual,
        "stall_level": prediction.stall_level(),
        "success_rate": stats.success_rate,
        "status": search.status,
        "search_distance": search.distance,
        "synth_l1_gap": distribution_distance(realized, fit.distribution,
                                              "l1"),
    }


def synthesis_items(index: int, tiny: bool = False) -> list[Item]:
    seed = SYNTH_SEEDS[index]
    if tiny:
        target = SynthesisTarget(channel_budget=200, node_budget=80,
                                 flow_budget=250)
        return [_shared("chain", lambda t, tally: _synthesis_chain(
            t, tally, target, seed, 3), 60.0)]
    return [_shared("chain", lambda t, tally: _synthesis_chain(
        t, tally, SYNTH_TARGET, seed, JDD_BUDGET), 150.0)]


# Criterion 8's bars.  Checked instead of equality, so that a better
# stage-one solver is not counted as a failure.
SYNTHESIS_BARS = {"status": MATCHED, "max_distance": 0.06,
                  "max_l1_gap": 0.15}


def check_bars(output: dict, bars: dict) -> list[str]:
    found = []
    if output["fit_violations"]:
        found.append(f"fit constraints violated: {output['fit_violations']}")
    if output["status"] != bars["status"]:
        found.append(f"search status {output['status']}")
    if not output["search_distance"] <= bars["max_distance"]:
        found.append(f"search distance {output['search_distance']} > "
                     f"{bars['max_distance']}")
    if not output["synth_l1_gap"] <= bars["max_l1_gap"]:
        found.append(f"l1 gap {output['synth_l1_gap']} > "
                     f"{bars['max_l1_gap']}")
    return found


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int
    items: Callable[..., list[Item]]
    # Per-layer baseline rows: metric name -> (item key, span name).
    baseline: tuple[tuple[str, str, str], ...] = ()

    def check(self, reference: dict, index: int, key: str,
              output: dict) -> list[str]:
        """Reference problems with one item's output; empty when it passes."""
        if "bars" in reference:
            return check_bars(output, reference["bars"])
        expected = reference["entries"].get(str(index), {}).get(key)
        if expected is None:
            return [f"no reference for pool entry {index}, item {key}"]
        return mismatches(output, expected)


WORKLOADS = {w.name: w for w in (
    Workload("desk-sweep", 16, desk_sweep_items, baseline=(
        ("baseline.er3000.cell.ms", "ErdosRenyi/3000", "cell"),
        ("baseline.er3000.max_throughput.ms", "ErdosRenyi/3000",
         "lp.max_throughput"),
        ("baseline.er3000.build_routing_system.ms", "ErdosRenyi/3000",
         "model.build_routing_system"),
        ("baseline.er3000.build_paths.ms", "ErdosRenyi/3000",
         "demand.build_paths"),
    )),
    Workload("peel-stress", 16, peel_stress_items),
    Workload("exact-small", 16, exact_small_items),
    Workload("synthesis", len(SYNTH_SEEDS), synthesis_items),
)}
