"""Passes over a workload's items, failure accounting, and the metrics.

A run repeats whole passes until at least the requested seconds have
been measured (always at least one pass).  Items run one at a time in
this process: one caller, closed loop.  Each item has a time limit
enforced with SIGALRM, so a hang becomes a counted failure without any
extra thread or process; a run-wide deadline keeps the whole run inside
its time budget.

Untraced passes run with a calibration sampler (see calibration.py):
their times exclude the calibration slices and are reported in
reference seconds, so that the machine's drifting speed cancels out.
"""

from __future__ import annotations

import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import reference
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, ItemFailure, Tally

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "out"
SETUP_PROBES = 3
# The fewest calibration slices a sampled pass may end with; a shorter
# pass is topped up with slices right after it.
MIN_SLICES = 20
# An item's time is scaled by the slices that ran during it, pooled with
# this many slices at its pass's mean: a long item follows the machine's
# speed while it ran, a short one falls back to its pass's speed.
ITEM_PRIOR_SLICES = 8
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

LP_FUNCTIONS = ("lp.max_throughput", "lp.min_throughput",
                "lp.one_step_throughput")
LAYER_FUNCTIONS = (
    "topology.gen_topology",
    "demand.sample_demand",
    "demand.build_paths",
    "peeling.build_peeling_graph",
    "peeling.peel",
    "model.build_routing_system",
) + LP_FUNCTIONS + (
    "oracle.max_deadlock_exact",
    "oracle.enumerate_reachable",
    "ripple.predict_ripple",
    "ripple.simulate_iid_peeling",
    "synthesis.optimize_path_length_dist",
    "synthesis.optimize_jdd",
    "synthesis.synthesize_matched",
    "synthesis.exact_path_length_distribution",
)
LAYER_COUNTS = (
    "demand.build_paths.pairs",
    "peeling.peel.steps",
    "model.build_routing_system.cells",
    "lp.cells",
    "lp.exact_calls",
    "oracle.max_deadlock_exact.unsolved",
    "oracle.enumerate_reachable.states",
    "synthesis.optimize_path_length_dist.iterations",
    "synthesis.optimize_jdd.evaluations",
)
# Output fields of the synthesis item reported as quality metrics.
QUALITY = ("fit_residual", "search_distance", "synth_l1_gap")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    for name in LAYER_COUNTS:
        units[name] = "count"
    units.update({
        "lp.calls": "count",
        "lp.ms_per_call": "ms",
        "lp.exact_share": "share",
        "peeling.unpeeled_share": "share",
        "synthesis.optimize_jdd.ms_per_eval": "ms",
    })
    for name in QUALITY:
        units[f"synthesis.{name}"] = "1"
    for workload in WORKLOADS.values():
        for metric, _, _ in workload.baseline:
            units[metric] = "ms"
    units["trace.overhead_share"] = "share"
    return units


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout


def install_alarm() -> None:
    """Route SIGALRM to ItemTimeout; run_pass relies on it."""
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclass
class Pass:
    wall: float = 0.0  # without calibration slices
    attempted: int = 0
    slices: int = 0
    slice_s: float = 0.0
    complete: bool = True
    times_ms: dict = field(default_factory=dict)
    item_slices: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _run_item(runner, tracer, limit_s):
    """(output, None) on success, (None, reason) on any failure."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        try:
            with tracer.span("item"):
                return runner(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return None, f"over its {limit_s:.1f} s time limit"
    except ItemFailure as exc:
        return None, str(exc)
    except Exception as exc:  # an item must never end the run
        return None, f"{type(exc).__name__}: {exc}"


def _no_slices() -> tuple[int, float]:
    return 0, 0.0


def run_pass(items, check, tally, deadline, tracer=None,
             sampler=None) -> Pass:
    """One pass over the items; `tracer` None runs the plain code path.
    With a `sampler`, calibration slices run during the pass and their
    time is left out of the item and pass times."""
    traced = tracer is not None
    tracer = tracer if traced else NullTracer()
    reading = sampler.reading if sampler is not None else _no_slices
    result = Pass()
    pass_slices = reading()
    started = time.perf_counter()
    for item in items:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            result.complete = False
            break
        limit = min(item.limit_s, remaining)
        result.attempted += 1
        tracer.begin_item(item.key)
        if traced:
            runner = lambda item=item: item.traced(tracer, tally)  # noqa: E731
        else:
            runner = lambda item=item: item.plain(tally)  # noqa: E731
        before = reading()
        t0 = time.perf_counter()
        output, reason = _run_item(runner, tracer, limit)
        elapsed = time.perf_counter() - t0
        after = reading()
        slices = (after[0] - before[0], after[1] - before[1])
        result.times_ms[item.key] = (elapsed - slices[1]) * 1000.0
        result.item_slices[item.key] = slices
        if reason is None:
            problems = check(item.key, output)
            if problems:
                reason = "reference mismatch: " + "; ".join(problems)
        if reason is not None:
            result.failures.append((item.key, reason))
            if limit < item.limit_s:
                result.complete = False
                break
        result.outputs[item.key] = output
    elapsed = time.perf_counter() - started
    slices, slice_s = reading()
    result.slices = slices - pass_slices[0]
    result.slice_s = slice_s - pass_slices[1]
    result.wall = elapsed - result.slice_s
    return result


@dataclass
class Run:
    workload: object
    index: int
    items: list
    reference: dict
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def check(self, key, output):
        return self.workload.check(self.reference, self.index, key, output)

    def passes(self):
        return self.plain + [p for p, _ in self.traced]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes())

    @property
    def failures(self) -> list:
        return [f for p in self.passes() for f in p.failures]


def prepare(workload_name: str, seed: int, tiny: bool = False,
            ref: dict | None = None) -> Run:
    """Everything a run does before its first item."""
    workload = WORKLOADS[workload_name]
    index = seed % workload.pool
    items = workload.items(index, tiny)
    if ref is None:
        ref = reference.load(workload_name)
    return Run(workload, index, items, ref)


def measure(run: Run, seconds: float, trace: bool, deadline: float) -> None:
    """Whole passes until `seconds` are measured; with `trace`, plain and
    traced passes alternate and their outputs must agree."""
    install_alarm()
    measured = 0.0
    while time.perf_counter() < deadline:
        plain = _sampled_pass(run, deadline) if not trace else run_pass(
            run.items, run.check, run.tally, deadline)
        run.plain.append(plain)
        measured += plain.wall
        complete = plain.complete
        if trace:
            tracer = Tracer()
            traced = run_pass(run.items, run.check, run.tally, deadline,
                              tracer)
            run.traced.append((traced, tracer))
            measured += traced.wall
            complete = complete and traced.complete
            for key, output in traced.outputs.items():
                other = plain.outputs.get(key)
                if None not in (output, other) and output != other:
                    traced.failures.append(
                        (key, "traced output differs from untraced"))
        if not complete or measured >= seconds:
            break


def _sampled_pass(run: Run, deadline: float) -> Pass:
    """A plain pass with the calibration sampler running."""
    sampler = calibration.Sampler()
    sampler.start()
    try:
        result = run_pass(run.items, run.check, run.tally, deadline,
                          sampler=sampler)
    finally:
        sampler.stop()
    if result.slices < MIN_SLICES:
        slices, slice_s = calibration.burst(MIN_SLICES - result.slices)
        result.slices += slices
        result.slice_s += slice_s
    return result


def measure_setup(workload_name: str, seed: int, script: Path) -> float:
    """Median wall time of fresh interpreters that import the program and
    prepare the run, stopping where the first item would start."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(script), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=PROBE_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError("setup probe failed: "
                               + done.stderr.decode(errors="replace"))
    return statistics.median(times)


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten items
    beyond it, once that lies above the median; the maximum before."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(run: Run, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics: pass and item times in reference seconds,
    set-up on the wall clock."""
    factors = [calibration.speed_factor(p.slices, p.slice_s)
               for p in run.plain]
    walls = [p.wall / f for p, f in zip(run.plain, factors)]
    per_item: dict[str, list[float]] = {}
    for p in run.plain:
        mean_slice_s = p.slice_s / p.slices
        for key, ms in p.times_ms.items():
            slices, slice_s = p.item_slices.get(key, (0, 0.0))
            factor = calibration.speed_factor(
                slices + ITEM_PRIOR_SLICES,
                slice_s + ITEM_PRIOR_SLICES * mean_slice_s)
            per_item.setdefault(key, []).append(ms / factor)
    item_ms = [statistics.median(v) for v in per_item.values()]
    tail, level = _tail(item_ms)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "items_per_s": sum(p.attempted for p in run.plain) / sum(walls),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw = statistics.median(p.wall for p in run.plain)
    slices = sum(p.slices for p in run.plain)
    notes = {
        "wall_s": f"median of {len(walls)} pass(es) of {len(run.items)} "
                  f"items; {raw:.4f} s on the wall clock, machine speed "
                  f"factor {statistics.median(factors):.3f} from {slices} "
                  f"slices",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreter starts, "
                   f"on the wall clock",
        "item_ms_p50": f"over {len(item_ms)} items, each the median of "
                       f"its passes",
        "item_ms_tail": f"p{level:.0f} of {len(item_ms)} items"
                        + (" (20 items or fewer: the maximum)"
                           if len(item_ms) <= 20 else ""),
    }
    lines = ["times in reference seconds (see calibration.py), "
             "set-up on the wall clock"]
    lines += [f"{name:<14} {values[name]:14.4f} {unit:<5} "
              f"{notes.get(name, '')}" for name, unit in END_TO_END]
    failed = len(run.failures)
    lines.append(f"{'error_share':<14} {failed / run.attempted:14.4f} share "
                 f"{failed} failed of {run.attempted} attempted")
    lines.extend(_quality_lines(run))
    return values, lines


def _exact_share(run: Run):
    tally = run.tally
    return tally.exact / tally.values if tally.values else None


def _quality(run: Run) -> dict:
    for p in run.plain:
        output = p.outputs.get("chain")
        if output is not None:
            return {name: output[name] for name in QUALITY}
    return {}


def _quality_lines(run: Run) -> list[str]:
    lines = []
    share = _exact_share(run)
    if share is not None:
        lines.append(f"{'exact_share':<14} {share:14.4f} share "
                     f"{run.tally.exact} of {run.tally.values} throughput "
                     f"values exact")
    for name, value in _quality(run).items():
        lines.append(f"{name:<14} {value:14.7f} 1")
    return lines


def _layer_pass(run: Run, tracer: Tracer) -> dict:
    totals = tracer.self_times_ms()
    m = {}
    for name in LAYER_FUNCTIONS:
        ms, calls = totals.get(name, (0.0, 0))
        m[f"{name}.ms"] = ms
        m[f"{name}.calls"] = calls
    for name in LAYER_COUNTS:
        m[name] = tracer.counters.get(name, 0)
    calls = sum(m[f"{name}.calls"] for name in LP_FUNCTIONS)
    lp_ms = sum(m[f"{name}.ms"] for name in LP_FUNCTIONS)
    m["lp.calls"] = calls
    m["lp.ms_per_call"] = lp_ms / calls if calls else 0.0
    edges = tracer.counters.get("peeling.edges", 0)
    m["peeling.unpeeled_share"] = (
        tracer.counters.get("peeling.unpeeled", 0) / edges if edges else 0.0)
    evaluations = m["synthesis.optimize_jdd.evaluations"]
    m["synthesis.optimize_jdd.ms_per_eval"] = (
        m["synthesis.optimize_jdd.ms"] / evaluations if evaluations else 0.0)
    for workload in WORKLOADS.values():
        for metric, key, span_name in workload.baseline:
            m[metric] = 0.0
    for metric, key, span_name in run.workload.baseline:
        m[metric] = sum((s.end - s.start) * 1000.0 for s in tracer.spans
                        if s is not None and s.item == key
                        and s.name == span_name)
    return m


def per_layer(run: Run) -> tuple[dict, list[str]]:
    passes = [_layer_pass(run, tracer) for _, tracer in run.traced]
    values = {name: statistics.median(p[name] for p in passes)
              for name in passes[0]}
    share = _exact_share(run)
    values["lp.exact_share"] = share if share is not None else 0.0
    quality = _quality(run)
    for name in QUALITY:
        values[f"synthesis.{name}"] = quality.get(name, 0.0)
    plain = statistics.median(p.wall for p in run.plain)
    traced = statistics.median(p.wall for p, _ in run.traced)
    values["trace.overhead_share"] = traced / plain - 1.0
    units = per_layer_units()
    values = {name: values[name] for name in units}
    lines = [f"{name:<48} {value:16.4f} {units[name]}"
             for name, value in values.items() if value]
    lines.append(f"(per pass, median of {len(passes)} traced pass(es); "
                 f"zero rows omitted here)")
    return values, lines


def result_json(run: Run, metrics: dict, units: dict) -> dict:
    failed = len(run.failures)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
