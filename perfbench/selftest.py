"""Tiny-size smoke run of every workload.

    python3 perfbench/run.py --self-test

For each workload, one plain pass at tiny sizes records a reference.  A
measured run against it, untraced and traced, must report no failure
and emit exactly the metrics BENCHMARK.json names, with their units.
The same run against a reference with one value perturbed must report
a failure.  Two synthetic items check that a hang and a NaN throughput
are counted as failures too.
"""

from __future__ import annotations

import copy
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import harness
from workloads import WORKLOADS, Item, Tally

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def _reference_from(name: str, index: int, outputs: dict) -> dict:
    if name == "synthesis":
        out = outputs["chain"]
        return {"bars": {"status": out["status"],
                         "max_distance": out["search_distance"],
                         "max_l1_gap": out["synth_l1_gap"]}}
    return {"entries": {str(index): outputs}}


def _perturbed(name: str, ref: dict) -> dict:
    """The reference with one recorded value moved past any tolerance."""
    ref = copy.deepcopy(ref)
    if name == "synthesis":
        ref["bars"]["max_l1_gap"] -= 0.01
        return ref
    records = list(next(iter(ref["entries"].values())).values())
    while records:
        record = records.pop(0)
        for field, value in record.items():
            if isinstance(value, dict):
                records.append(value)
            elif isinstance(value, (int, float, Fraction)) \
                    and not isinstance(value, bool):
                record[field] = value + 1
                return ref
    raise ValueError(f"{name}: no numeric field to perturb")


def _expected_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _metric_problems(result: dict, wanted: dict) -> list[str]:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != wanted:
        problems.append(f"metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, units "
                        f"{[n for n in got if n in wanted and got[n] != wanted[n]]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            problems.append(f"{name} is not a finite number")
    json.dumps(result)
    return problems


def _synthetic_failures() -> list[str]:
    """A hang and a NaN throughput must each count as one failed item."""
    def hang(tally):
        time.sleep(5)

    def nan(tally):
        return {"phi": tally.psi(float("nan"))}

    items = [Item("hang", hang, None, 0.2), Item("nan", nan, None, 5.0)]
    result = harness.run_pass(items, lambda key, output: [],
                              Tally(), time.perf_counter() + 30)
    reasons = dict(result.failures)
    problems = []
    if "time limit" not in reasons.get("hang", ""):
        problems.append(f"hang not counted as a time-limit failure: {reasons}")
    if "NaN" not in reasons.get("nan", ""):
        problems.append(f"NaN not counted as a failure: {reasons}")
    return problems


def main() -> int:
    end_to_end, per_layer = _expected_metrics()
    deadline = time.perf_counter() + 600
    setup_s = harness.measure_setup("exact-small", SEED,
                                    Path(__file__).resolve().parent / "run.py")
    failures = []
    harness.install_alarm()
    failures += [f"synthetic: {p}" for p in _synthetic_failures()]
    for name in WORKLOADS:
        started = time.perf_counter()
        probe = harness.prepare(name, SEED, tiny=True, ref={"entries": {}})
        first = harness.run_pass(probe.items, lambda key, output: [],
                                 probe.tally, deadline)
        problems = [f"recording pass failed: {first.failures}"] \
            if first.failures else []
        ref = _reference_from(name, probe.index, first.outputs)

        run = harness.prepare(name, SEED, tiny=True, ref=ref)
        harness.measure(run, 0, False, deadline)
        metrics, _ = harness.end_to_end(run, setup_s)
        result = harness.result_json(run, metrics, dict(harness.END_TO_END))
        problems += _metric_problems(result, end_to_end)
        if result["failed"] or not result["correct"]:
            problems.append(f"untraced run failed: {run.failures}")

        run = harness.prepare(name, SEED, tiny=True, ref=ref)
        harness.measure(run, 0, True, deadline)
        metrics, _ = harness.per_layer(run)
        result = harness.result_json(run, metrics,
                                     harness.per_layer_units())
        problems += _metric_problems(result, per_layer)
        if result["failed"] or not result["correct"]:
            problems.append(f"traced run failed: {run.failures}")

        run = harness.prepare(name, SEED, tiny=True,
                              ref=_perturbed(name, ref))
        harness.measure(run, 0, False, deadline)
        if not run.failures:
            problems.append("perturbed reference not reported as a failure")

        verdict = "ok" if not problems else "FAIL"
        print(f"self-test {name}: {verdict} "
              f"({time.perf_counter() - started:.1f} s)")
        failures += [f"{name}: {p}" for p in problems]
    for failure in failures:
        print(f"  {failure}")
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1

