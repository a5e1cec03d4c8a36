"""Run one creditnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and unit.

Other modes:

    --self-test          tiny smoke run of every workload (see selftest.py)
    --record-reference   re-record reference/<workload>.json; only ever on
                         the commit the references belong to
    --setup-probe        internal: prepare a run and exit (times set-up)
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("desk-sweep", "peel-stress", "exact-small", "synthesis")
# A run must finish within 180 s; stop starting work well before that.
HARD_LIMIT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_program() -> str | None:
    """Put the checkout's src/ first on the path; an error message if the
    program is not there."""
    package = SRC / "creditnet" / "__init__.py"
    if not package.is_file():
        return f"{package} not found; run from the root of a creditnet checkout"
    sys.path.insert(0, str(SRC))
    import creditnet

    if Path(creditnet.__file__).resolve() != package.resolve():
        return f"imported creditnet from {creditnet.__file__}, not {package}"
    return None


def _record(name: str) -> int:
    import harness
    import reference
    from workloads import SYNTHESIS_BARS, WORKLOADS

    workload = WORKLOADS[name]
    data = {"workload": name, "pool": workload.pool, "entries": {}}
    if name == "synthesis":
        data["bars"] = SYNTHESIS_BARS
    harness.install_alarm()
    for index in range(workload.pool):
        run = harness.prepare(name, index, ref=data)
        result = harness.run_pass(run.items, lambda key, output: [],
                                  run.tally, float("inf"))
        if result.failures:
            print(f"pool entry {index} failed: {result.failures}",
                  file=sys.stderr)
            return 1
        data["entries"][str(index)] = result.outputs
        print(f"{name} pool entry {index}: {result.wall:.2f} s", flush=True)
    if "bars" in data:
        for index, entry in data["entries"].items():
            problems = workload.check(data, int(index), "chain",
                                      entry["chain"])
            if problems:
                print(f"pool entry {index} misses a bar: {problems}",
                      file=sys.stderr)
                return 1
    reference.save(name, data)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    error = _import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.record_reference:
        return _record(args.workload)

    import harness

    if args.setup_probe:
        harness.prepare(args.workload, args.seed)
        return 0
    setup_s = None
    if not args.trace:
        setup_s = harness.measure_setup(args.workload, args.seed,
                                        Path(__file__).resolve())
    run = harness.prepare(args.workload, args.seed)
    harness.measure(run, args.seconds, bool(args.trace),
                    STARTED + HARD_LIMIT_S)
    if args.trace:
        harness.TRACE_DIR.mkdir(exist_ok=True)
        trace_file = harness.TRACE_DIR / (
            f"trace-{args.workload}-seed{args.seed}.jsonl")
        trace_file.unlink(missing_ok=True)
        for index, (_, tracer) in enumerate(run.traced):
            tracer.dump(trace_file, index)

    print(f"workload {args.workload}, seed {args.seed} (pool entry "
          f"{run.index} of {run.workload.pool}), trace {args.trace}")
    for key, reason in run.failures:
        print(f"FAILED {key}: {reason}")
    if args.trace:
        metrics, lines = harness.per_layer(run)
        units = harness.per_layer_units()
        lines.append(f"spans written to {trace_file.relative_to(HERE.parent)}")
    else:
        metrics, lines = harness.end_to_end(run, setup_s)
        units = dict(harness.END_TO_END)
    print("\n".join(lines))
    print(json.dumps(harness.result_json(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
