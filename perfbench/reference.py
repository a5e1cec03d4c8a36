"""Stored seed-commit outputs and the numeric rules for comparing to them.

Throughput values are stored tagged: ``q:<p>/<q>`` for an exact Fraction
and ``f:<repr>`` for a float.  A Fraction compared with a Fraction must
be equal; any comparison involving a float passes within REL_TOL
relative, so a later exact route still matches a recorded float and
``-0.0`` matches ``0``.  Every other field (counts, outcomes, statuses)
compares exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REL_TOL = 1e-9

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def encode(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return f"q:{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


def decode(value):
    if isinstance(value, str) and value[:2] == "q:":
        return Fraction(value[2:])
    if isinstance(value, str) and value[:2] == "f:":
        return float(value[2:])
    if isinstance(value, list):
        return [decode(v) for v in value]
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    return value


def _is_number(value) -> bool:
    return isinstance(value, (Fraction, float))


def same_number(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def mismatches(output: dict, expected: dict, prefix: str = "") -> list[str]:
    """Field-by-field differences between an item output and its reference."""
    found = []
    for field in sorted(set(output) | set(expected)):
        name = prefix + field
        if field not in output or field not in expected:
            found.append(f"{name}: present on one side only")
            continue
        got, want = output[field], expected[field]
        if isinstance(got, dict) and isinstance(want, dict):
            found.extend(mismatches(got, want, name + "."))
        elif not _agree(got, want):
            found.append(f"{name}: got {got!r}, reference {want!r}")
    return found


def _agree(got, want) -> bool:
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            _agree(g, w) for g, w in zip(got, want))
    if _is_number(got) and _is_number(want):
        return same_number(got, want)
    if isinstance(got, (int, str, bool)) or got is None:
        return type(got) is type(want) and got == want
    return False


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    data = json.loads(path_for(workload).read_text(encoding="utf-8"))
    data["entries"] = {k: decode(v) for k, v in data["entries"].items()}
    return data


def save(workload: str, data: dict) -> None:
    stored = dict(data)
    stored["entries"] = {k: encode(v) for k, v in data["entries"].items()}
    path_for(workload).write_text(json.dumps(stored, indent=1) + "\n",
                                  encoding="utf-8")
