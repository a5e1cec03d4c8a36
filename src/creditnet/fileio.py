"""Text file formats for graphs, paths, and demand pairs.

Graph file: one header line `nodes <N>`, then one line per edge
`u v capacity` with u < v, 0-based ids, in canonical order. Capacities are
written as plain decimals when the rational has a terminating decimal
expansion and as `p/q` otherwise, so round-trips are exact either way.

Path file: one line per path, `src dst n0 n1 ... nk` (node sequence,
n0 = src, nk = dst). Demand file: one line per pair, `src dst`.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path as FsPath
from typing import Iterable, Sequence, Union

from .model import (
    CreditNetwork,
    Path,
    PathSet,
    make_network,
    path_from_nodes,
    path_nodes,
)

TextSource = Union[str, FsPath]


def format_rational(x: Fraction) -> str:
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    scaled = num * 10 ** shift // den
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(text)


def _read_text(source: TextSource) -> str:
    if isinstance(source, FsPath):
        return source.read_text(encoding="utf-8")
    return source


def write_graph(network: CreditNetwork) -> str:
    lines = [f"nodes {network.node_count}"]
    for (u, v), c in zip(network.edges, network.capacities):
        lines.append(f"{u} {v} {format_rational(c)}")
    return "\n".join(lines) + "\n"


def read_graph(source: TextSource) -> CreditNetwork:
    text = _read_text(source)
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("nodes "):
        raise ValueError("graph file must start with a 'nodes <N>' header")
    node_count = int(lines[0].split()[1])
    edges = []
    caps = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise ValueError(f"edge line not in u < v form: {ln!r}")
        edges.append((u, v))
        caps.append(parse_rational(parts[2]))
    return make_network(node_count, edges, caps)


def save_graph(network: CreditNetwork, path: FsPath) -> None:
    path.write_text(write_graph(network), encoding="utf-8")


def write_paths(network: CreditNetwork, paths: PathSet) -> str:
    lines = []
    for p in paths:
        nodes = path_nodes(network, p)
        lines.append(f"{p.source} {p.destination} " + " ".join(map(str, nodes)))
    return "\n".join(lines) + ("\n" if lines else "")


def read_paths(network: CreditNetwork, source: TextSource) -> PathSet:
    text = _read_text(source)
    out: list[Path] = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln:
            continue
        parts = [int(tok) for tok in ln.split()]
        if len(parts) < 4:
            raise ValueError(f"bad path line: {raw!r}")
        src, dst, nodes = parts[0], parts[1], parts[2:]
        if nodes[0] != src or nodes[-1] != dst:
            raise ValueError(f"path endpoints disagree with node walk: {raw!r}")
        out.append(path_from_nodes(network, nodes))
    return PathSet.of(out)


def write_demand(pairs: Iterable[tuple[int, int]]) -> str:
    lines = [f"{s} {d}" for s, d in pairs]
    return "\n".join(lines) + ("\n" if lines else "")


def read_demand(source: TextSource) -> list[tuple[int, int]]:
    text = _read_text(source)
    pairs = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln:
            continue
        s, d = ln.split()
        pairs.append((int(s), int(d)))
    return pairs
