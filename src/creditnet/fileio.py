"""Text file formats for graphs, paths, and demand pairs.

Graph file: one header line `nodes <N>`, then one line per edge
`u v capacity` with u < v, 0-based ids, in canonical order. Capacities are
written as plain decimals when the rational has a terminating decimal
expansion and as `p/q` otherwise, so round-trips are exact either way.

Path file: one line per path, `src dst n0 n1 ... nk` (node walk, n0 = src,
nk = dst, k >= 1), read and written through the `PathSet` node-walk
converters; `build_routing_system` checks both. Demand file: `src dst` lines.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path as FsPath
from typing import Iterable, Union

from .model import CreditNetwork, PathSet, build_routing_system, make_network

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


def _lines(source: TextSource) -> list[str]:
    """The stripped, non-empty lines of a file, or of a text."""
    text = source.read_text(encoding="utf-8") if isinstance(source, FsPath) else source
    return [ln for ln in map(str.strip, text.splitlines()) if ln]


def write_graph(network: CreditNetwork) -> str:
    lines = [f"nodes {network.node_count}"]
    for (u, v), c in zip(network.edges, network.capacities):
        lines.append(f"{u} {v} {format_rational(c)}")
    return "\n".join(lines) + "\n"


def read_graph(source: TextSource) -> CreditNetwork:
    lines = _lines(source)
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
    walks = paths.walks(network)
    hopless = [i for i, walk in enumerate(walks) if len(walk) < 2]
    if hopless:
        raise ValueError(f"path {hopless[0]}: a path file needs at least one hop")
    lines = [f"{w[0]} {w[-1]} " + " ".join(map(str, w)) for w in walks]
    return "\n".join(lines) + ("\n" if lines else "")


def read_paths(network: CreditNetwork, source: TextSource) -> PathSet:
    walks = []
    for ln in _lines(source):
        parts = [int(tok) for tok in ln.split()]
        if len(parts) < 4:
            raise ValueError(f"bad path line: {ln!r}")
        if parts[2] != parts[0] or parts[-1] != parts[1]:
            raise ValueError(f"path endpoints disagree with node walk: {ln!r}")
        walks.append(parts[2:])
    paths = PathSet.of_walks(network, walks)
    build_routing_system(network, paths)  # input from outside: check it all
    return paths


def write_demand(pairs: Iterable[tuple[int, int]]) -> str:
    lines = [f"{s} {d}" for s, d in pairs]
    return "\n".join(lines) + ("\n" if lines else "")


def read_demand(source: TextSource) -> list[tuple[int, int]]:
    pairs = []
    for ln in _lines(source):
        try:
            s, d = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad demand line: {ln!r}") from None
        pairs.append((s, d))
    return pairs
