"""CNF satisfiability encoded as a full-deadlock question.

Every variable becomes a two-node channel whose imbalance orientation is the
truth value; clauses become payment paths chained through those channels.
Adjacent literals in a clause are joined by bridge channels carrying fresh
always-false variables, each pinned by a dedicated reverse flow. The formula
is satisfiable exactly when the whole construction can deadlock at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import CreditNetwork, PathSet, make_network

BRIDGE_CAPACITY = 2  # any positive value works; 2 keeps midpoints integral

SAT_BRUTEFORCE_VAR_LIMIT = 20


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for ci, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {ci} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"clause {ci}: literal {lit} out of range")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    variable_count = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            variable_count = int(parts[2])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if variable_count is None:
        raise ValueError("missing problem line")
    return CnfFormula(variable_count, tuple(clauses))


def _clean(cnf: CnfFormula) -> list[tuple[int, ...]]:
    # drop duplicate literals and always-true clauses so every clause visits
    # a variable at most once (paths must stay simple)
    cleaned = []
    for clause in cnf.clauses:
        seen = dict.fromkeys(clause)
        if any(-lit in seen for lit in seen):
            continue
        cleaned.append(tuple(sorted(seen, key=abs)))
    return cleaned


def insert_bridge_variables(cnf: CnfFormula) -> CnfFormula:
    """Rewrite so consecutive literals are separated by fresh variables.

    Each adjacent (sorted) literal pair gets a bridge variable, shared by
    every clause repeating that pair with the same polarities, and a
    one-literal clause forcing the bridge variable false.
    """
    clauses, bridges = _bridged_clauses(cnf)
    return CnfFormula(cnf.variable_count + len(bridges), tuple(clauses))


def _bridged_clauses(cnf: CnfFormula):
    bridges: dict[tuple[int, int, bool, bool], int] = {}
    next_var = cnf.variable_count
    rewritten: list[tuple[int, ...]] = []
    for clause in _clean(cnf):
        out: list[int] = []
        for left, right in zip(clause, clause[1:]):
            out.append(left)
            key = (abs(left), abs(right), left > 0, right > 0)
            if key not in bridges:
                next_var += 1
                bridges[key] = next_var
            out.append(bridges[key])
        out.append(clause[-1])
        rewritten.append(tuple(out))
    rewritten.extend((-v,) for v in bridges.values())
    return rewritten, bridges


def cnf_to_creditnet(cnf: CnfFormula) -> tuple[CreditNetwork, PathSet]:
    """Build the deadlock gadget: satisfiable input <=> fully deadlockable output.

    One vertical channel per original variable (top node above bottom node),
    one bridge channel per inserted variable, one path per rewritten clause.
    A positive literal is walked downward, a negative one upward; bridge
    channels are walked left-to-right inside clause paths and right-to-left
    by their dedicated pinning flows.
    """
    clauses, bridges = _bridged_clauses(cnf)

    def top(var: int) -> int:
        return 2 * (var - 1)

    def bottom(var: int) -> int:
        return 2 * (var - 1) + 1

    def entry(lit: int) -> int:
        return top(lit) if lit > 0 else bottom(-lit)

    def exit_(lit: int) -> int:
        return bottom(lit) if lit > 0 else top(-lit)

    edges = [(top(v), bottom(v)) for v in range(1, cnf.variable_count + 1)]
    bridge_ends: dict[int, tuple[int, int]] = {}
    for (vi, vj, pos_i, pos_j), var in bridges.items():
        li = vi if pos_i else -vi
        lj = vj if pos_j else -vj
        bridge_ends[var] = (exit_(li), entry(lj))
        edges.append(bridge_ends[var])

    node_count = 2 * cnf.variable_count
    net = make_network(node_count, edges, [BRIDGE_CAPACITY] * len(edges))

    walks = []
    for clause in clauses:
        if len(clause) == 1 and abs(clause[0]) > cnf.variable_count:
            # pinning flow: walk the bridge channel right-to-left
            walks.append(bridge_ends[abs(clause[0])][::-1])
        else:
            # bridge hops need no nodes of their own: each one runs from the
            # previous literal's exit to the next literal's entry
            walks.append([node for lit in clause if abs(lit) <= cnf.variable_count
                          for node in (entry(lit), exit_(lit))])
    return net, PathSet.of_walks(net, walks)


def sat_bruteforce(cnf: CnfFormula) -> bool:
    """Exhaustive satisfiability test for small formulas."""
    if cnf.variable_count > SAT_BRUTEFORCE_VAR_LIMIT:
        raise ValueError(f"too many variables for brute force ({cnf.variable_count})")
    for bits in product((False, True), repeat=cnf.variable_count):
        ok = True
        for clause in cnf.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False
