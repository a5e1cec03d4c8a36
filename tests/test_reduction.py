import random

import pytest

from creditnet.model import FORWARD
from creditnet.oracle import max_deadlock_exact
from creditnet.reduction import (
    CnfFormula,
    cnf_to_creditnet,
    insert_bridge_variables,
    parse_dimacs,
    sat_bruteforce,
)

WORKED = CnfFormula(4, ((1, 2, 3), (4, -2), (-3,)))


def test_parse_dimacs():
    text = "c tiny example\np cnf 3 2\n1 -2 0\n2 3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.variable_count == 3
    assert cnf.clauses == ((1, -2), (2, 3))


def test_parse_dimacs_multiline_clause():
    cnf = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
    assert cnf.clauses == ((1, -2),)


def test_parse_dimacs_requires_problem_line():
    with pytest.raises(ValueError, match="problem line"):
        parse_dimacs("1 2 0\n")


def test_formula_rejects_empty_clause():
    with pytest.raises(ValueError, match="empty"):
        CnfFormula(2, ((1,), ()))


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(ValueError, match="literal"):
        CnfFormula(2, ((1, 3),))


def test_bridge_insertion_on_worked_formula():
    rewritten = insert_bridge_variables(WORKED)
    assert rewritten.variable_count == 7
    assert rewritten.clause_count == 6
    assert rewritten.clauses == (
        (1, 5, 2, 6, 3),
        (-2, 7, 4),
        (-3,),
        (-5,),
        (-6,),
        (-7,),
    )


def test_bridge_variables_are_shared_across_clauses():
    cnf = CnfFormula(3, ((1, 2), (1, 2, 3), (-1, 2)))
    rewritten = insert_bridge_variables(cnf)
    # (1,2) appears twice with the same polarities: one bridge, not two
    assert rewritten.variable_count == 3 + 3


def test_gadget_sizes_on_worked_formula():
    net, paths = cnf_to_creditnet(WORKED)
    assert net.node_count == 8
    assert net.edge_count == 7
    assert len(paths) == 6
    assert set(net.edges) == {(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (3, 4), (2, 6)}


def test_gadget_clause_walks_on_worked_formula():
    net, paths = cnf_to_creditnet(WORKED)
    walks = paths.walks(net)
    assert walks[0] == [0, 1, 2, 3, 4, 5]
    assert walks[1] == [3, 2, 6, 7]
    assert walks[2] == [5, 4]
    assert walks[3:] == [[2, 1], [4, 3], [6, 2]]


def test_gadget_single_positive_clause():
    net, paths = cnf_to_creditnet(CnfFormula(1, ((1,),)))
    assert net.edge_count == 1
    assert len(paths) == 1
    assert paths[0].hops == ((0, FORWARD),)


def test_sat_bruteforce_tautology():
    assert sat_bruteforce(CnfFormula(1, ((1, -1),)))


def test_sat_bruteforce_contradiction():
    assert not sat_bruteforce(CnfFormula(1, ((1,), (-1,))))


def test_sat_bruteforce_variable_limit():
    with pytest.raises(ValueError, match="brute force"):
        sat_bruteforce(CnfFormula(21, ((1,),)))


def _dpll(clauses, assignment):
    clauses = [c for c in clauses if not any(assignment.get(abs(l)) == (l > 0) for l in c)]
    clauses = [
        tuple(l for l in c if assignment.get(abs(l)) is None) for c in clauses
    ]
    if not clauses:
        return True
    if any(not c for c in clauses):
        return False
    unit = next((c[0] for c in clauses if len(c) == 1), None)
    if unit is not None:
        return _dpll(clauses, {**assignment, abs(unit): unit > 0})
    var = abs(clauses[0][0])
    return _dpll(clauses, {**assignment, var: True}) or _dpll(
        clauses, {**assignment, var: False}
    )


def _random_cnf(rng, max_vars, max_clauses):
    nvars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, nvars))
        chosen = rng.sample(range(1, nvars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(nvars, tuple(clauses))


def test_sat_bruteforce_agrees_with_dpll():
    rng = random.Random(31)
    for _ in range(60):
        cnf = _random_cnf(rng, 8, 10)
        assert sat_bruteforce(cnf) == _dpll(list(cnf.clauses), {})


def test_satisfiable_iff_fully_deadlockable():
    rng = random.Random(17)
    for _ in range(40):
        cnf = _random_cnf(rng, 5, 6)
        net, paths = cnf_to_creditnet(cnf)
        result = max_deadlock_exact(net, paths, max_edges=64)
        assert result.status == "Optimal"
        fully = result.size == net.edge_count
        assert fully == sat_bruteforce(cnf)


def test_full_deadlock_witness_blocks_every_path():
    net, paths = cnf_to_creditnet(WORKED)
    result = max_deadlock_exact(net, paths, max_edges=16)
    assert result.size == net.edge_count
    witness = result.witness_state
    for path in paths:
        blocked = any(
            (witness.balances[e] == 0 and d == FORWARD)
            or (witness.balances[e] == net.capacities[e] and d != FORWARD)
            for e, d in path.hops
        )
        assert blocked
