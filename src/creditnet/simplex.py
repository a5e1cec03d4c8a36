"""Exact two-phase simplex for the one-step throughput LP, on an integer tableau.

solve(delta, bounds) maximizes sum(x) subject to max(delta, 0).x <= bounds,
delta.x = 0 and x >= 0: lp's limit rows F.x <= min(b, c - b) and net-shift
rows (F - B).x = 0. delta is the dense channel x path incidence, each entry
-1, 0 or 1, with at least one row and a nonzero entry in every column (lp
refuses a path without hops); each bound is an int or a Fraction >= 0. So
x = 0 is feasible and the optimum is finite.
Dantzig pricing switches to Bland's rule after a fixed iteration budget,
which guarantees termination on degenerate problems.

Every tableau row, and the objective row, is held as a list of Python ints
that is a positive integer multiple of the rational row a textbook tableau
would hold. A pivot on row r, column k replaces each other row by
row * p - row[k] * pivot_row (p = pivot_row[k] > 0, after the pivot row's
sign is made positive) and divides the result by the gcd of its entries; no
rational is built per cell. Integer-preserving elimination is Bareiss's
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968); the gcd division keeps entries as
small as the rational tableau's numerators and denominators.

Every choice reads a sign or a ratio, and a positive row scale changes
neither: pricing takes the most negative objective entry (first index on
ties), and the ratio test compares rhs_i / a_i across rows by cross
multiplication (ties go to the lower basis index). So the pivots are those
of the rational tableau, and so are the basis and the answer. A basic x_j
is read as Fraction(rhs, row[j]); the objective row carries its own scale in
a trailing column, so the optimum is Fraction(row[rhs], row[-1]), exact.

Meant for small instances (a few thousand cells). Large problems should go
through the floating-point route instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

OPTIMAL = "Optimal"
UNBOUNDED = "Unbounded"
FAILURE = "NumericalFailure"

_ZERO = Fraction(0)

# Dantzig pricing can cycle on degenerate bases; Bland's rule cannot, so we
# fall back to it after this many pivots per phase.
BLAND_SWITCH_FACTOR = 5

# Hard cap per phase. Bland's rule terminates finitely, so hitting this means
# something is broken; we surface FAILURE instead of spinning.
ITERATION_CAP_FACTOR = 400


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _combine(row: list[int], q: int, factor: int, prow: list[int]) -> list[int]:
    """row * q - factor * prow, reduced; a positive multiple when q > 0.

    zip stops at prow, so a row longer than prow (the objective row and its
    scale) has its tail multiplied by q.
    """
    out = [a * q - factor * b for a, b in zip(row, prow)]
    out += [a * q for a in row[len(prow):]]
    return _reduced(out)


def _pivot(tab: list[list[int]], obj: list[int], basis: list[int], row: int, col: int) -> None:
    prow = tab[row]
    if prow[col] < 0:
        # dividing by a negative pivot: flip so the row's scale stays positive
        prow = [-v for v in prow]
        tab[row] = prow
    q = prow[col]
    for i, trow in enumerate(tab):
        if i == row:
            continue
        factor = trow[col]
        if factor:
            tab[i] = _combine(trow, q, factor, prow)
    factor = obj[col]
    if factor:
        obj[:] = _combine(obj, q, factor, prow)
    basis[row] = col


def _optimize(tab, obj, basis, banned, rhs_col, ncols) -> str:
    size = len(tab) + ncols
    bland_after = BLAND_SWITCH_FACTOR * size
    cap = ITERATION_CAP_FACTOR * size + 1000
    iters = 0
    while True:
        entering = None
        if iters < bland_after:
            best = 0
            for j in range(ncols - 1):
                if j in banned:
                    continue
                v = obj[j]
                if v < best:
                    best = v
                    entering = j
        else:
            for j in range(ncols - 1):
                if j not in banned and obj[j] < 0:
                    entering = j
                    break
        if entering is None:
            return OPTIMAL
        # ratio rhs_i / a_i < rhs_l / a_l  <=>  rhs_i * a_l < rhs_l * a_i  (a > 0)
        leave = None
        for i, trow in enumerate(tab):
            a = trow[entering]
            if a > 0:
                if leave is None:
                    leave, best_rhs, best_a = i, trow[rhs_col], a
                    continue
                lhs = trow[rhs_col] * best_a
                rhs = best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, trow[rhs_col], a
        if leave is None:
            return UNBOUNDED
        _pivot(tab, obj, basis, leave, entering)
        iters += 1
        if iters > cap:
            return FAILURE


def solve(delta: list[list[int]], bounds: list) -> tuple[str, tuple, Fraction]:
    """The throughput LP's (status, x, value): x a tuple of Fractions (empty
    when not OPTIMAL) and value a Fraction.

    Columns: the paths, a slack per limit row, an artificial per net-shift
    row, the rhs. Limit row e is den(b_e) times its rational row, already
    in lowest terms since num(b_e) and den(b_e) are coprime.
    """
    m, nvars = len(delta), len(delta[0])
    rhs_col = nvars + 2 * m
    ncols = rhs_col + 1
    tab: list[list[int]] = []
    for e, (row, bound) in enumerate(zip(delta, bounds, strict=True)):
        den = bound.denominator
        trow = [den if v > 0 else 0 for v in row] + [0] * (2 * m + 1)
        trow[nvars + e] = den
        trow[rhs_col] = bound.numerator
        tab.append(trow)
    for e, row in enumerate(delta):
        trow = list(row) + [0] * (2 * m + 1)
        trow[nvars + m + e] = 1
        tab.append(trow)
    basis = list(range(nvars, rhs_col))
    banned = set(range(nvars + m, rhs_col))

    # Phase 1: maximize minus the artificial sum, priced out for the basic
    # artificials: minus the column sums of delta, in the objective row's
    # scale (a trailing column, here 1). Its optimum is 0, since x = 0 is
    # feasible.
    obj = [-sum(col) for col in zip(*delta)] + [0] * (2 * m + 1) + [1]
    if _optimize(tab, obj, basis, set(), rhs_col, ncols) != OPTIMAL:
        return FAILURE, (), _ZERO
    # Degenerate artificials may linger in the basis at level zero; pivot
    # them out, or drop the row when it has become redundant.
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] not in banned:
            continue
        pivot_col = next(
            (j for j in range(rhs_col) if j not in banned and tab[i][j] != 0),
            None,
        )
        if pivot_col is None:
            del tab[i]
            del basis[i]
        else:
            dummy = [0] * (ncols + 1)
            _pivot(tab, dummy, basis, i, pivot_col)

    # Phase 2: maximize sum(x), priced out for the basic paths.
    obj = [-1] * nvars + [0] * (ncols - nvars) + [1]
    for i, bcol in enumerate(basis):
        factor = obj[bcol]
        if factor:
            obj = _combine(obj, tab[i][bcol], factor, tab[i])

    status = _optimize(tab, obj, basis, banned, rhs_col, ncols)
    if status != OPTIMAL:
        return status, (), _ZERO

    x = [_ZERO] * nvars
    for i, bcol in enumerate(basis):
        if bcol < nvars:
            x[bcol] = Fraction(tab[i][rhs_col], tab[i][bcol])
    return OPTIMAL, tuple(x), Fraction(obj[rhs_col], obj[-1])
