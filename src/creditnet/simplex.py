"""Dense two-phase simplex over exact rationals, run on an integer tableau.

Solves   maximize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
exactly on rational inputs. Dantzig pricing switches to Bland's rule after a
fixed iteration budget, which guarantees termination on degenerate problems.

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
from math import gcd, lcm

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
FAILURE = "NumericalFailure"

_ZERO = Fraction(0)

# Dantzig pricing can cycle on degenerate bases; Bland's rule cannot, so we
# fall back to it after this many pivots per phase.
BLAND_SWITCH_FACTOR = 5

# Hard cap per phase. Bland's rule terminates finitely, so hitting this means
# something is broken; we surface FAILURE instead of spinning.
ITERATION_CAP_FACTOR = 400


def _exact(value):
    """An int or a Fraction as it is, anything else as a Fraction; floats
    are rejected."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("exact simplex rejects floats; use the float route")
    return Fraction(value)


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


def _integer_row(values: list) -> tuple[list[int], int]:
    """The exact values times the lcm of their denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_dense(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Maximize c.x over the given constraints; return (status, x, value).

    x is a tuple of Fractions (empty when not OPTIMAL), value a Fraction.
    All inputs must be exact (int, Fraction, or string); floats are rejected.
    """
    c = [_exact(v) for v in c]
    nvars = len(c)
    # each row holds its coefficients with the bound last
    rows: list[list] = []
    kinds: list[str] = []
    for row, bound in zip(a_ub, b_ub, strict=True):
        coeffs = [_exact(v) for v in row]
        if len(coeffs) != nvars:
            raise ValueError("inequality row width does not match objective")
        rows.append(coeffs + [_exact(bound)])
        kinds.append("le")
    for row, bound in zip(a_eq, b_eq, strict=True):
        coeffs = [_exact(v) for v in row]
        if len(coeffs) != nvars:
            raise ValueError("equality row width does not match objective")
        rows.append(coeffs + [_exact(bound)])
        kinds.append("eq")
    m = len(rows)

    if nvars == 0:
        if any(kinds[i] == "eq" and rows[i][-1] != 0 for i in range(m)):
            return INFEASIBLE, (), _ZERO
        if any(kinds[i] == "le" and rows[i][-1] < 0 for i in range(m)):
            return INFEASIBLE, (), _ZERO
        return OPTIMAL, (), _ZERO
    if m == 0:
        if any(v > 0 for v in c):
            return UNBOUNDED, (), _ZERO
        return OPTIMAL, tuple([_ZERO] * nvars), _ZERO

    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
            if kinds[i] == "le":
                kinds[i] = "ge"

    slack_of: dict[int, int] = {}
    col = nvars
    for i in range(m):
        if kinds[i] != "eq":
            slack_of[i] = col
            col += 1
    art_of: dict[int, int] = {}
    for i in range(m):
        if kinds[i] != "le":
            art_of[i] = col
            col += 1
    rhs_col = col
    ncols = col + 1

    # Row i is scale_i times its rational row: slack and artificial
    # coefficients, +-1 in original units, are +-scale_i here.
    tab: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        values, scale = _integer_row(rows[i])
        trow = [0] * ncols
        trow[:nvars] = values[:nvars]
        if i in slack_of:
            trow[slack_of[i]] = scale if kinds[i] == "le" else -scale
        if i in art_of:
            trow[art_of[i]] = scale
        trow[rhs_col] = values[nvars]
        tab.append(_reduced(trow))
        basis.append(slack_of[i] if kinds[i] == "le" else art_of[i])

    banned: set[int] = set(art_of.values())

    if art_of:
        # Phase 1: maximize minus the artificial sum, priced out for the
        # rows where an artificial starts basic. The objective row carries
        # its scale in a trailing column (here 1).
        obj = [0] * ncols + [1]
        for j in art_of.values():
            obj[j] = 1
        for i, bcol in enumerate(basis):
            if bcol in banned:
                # obj - row / scale_i, where tab[i][bcol] is scale_i
                obj = _combine(obj, tab[i][bcol], obj[-1], tab[i])
        status = _optimize(tab, obj, basis, set(), rhs_col, ncols)
        if status != OPTIMAL:
            return FAILURE, (), _ZERO
        if obj[rhs_col] != 0:
            return INFEASIBLE, (), _ZERO
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

    cost, scale = _integer_row(c)
    obj = [-v for v in cost] + [0] * (ncols - nvars) + [scale]
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
