"""Exact strictly separating functionals.

``separating_functional`` solves a phase-1 linear program: is there an
x >= 0 with A x = b?  The simplex uses Bland's rule, which guarantees
termination.  The tableau is fraction-free (Edmonds, Bareiss): every row,
the cost row too, holds Python ints over one shared positive denominator,
the basis determinant, and a pivot divides each updated row exactly by the
previous pivot, so a pivot takes no gcd and every comparison is exact on
the same rationals a Fraction tableau holds.  Half of the program's
columns repeat the other half up to sign (w = x+ - x-, and each slack
against its artificial), so only the independent half is stored and Bland's
rule reads the rest off it.  So the pivots are those of the full Fraction
simplex (kept in ``tests/oracles.py`` as the reference), and so is the
solution.  Coordinates are exact: a float raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = list[Fraction]


def as_fraction(value) -> Fraction:
    """An exact coordinate; floats are refused, so none enters a decision."""
    if isinstance(value, float):
        raise TypeError("coordinates must be exact (int, Fraction or 'p/q' text)")
    return Fraction(value)


def _pivot(tableau: list[list[int]], den: int, leave: int, column: list[int]) -> int:
    """Pivot on row leave, with column the int entries of every row in the
    entering column and den the rows' shared denominator; the last row of
    the tableau is the cost row.  Returns the new denominator, the pivot
    entry p: the pivot row's ints stay, and every other row becomes
    ``(row * p - f * pivot_row) // den`` with f its entry in the entering
    column, a division that is exact (Bareiss)."""
    p = column[leave]
    pivot_row = tableau[leave]
    for i, (row, f) in enumerate(zip(tableau, column)):
        if i != leave:
            tableau[i] = [(v * p - f * q) // den for v, q in zip(row, pivot_row)]
    return p


def _entering(cost: list[int], den: int, dim: int, count: int):
    """Bland's entering variable, the first with a negative reduced cost in
    x+, x-, s, a order, as (variable number, stored column, sign of that
    column in the constraint rows, the cost row's int entry); None at the
    optimum.  den > 0, so the int row has the signs of the true row."""
    for j in range(dim):
        if cost[j] < 0:
            return j, j, 1, cost[j]
    for j in range(dim):
        if cost[j] > 0:
            return dim + j, j, -1, -cost[j]
    for k in range(dim, dim + count):
        if cost[k] > den:
            return dim + k, k, -1, den - cost[k]
    for k in range(dim, dim + count):
        if cost[k] < 0:
            return dim + count + k, k, 1, cost[k]
    return None


def separating_functional(
    vectors: Sequence[Sequence[Fraction]], index: int
) -> Vector | None:
    """An exact w with <w, v_index> >= 1 and <w, v_k> <= -1 for all k != index.

    Returns None when no such strictly separating functional exists.  The
    phase-1 program has the variables x+ and x- (w = x+ - x-), one slack s
    and one artificial a per vector, in that order, and row k, signed so
    that its right-hand side is 1, reads

        e_k <v_k, x+ - x-> - s_k + a_k = 1,  e_k = 1 if k == index else -1.

    Every tableau is a sequence of row operations on these rows, so its x-
    columns are minus its x+ columns and its slack columns minus its
    artificial columns.  The cost row is the reduced cost of sum(a), and
    there the slack entry is 1 minus the artificial entry.  Only the x+ and
    artificial columns and the right-hand side are stored; Bland's rule
    still scans x+, x-, s and a in that order and breaks ties on the
    original variable numbers, so the pivots are those of the full tableau.
    Raises ValueError on an empty list of vectors or an index outside
    0..len(vectors) - 1, and TypeError on a float coordinate.
    """
    if not vectors:
        raise ValueError("separating_functional needs at least one vector")
    count = len(vectors)
    if not 0 <= index < count:
        raise ValueError(f"index {index} is outside 0..{count - 1}")
    dim = len(vectors[0])
    art, rhs = dim, dim + count  # first artificial column, right-hand side
    if any(len(vec) != dim for vec in vectors):
        raise ValueError("vectors must share a dimension")
    coords = [[as_fraction(c) for c in vec] for vec in vectors]
    # the x columns scaled by the lcm of every denominator: a positive
    # scale of x+ and x-, so Bland's rule takes the same pivots, and every
    # row is integral with the identity in the artificial columns
    scale = lcm(*(c.denominator for vec in coords for c in vec))
    tableau: list[list[int]] = []
    for k, vec in enumerate(coords):
        sign = 1 if k == index else -1
        ints = [sign * c.numerator * (scale // c.denominator) for c in vec] + [0] * count + [1]
        ints[art + k] = 1
        tableau.append(ints)
    # basis variables by their number in x+, x-, s, a order
    basis = list(range(2 * dim + count, 2 * dim + 2 * count))
    # cost row: minus the sum of the rows, with the artificial columns cleared
    cost = [-sum(column) for column in zip(*tableau)]
    cost[art:rhs] = [0] * count
    tableau.append(cost)
    den = 1  # every row's denominator, the basis determinant

    while True:
        enter = _entering(tableau[count], den, dim, count)
        if enter is None:
            break
        var, col, sign, cost_entry = enter
        column = [sign * row[col] for row in tableau[:count]] + [cost_entry]
        # Bland: smallest ratio rhs_i / coeff_i (den cancels), compared by
        # cross-multiplying positive coefficients; ties to the smallest
        # basis variable
        leave = None
        for i in range(count):
            coeff = column[i]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][rhs] * column[leave]
                rhs_best = tableau[leave][rhs] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective is unbounded; cannot happen")
        den = _pivot(tableau, den, leave, column)
        basis[leave] = var

    if tableau[count][rhs] != 0:
        return None
    w = [Fraction(0)] * dim
    for i, var in enumerate(basis):
        if var < 2 * dim:
            value = Fraction(scale * tableau[i][rhs], den)
            if var < dim:
                w[var] += value
            else:
                w[var - dim] -= value
        elif var >= 2 * dim + count and tableau[i][rhs] != 0:
            return None  # artificial stuck at a positive level
    return w
