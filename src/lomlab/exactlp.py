"""Exact strictly separating functionals.

``separating_functional`` solves a phase-1 linear program: is there an
x >= 0 with A x = b?  The simplex uses Bland's rule, which guarantees
termination.  Each tableau row is stored fraction-free, as Python ints over
one positive denominator; the true row is ``ints / den``.  A pivot takes one
gcd per row instead of one per arithmetic operation, and every comparison is
exact on the same rationals a Fraction tableau holds.  So the pivots are
those of the Fraction simplex (kept in ``tests/oracles.py`` as the
reference), and so is the solution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _feasible_nonneg(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """A nonnegative exact solution of A x = b, or None when infeasible.

    A has at least one row, and all its rows have the same length.
    """
    m = len(rows)
    n = len(rows[0])
    width = n + m
    # row i is [A_i | artificial e_i | b_i], sign-flipped so that b_i >= 0,
    # scaled to integers by the lcm of its denominators
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i, (row, beta) in enumerate(zip(rows, rhs)):
        entries = [*row, beta]
        den = lcm(*(e.denominator for e in entries))
        sign = -1 if beta < 0 else 1
        ints = [sign * e.numerator * (den // e.denominator) for e in entries]
        ints[n:n] = [0] * m
        ints[n + i] = den
        tableau.append(ints)
        dens.append(den)
    basis = [n + i for i in range(m)]

    # objective row: cost of artificials, reduced through the starting basis,
    # i.e. minus the sum of the rows, with the artificial columns cleared
    cost_den = lcm(*dens)
    cost = [0] * (width + 1)
    for ints, den in zip(tableau, dens):
        scale = cost_den // den
        for j, v in enumerate(ints):
            cost[j] -= v * scale
    for i in range(m):
        cost[n + i] = 0
    tableau.append(cost)
    dens.append(cost_den)
    for i in range(m + 1):
        _reduce(tableau, dens, i)

    while True:
        # den > 0, so the int row has the signs of the true row
        cost = tableau[m]
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: smallest ratio rhs_i / coeff_i (dens cancel), compared by
        # cross-multiplying positive coefficients; ties to the smallest
        # basis variable
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][width] * tableau[leave][enter]
                rhs_best = tableau[leave][width] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective is unbounded; cannot happen")
        _pivot(tableau, dens, leave, enter)
        basis[leave] = enter

    if cost[width] != 0:
        return None
    solution: Vector = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i][width], dens[i])
        elif tableau[i][width] != 0:
            return None  # artificial stuck at a positive level
    return solution


def _reduce(tableau: list[list[int]], dens: list[int], i: int) -> None:
    """Divide row i and its denominator by their gcd."""
    g = gcd(dens[i], *tableau[i])
    if g > 1:
        tableau[i] = [v // g for v in tableau[i]]
        dens[i] //= g


def _pivot(tableau: list[list[int]], dens: list[int], leave: int, enter: int) -> None:
    """Pivot on (leave, enter); the last row of the tableau is the cost row.

    The pivot row divided by its true pivot value is ``ints / ints[enter]``,
    and row i becomes ``(row_i * pd - f * pivot_row) / (den_i * pd)`` with
    pd the pivot row's entry and f row i's entry in the entering column.
    """
    dens[leave] = tableau[leave][enter]
    _reduce(tableau, dens, leave)
    pivot_row = tableau[leave]
    pd = dens[leave]
    for i, row in enumerate(tableau):
        f = row[enter]
        if i == leave or f == 0:
            continue
        tableau[i] = [v * pd - f * p for v, p in zip(row, pivot_row)]
        dens[i] *= pd
        _reduce(tableau, dens, i)


def separating_functional(
    vectors: Sequence[Sequence[Fraction]], index: int
) -> Vector | None:
    """An exact w with <w, v_index> >= 1 and <w, v_k> <= -1 for all k != index.

    Returns None when no such strictly separating functional exists.  Free
    coordinates are encoded as differences of nonnegative pairs, with one
    slack variable per vector.  Raises ValueError on an empty list of vectors
    or an index outside 0..len(vectors) - 1.
    """
    if not vectors:
        raise ValueError("separating_functional needs at least one vector")
    count = len(vectors)
    if not 0 <= index < count:
        raise ValueError(f"index {index} is outside 0..{count - 1}")
    dim = len(vectors[0])
    rows: Matrix = []
    rhs: Vector = []
    for k, vec in enumerate(vectors):
        if len(vec) != dim:
            raise ValueError("vectors must share a dimension")
        row = [Fraction(c) for c in vec] + [-Fraction(c) for c in vec] + [Fraction(0)] * count
        row[2 * dim + k] = Fraction(-1) if k == index else Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1) if k == index else Fraction(-1))
    solution = _feasible_nonneg(rows, rhs)
    if solution is None:
        return None
    return [solution[j] - solution[dim + j] for j in range(dim)]
