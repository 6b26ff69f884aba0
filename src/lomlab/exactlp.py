"""Exact rational linear feasibility.

Phase-1 simplex over fractions with Bland's pivoting rule, which guarantees
termination.  Only feasibility of {x >= 0, A x = b} is needed here: the
geometry code uses it to find strictly separating functionals, and the test
oracles use it for convex-hull membership questions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def feasible_nonneg(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """A nonnegative exact solution of A x = b, or None when infeasible."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a: Matrix = []
    b: Vector = []
    for row, beta in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        if beta < 0:
            a.append([-Fraction(v) for v in row])
            b.append(-Fraction(beta))
        else:
            a.append([Fraction(v) for v in row])
            b.append(Fraction(beta))

    # tableau with one artificial variable per row; minimize their sum
    width = n + m
    tableau: Matrix = []
    for i in range(m):
        row = a[i] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # objective row: cost of artificials, reduced through the starting basis
    cost: Vector = [Fraction(0)] * (width + 1)
    for row in tableau:
        for j in range(width + 1):
            cost[j] -= row[j]
    for i in range(m):
        cost[n + i] = Fraction(0)

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: smallest ratio, ties to the smallest basis variable
        leave = None
        best: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective is unbounded; cannot happen")
        _pivot(tableau, cost, basis, leave, enter, width)

    if -cost[width] != 0:
        return None
    solution: Vector = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][width]
        elif tableau[i][width] != 0:
            return None  # artificial stuck at a positive level
    return solution


def _pivot(tableau: Matrix, cost: Vector, basis: list[int], leave: int, enter: int, width: int) -> None:
    pivot_row = tableau[leave]
    pivot = pivot_row[enter]
    for j in range(width + 1):
        pivot_row[j] /= pivot
    for i, row in enumerate(tableau):
        if i != leave and row[enter] != 0:
            factor = row[enter]
            for j in range(width + 1):
                row[j] -= factor * pivot_row[j]
    factor = cost[enter]
    if factor != 0:
        for j in range(width + 1):
            cost[j] -= factor * pivot_row[j]
    basis[leave] = enter


def separating_functional(
    vectors: Sequence[Sequence[Fraction]], index: int
) -> Vector | None:
    """An exact w with <w, v_index> >= 1 and <w, v_k> <= -1 for all k != index.

    Returns None when no such strictly separating functional exists.  Free
    coordinates are encoded as differences of nonnegative pairs, with one
    slack variable per vector.
    """
    dim = len(vectors[0])
    count = len(vectors)
    rows: Matrix = []
    rhs: Vector = []
    for k, vec in enumerate(vectors):
        if len(vec) != dim:
            raise ValueError("vectors must share a dimension")
        row = [Fraction(c) for c in vec] + [-Fraction(c) for c in vec] + [Fraction(0)] * count
        row[2 * dim + k] = Fraction(-1) if k == index else Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1) if k == index else Fraction(-1))
    solution = feasible_nonneg(rows, rhs)
    if solution is None:
        return None
    return [solution[j] - solution[dim + j] for j in range(dim)]

