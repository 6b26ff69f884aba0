"""Exact strictly separating functionals.

``separating_functional`` solves a phase-1 linear program: is there an
x >= 0 with A x = b?  The simplex uses Bland's rule, which guarantees
termination.  The tableau is fraction-free (Edmonds, Bareiss): every row,
the cost row too, holds integers over one shared positive denominator,
the basis determinant, and a pivot divides each updated row exactly by the
previous pivot, so a pivot takes no gcd and every comparison is exact on
the same rationals a Fraction tableau holds.  Half of the program's
columns repeat the other half up to sign (w = x+ - x-, and each slack
against its artificial), so only the independent half is stored and Bland's
rule reads the rest off it.  So the pivots are those of the full Fraction
simplex (kept in ``tests/oracles.py`` as the reference), and so is the
solution.  Coordinates are exact: a float raises TypeError.

Each row is one packed int, the sum of its entries times 2^(F i) over its
fields i: the right-hand side, then x+, then the artificials.  The field
width F comes from Hadamard's bound (``_field_bits``), which keeps every
entry of every tableau, the cost row too, below 2^(F - 1) in size.
Adding 2^(F - 1) to every field (the bias) makes every field a digit in
[0, 2^F), so one add, a shift and a mask read any entry.  A pivot is one
step per row, ``(row * p - f * pivot_row) // den``, exact on the packed
int: each field of row * p - f * pivot_row is den times the new entry
(Bareiss), so the whole int is den times the new packed row, whatever
size the fields reach before the division.  Only the cost row is read in
full, once per pivot, for Bland's entering variable; the entering column
and the right-hand side are read row by row with the bias and a shift.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Sequence

Vector = list[Fraction]


def as_fraction(value) -> Fraction:
    """An exact coordinate; floats are refused, so none enters a decision.
    A Fraction comes back as it is (a subclass still goes through Fraction)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("coordinates must be exact (int, Fraction or 'p/q' text)")
    return Fraction(value)


def _field_bits(ints: list[list[int]], dim: int) -> int:
    """F such that every entry of every tableau of separating_functional,
    the cost row too, is less than 2^(F - 1) in size; ints[k] holds the x+
    entries of constraint row k, whose artificial and right-hand side
    entries are 1.

    Let T be the constraint rows over all the program's columns, B the
    columns of T of a basis and s_k = |ints[k]|^2.  A stored constraint
    row is den times the row of B^-1 T, den = |det B|, so by Cramer's rule
    its entry in column j is +-det B with that row's column replaced by
    column j of T.  The columns of B are +-unit columns (slacks and
    artificials) and at most dim x columns, since x+ and x- of one
    coordinate are dependent.  Expanding along the unit columns leaves +-a
    minor M of T of order at most dim + 1, on x columns and column j.

      * A minor on x columns alone has order at most dim, so by Hadamard's
        inequality it is at most X, the square root of the product of the
        dim largest max(s_k, 1).  den is one.
      * If j is the right-hand side or an artificial, its entries are 0 or
        1: expanding M along j bounds it by (dim + 1) X, and Hadamard's
        inequality on its rows, of squared norms at most s_k + 1, by H,
        the square root of the product of the dim + 1 largest s_k + 1.

    So every constraint entry is at most E = min(H, (dim + 1) X), as
    X <= H.  The cost row holds den times the reduced costs of sum(a): in
    column j, den if j is an artificial, less the column-j entries of the
    rows whose basic variable is artificial.  When all count of them are,
    the basis and so the cost row are the first ones: minus the sum of the
    rows over x and the right-hand side, at most count * E.  Otherwise the
    entry sums den and at most count - 1 entries, at most count * E
    again.  Every entry is an integer, so it is at most isqrt(count^2 E^2),
    whose bit length is F - 1.
    """
    norms = sorted((sum(v * v for v in row) for row in ints), reverse=True)
    hadamard = prod(v + 1 for v in norms[: dim + 1])
    laplace = (dim + 1) ** 2 * prod(max(v, 1) for v in norms[:dim])
    return isqrt(len(ints) ** 2 * min(hadamard, laplace)).bit_length() + 1


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
    artificial columns and the right-hand side are stored, as the fields
    of one packed int per row; Bland's rule still scans x+, x-, s and a in
    that order and breaks ties on the original variable numbers, so the
    pivots are those of the full tableau.
    Raises ValueError on an empty list of vectors or an index outside
    0..len(vectors) - 1, and TypeError on a float coordinate.
    """
    if not vectors:
        raise ValueError("separating_functional needs at least one vector")
    count = len(vectors)
    if not 0 <= index < count:
        raise ValueError(f"index {index} is outside 0..{count - 1}")
    dim = len(vectors[0])
    if any(len(vec) != dim for vec in vectors):
        raise ValueError("vectors must share a dimension")
    coords = [[as_fraction(c) for c in vec] for vec in vectors]
    # the x columns scaled by the lcm of every denominator: a positive
    # scale of x+ and x-, so Bland's rule takes the same pivots, and every
    # row is integral with the identity in the artificial columns
    scale = lcm(*(c.denominator for vec in coords for c in vec))
    ints = [
        [(1 if k == index else -1) * c.numerator * (scale // c.denominator) for c in vec]
        for k, vec in enumerate(coords)
    ]
    bits = _field_bits(ints, dim)
    # fields: the right-hand side, then x+, then the artificials
    half, mask, width = 1 << (bits - 1), (1 << bits) - 1, bits * (1 + dim + count)
    bias = half * (((1 << width) - 1) // mask)  # half in every field
    art = bits * (1 + dim)  # offset of the first artificial field
    rows = [
        1 + sum(v << bits * c for c, v in enumerate(row, 1)) + (1 << (art + bits * k))
        for k, row in enumerate(ints)
    ]
    # cost row: minus the sum of the rows, with the artificial fields cleared
    cost = sum(1 << (art + bits * k) for k in range(count)) - sum(rows)
    # basis variables by their number in x+, x-, s, a order
    basis = list(range(2 * dim + count, 2 * dim + 2 * count))
    den = 1  # every row's denominator, the basis determinant

    while True:
        read = cost + bias
        costs = [(read >> s & mask) - half for s in range(bits, width, bits)]
        enter = _entering(costs, den, dim, count)
        if enter is None:
            break
        var, col, sign, cost_entry = enter
        shift = bits * (1 + col)
        # Bland: smallest ratio rhs_i / coeff_i (den cancels), compared by
        # cross-multiplying positive coefficients; ties to the smallest
        # basis variable
        column, leave = [], None
        for i, row in enumerate(rows):
            read = row + bias
            coeff = sign * ((read >> shift & mask) - half)
            column.append(coeff)
            if coeff > 0:
                value = (read & mask) - half
                if leave is None:
                    leave, best_value, best_coeff = i, value, coeff
                    continue
                lhs, rhs_best = value * best_coeff, best_value * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, best_value, best_coeff = i, value, coeff
        if leave is None:
            raise ArithmeticError("phase-1 objective is unbounded; cannot happen")
        p, pivot_row = column[leave], rows[leave]
        rows = [
            row if i == leave else (row * p - f * pivot_row) // den
            for i, (row, f) in enumerate(zip(rows, column))
        ]
        cost = (cost * p - cost_entry * pivot_row) // den
        den = p
        basis[leave] = var

    if (cost + bias) & mask != half:
        return None  # the phase-1 optimum is positive
    w = [Fraction(0)] * dim
    for row, var in zip(rows, basis):
        value = ((row + bias) & mask) - half
        if var < dim:
            w[var] = Fraction(scale * value, den)
        elif var < 2 * dim:
            w[var - dim] = -Fraction(scale * value, den)
        elif var >= 2 * dim + count and value != 0:
            return None  # artificial stuck at a positive level
    return w
