"""Independent brute-force oracles used by the tests.

Everything here recomputes quantities from first principles (circuit signs
of a chirotope, exhaustive staircase collection, Gale evenness, exact hull
feasibility) without touching the travel or counting machinery under test.
The reference class scan is the slow tuple-based loop that the travel
kernel is checked against; the reference rank-3 chunk is the per-board
object path (on the public min_interior) that the mask-level board scan
replaced; the reference Radon functions are the Fraction cofactor loops
that the chirotope table and the coloring-lane max_r replaced.  The travel
interplay rule (``parallel_rule_check``) is a consistency check that only
the tests run on the top and bottom walks.  The reference Gale transform is
the Fraction RREF null space that the integer minors replaced; the
positive-cocircuit count reads induced partitions off the Gale dual through
that null space.  The tuple walks ``_top_segments`` and ``_bottom_segments``
are the references for the turn-mask walk of lomlab.travels: the top walk
column by column, and the bottom walk leftward rather than as the top walk
of the turned matrix.  ``reference_feasible_nonneg`` is the Fraction-tableau phase-1
simplex that exactlp's fraction-free integer rows replaced; the hull tests
and ``reference_separating_functional`` run on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations

from lomlab.chessboard import Chessboard, board_of, corners_for
from lomlab.galerad import BLUE, RED, Coloring, PointConfig, count_induced, gale_transform
from lomlab.sign_matrix import SignMatrix
from lomlab.travels import Travel, bottom_travel, min_interior, top_travel


# ---------------------------------------------------------------------------
# Chirotope and circuit-sign oracles.


def chirotope_direct(matrix: SignMatrix, basis) -> int:
    """The Lawrence chirotope of a weakly increasing column tuple, the
    product a[1][j_1] * ... * a[r][j_r]; lomlab computes it nowhere, since
    the travels decide acyclicity and interiors without it."""
    product = 1
    row = 0
    for col in basis:
        product = product * matrix.rows[row][col - 1]
        row += 1
    return product


def circuit_signs(chi, r: int, ground: int):
    """Yield (support, signs) for each (r+1)-subset of 1..ground.

    chi maps a strictly increasing r-tuple of 1-based labels to +-1.  The
    signs alternate with cofactor parity; each circuit is produced in one of
    its two orientations.
    """
    for support in combinations(range(1, ground + 1), r + 1):
        signs = {}
        for k, e in enumerate(support):
            rest = tuple(x for x in support if x != e)
            signs[e] = (-1) ** k * chi(rest)
        yield support, signs


def config_chi(config: PointConfig):
    """Chirotope of a point configuration via lifted determinant signs."""

    def chi(basis):
        value = reference_det(_lifted(config.points, basis))
        assert value != 0, "configuration not in general position"
        return 1 if value > 0 else -1

    return chi


def oracle_is_acyclic(chi, r: int, ground: int) -> bool:
    for _, signs in circuit_signs(chi, r, ground):
        if len(set(signs.values())) == 1:
            return False
    return True


def oracle_interior(chi, r: int, ground: int) -> frozenset[int]:
    out = set()
    for support, signs in circuit_signs(chi, r, ground):
        for e in support:
            if all(signs[x] == -signs[e] for x in support if x != e):
                out.add(e)
    return frozenset(out)


def matrix_is_acyclic(matrix: SignMatrix) -> bool:
    return oracle_is_acyclic(partial(chirotope_direct, matrix), matrix.r, matrix.n)


def matrix_interior(matrix: SignMatrix) -> frozenset[int]:
    return oracle_interior(partial(chirotope_direct, matrix), matrix.r, matrix.n)


def config_acyclic_reorientation_classes(config: PointConfig):
    """(flip set, interior set) per acyclic reorientation with point 1 fixed.

    Works for any general-position configuration via its determinant
    chirotope, so it is independent of the Lawrence-specific machinery.
    """
    base = config_chi(config)
    r = config.dim + 1
    out = []
    for bits in range(1 << (config.n - 1)):
        flips = frozenset(i + 2 for i in range(config.n - 1) if (bits >> i) & 1)

        def chi(basis, flips=flips):
            sign = -1 if len(flips.intersection(basis)) % 2 else 1
            return sign * base(basis)

        if oracle_is_acyclic(chi, r, config.n):
            out.append((flips, oracle_interior(chi, r, config.n)))
    return out


# ---------------------------------------------------------------------------
# Exhaustive matrix generation and staircase collection.


def all_sign_matrices(r: int, n: int):
    for bits in range(1 << (r * n)):
        rows = tuple(
            tuple(1 if (bits >> (i * n + j)) & 1 else -1 for j in range(n))
            for i in range(r)
        )
        yield SignMatrix(rows)


def reference_minus_masks(matrix: SignMatrix) -> tuple[int, ...]:
    """Per row, the columns holding -1 as a bitmask, one entry at a time."""
    masks = []
    for row in matrix.rows:
        mask = 0
        for j in range(matrix.n):
            if row[j] == -1:
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


def random_sign_matrix(rng: random.Random, r: int, n: int) -> SignMatrix:
    return SignMatrix(
        tuple(tuple(rng.choice((1, -1)) for _ in range(n)) for _ in range(r))
    )


def collect_top_travel_shapes(r: int, n: int):
    """All top-travel segment shapes over every r x n sign matrix, split
    into shapes ending at column n (acyclic) and the rest."""
    ending_at_n = set()
    cut_short = set()
    for matrix in all_sign_matrices(r, n):
        segments = _top_segments(matrix.rows)
        if segments[-1][2] == n:
            ending_at_n.add(segments)
        else:
            cut_short.add(segments)
    return ending_at_n, cut_short


# ---------------------------------------------------------------------------
# Reference class scan: every class is reoriented as a tuple matrix and both
# travels are walked from scratch, one column at a time.  This is the loop
# the bitmask kernel in lomlab.travels replaced; the tests compare the two.

Rows = tuple[tuple[int, ...], ...]


def _top_segments(rows: Rows) -> tuple[tuple[int, int, int], ...]:
    r = len(rows)
    n = len(rows[0])
    i, j = 0, 0
    segments = []
    while True:
        row = rows[i]
        pivot = row[j]
        start = j
        while j + 1 < n and row[j + 1] == pivot:
            j += 1
        if j == n - 1:
            segments.append((i + 1, start + 1, n))
            return tuple(segments)
        if i == r - 1:
            segments.append((i + 1, start + 1, j + 1))
            return tuple(segments)
        segments.append((i + 1, start + 1, j + 2))
        i += 1
        j += 1


def _bottom_segments(rows: Rows) -> tuple[tuple[int, int, int], ...]:
    r = len(rows)
    n = len(rows[0])
    i, j = r - 1, n - 1
    segments = []
    while True:
        row = rows[i]
        pivot = row[j]
        start = j
        while j - 1 >= 0 and row[j - 1] == pivot:
            j -= 1
        if j == 0:
            segments.append((i + 1, start + 1, 1))
            return tuple(segments)
        if i == 0:
            segments.append((i + 1, start + 1, j + 1))
            return tuple(segments)
        segments.append((i + 1, start + 1, j))
        i -= 1
        j -= 1


def _interior(rows: Rows, tsegs, bsegs) -> frozenset[int]:
    r = len(rows)
    n = len(rows[0])
    out = []
    brow, ba, bb = bsegs[-1]
    if brow == 1 and bb == 1 and max(ba, bb) >= 2:
        out.append(1)
    trow, ta, tb = tsegs[-1]
    if trow == r and tb == n and min(ta, tb) <= n - 1:
        out.append(n)

    def span(segs, lo, hi):
        for row, a, b in segs:
            if min(a, b) <= lo and hi <= max(a, b):
                return row
        return None

    for k in range(2, n):
        i = span(tsegs, k - 1, k + 1)
        if i is None:
            continue
        ib = span(bsegs, k - 1, k + 1)
        if ib is not None and (ib == i or ib == i + 1):
            out.append(k)
    return frozenset(out)


def _sweep_flips(rows: Rows, drops) -> frozenset[int]:
    """Columns to flip so the top travel drops exactly at `drops`, by one
    left-to-right pass that never flips column 1."""
    n = len(rows[0])
    drop_set = frozenset(drops)
    flipped = set()
    i = 0
    pivot = rows[0][0]
    for c in range(2, n + 1):
        value = rows[i][c - 1]
        if c in drop_set:
            if value == pivot:
                flipped.add(c)
            i += 1
            pivot = rows[i][c - 1] * (-1 if c in flipped else 1)
        elif value != pivot:
            flipped.add(c)
    return frozenset(flipped)


def _reoriented_rows(rows: Rows, cols: frozenset[int]) -> Rows:
    if not cols:
        return rows
    zero_based = {c - 1 for c in cols}
    return tuple(
        tuple(-v if j in zero_based else v for j, v in enumerate(row)) for row in rows
    )


def reference_drop_sets(r: int, n: int, include_trivial: bool):
    """Drop tuples of every plain travel (and optionally the empty one), in
    lexicographic order of their breakpoints, by sorting all subsets."""
    sizes = range(0 if include_trivial else 1, min(r - 1, n - 1) + 1)
    subsets = [d for k in sizes for d in combinations(range(2, n + 1), k)]
    return sorted(subsets, key=lambda d: d + (n,))


def reference_scan(matrix: SignMatrix, include_trivial: bool):
    """(drops, flips, interior) per acyclic reorientation class."""
    rows = matrix.rows
    for drops in reference_drop_sets(matrix.r, matrix.n, include_trivial):
        flips = _sweep_flips(rows, drops)
        flipped = _reoriented_rows(rows, flips)
        yield drops, flips, _interior(flipped, _top_segments(flipped), _bottom_segments(flipped))


def reference_min_interior(matrix: SignMatrix, include_trivial: bool = True):
    """(minimum interior count, drops of the first class attaining it)."""
    best = None
    for drops, _, interior in reference_scan(matrix, include_trivial):
        if best is None or len(interior) < best[0]:
            best = (len(interior), drops)
            if best[0] == 0:
                break
    return best


# ---------------------------------------------------------------------------
# The travel interplay rule, a consistency check on the top and bottom walks
# of lomlab.travels (formerly chessboard.parallel_rule_check).


def crossing_row(travel: Travel, j: int) -> int | None:
    """Row in which the walk moves between columns j and j+1, if it does."""
    for row, a, b in travel.segments:
        if min(a, b) <= j and j + 1 <= max(a, b):
            return row
    return None


def parallel_rule_check(matrix: SignMatrix) -> bool:
    """Check the forced interplay of the two travels across column pairs.

    Whenever exactly one black square sits between the rows where the top
    and bottom travels cross from column j to column j+1, one travel moves
    straight through while the other turns: the product of the blackness
    parities between the crossing rows telescopes to the product of the two
    travels' adjacent-entry signs.  Returns True when no column pair
    violates the rule; a False return means a bug in the travel code.
    """
    if matrix.r < 2 or matrix.n < 2:
        return True
    rows = matrix.rows
    board = board_of(matrix)
    tt = top_travel(matrix)
    bt = bottom_travel(matrix)
    for j in range(1, matrix.n):
        ti = crossing_row(tt, j)
        bi = crossing_row(bt, j)
        if ti is None or bi is None or bi <= ti:
            continue
        blacks = sum(1 for i in range(ti, bi) if board.black[i - 1][j - 1])
        if blacks != 1:
            continue
        top_straight = rows[ti - 1][j - 1] == rows[ti - 1][j]
        bottom_turns = rows[bi - 1][j - 1] != rows[bi - 1][j]
        if top_straight != bottom_turns:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference rank-3 board scan: a Chessboard, a validated SignMatrix built
# entry by entry and a Travel per board code, and the symmetry orbit by
# unpacking the code into bit lists.  This is the per-board path that
# lomlab.verifier._scan_chunk replaced with one lane kernel per chunk (code
# planes, chessboard.canonical_planes and bit-sliced orbit compares);
# reference_canonical_matrix is the entry-by-entry parity rule that the tests
# compare canonical_planes with, for one board and for a chunk.


def reference_board_from_code(n: int, code: int) -> Chessboard:
    width = n - 1
    return Chessboard(
        tuple(tuple(bool((code >> (i * width + j)) & 1) for j in range(width)) for i in range(2))
    )


def reference_canonical_matrix(board: Chessboard) -> SignMatrix:
    """The canonical realization, entry by entry from the 2 x 2 parity rule."""
    r, n = board.matrix_rows, board.matrix_cols
    rows = [[1] * n]
    for i in range(1, r):
        row = [1]
        for j in range(1, n):
            parity = -1 if board.black[i - 1][j - 1] else 1
            row.append(rows[i - 1][j - 1] * rows[i - 1][j] * row[j - 1] * parity)
        rows.append(row)
    return SignMatrix(tuple(tuple(row) for row in rows))


def reference_code_transforms(n: int, code: int) -> tuple[int, ...]:
    width = n - 1
    top = [(code >> j) & 1 for j in range(width)]
    bottom = [(code >> (width + j)) & 1 for j in range(width)]

    def pack(rows) -> int:
        value = 0
        for i, row in enumerate(rows):
            for j, bit in enumerate(row):
                value |= bit << (i * width + j)
        return value

    lr = [list(reversed(top)), list(reversed(bottom))]
    tb = [bottom, top]
    both = [list(reversed(bottom)), list(reversed(top))]
    return (code, pack(lr), pack(tb), pack(both))


@lru_cache(maxsize=None)
def reference_board_minimum(n: int, code: int) -> int:
    """Minimum interior count of a board, through the public min_interior;
    cached, since the tests scan the same boards against many bounds."""
    return min_interior(reference_canonical_matrix(reference_board_from_code(n, code)))[0]


def reference_scan_chunk(args):
    """The result tuple of verifier._scan_chunk, through the public API."""
    n, start, stop, bound, prune = args
    worst, worst_code, attain, exemplars, violations, evaluated = -1, -1, 0, [], [], 0
    for code in range(start, stop):
        weight = 1
        if prune:
            orbit = reference_code_transforms(n, code)
            if code != min(orbit):
                continue
            weight = len(set(orbit))
        evaluated += 1
        value = reference_board_minimum(n, code)
        if value > worst:
            worst, worst_code = value, code
        if value == bound:
            attain += weight
            if len(exemplars) < 8:
                exemplars.append(code)
        if value > bound and len(violations) < 8:
            violations.append(code)
    return worst, worst_code, attain, exemplars, violations, evaluated


def reference_theorem_board_for(r: int, n: int) -> Chessboard | None:
    """The construction board for (r, n), each n-formula inverted by hand."""
    if r == 3 and n >= 6:
        return corners_for("dim2", 3, n - 6)
    if r == 4 and n >= 8:
        return corners_for("dim3", 4, n - 8)
    if r >= 5:
        if n == 2 * (r - 1) + -(-r // 2) + 1:
            return corners_for("t1", r, 1)
        if (n - 7) % (r - 3) == 0 and (n - 7) // (r - 3) >= 3:
            return corners_for("general", r, (n - 7) // (r - 3) - 1)
        if r % 2 == 1:
            doubled = 2 * (n - r - 2)
            if doubled % (r - 1) == 0 and doubled // (r - 1) >= 3:
                return corners_for("even-d", r, doubled // (r - 1) - 1)
    return None


def reference_corners(theorem_id: str, r: int, t: int) -> tuple[int, ...]:
    """The paper's corner map h(1..r) of a named construction: its m-th
    corner is matrix position (m, h(m)), and h(r) is the n formula.  The
    scans never read h; tests check it against the boards of corners_for."""
    if theorem_id == "dim2":
        return (1, t + 3, t + 6)
    if theorem_id == "dim3":
        return (1, t + 3, t + 6, t + 8)
    if theorem_id == "general":
        return (1, t + 3, t + 6) + tuple((t + 1) * (m - 3) + 7 for m in range(4, r + 1))
    if theorem_id == "t1":
        return (1,) + tuple(2 * (m - 1) + -(-m // 2) + 1 for m in range(2, r + 1))
    if theorem_id == "even-d":
        return (1, t + 3) + tuple(
            2 * -(-(m - 1) // 2) + (t + 1) * ((m - 1) // 2) + 3 for m in range(3, r + 1)
        )
    raise ValueError(f"unknown construction {theorem_id!r}")


# ---------------------------------------------------------------------------
# Reference Radon partitions: Fraction determinants, one cofactor expansion
# per subset and a full recount per coloring in mask order.  These are the
# loops the chirotope table and the coloring-lane max_r in lomlab.galerad
# replaced; the tests compare the two.


def reference_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over fractions."""
    size = len(rows)
    mat = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((i for i in range(col, size) if mat[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = -det
        pivot = mat[col][col]
        det *= pivot
        for i in range(col + 1, size):
            if mat[i][col] != 0:
                factor = mat[i][col] / pivot
                for j in range(col, size):
                    mat[i][j] -= factor * mat[col][j]
    return det


def reference_null_space(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space, by reduced row echelon form."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, m) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        mat[rank] = [v / pivot for v in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            vec[p] = -mat[row_idx][f]
        basis.append(vec)
    return basis


def reference_gale_transform(config: PointConfig):
    """Dual vectors from the RREF null space of the coordinate rows plus a
    row of ones: coordinate k of vector j is entry j of the dependence of
    the k-th free column."""
    n = config.n
    rows = [[p[i] for p in config.points] for i in range(config.dim)] + [[Fraction(1)] * n]
    basis = reference_null_space(rows)
    return tuple(tuple(alpha[j] for alpha in basis) for j in range(n))


def _lifted(points, labels):
    return [[Fraction(1)] + list(points[i - 1]) for i in labels]


def reference_dependent_subset(dim: int, points):
    """First (d+1)-subset, in combinations order and 1-based, whose lifted
    determinant vanishes; None in general position."""
    for subset in combinations(range(1, len(points) + 1), dim + 1):
        if reference_det(_lifted(points, subset)) == 0:
            return subset
    return None


def reference_minimal_partition(config: PointConfig, subset):
    """Sign classes of the unique affine dependence of a (d+2)-subset, by
    the cofactor expansion alpha_k = (-1)^k det(lifted rows without k)."""
    lifted = _lifted(config.points, subset)
    positive, negative = [], []
    for k, label in enumerate(subset):
        value = reference_det([row for i, row in enumerate(lifted) if i != k])
        assert value != 0, "configuration not in general position"
        (positive if (value > 0) == (k % 2 == 0) else negative).append(label)
    return frozenset(positive), frozenset(negative)


def _reference_splits(config: PointConfig):
    return [
        (frozenset(sub), reference_minimal_partition(config, sub)[0])
        for sub in combinations(range(1, config.n + 1), config.dim + 2)
    ]


def _reference_count(splits, coloring: Coloring) -> int:
    reds = coloring.red
    count = 0
    for members, pos in splits:
        inside = members & reds
        if inside == pos or inside == members - pos:
            count += 1
    return count


def reference_count_induced(config: PointConfig, coloring: Coloring) -> int:
    return _reference_count(_reference_splits(config), coloring)


@lru_cache(maxsize=1)
def _cocircuit_signs(config: PointConfig):
    """Per (d+2)-subset S, in combinations order: S and, for each point of
    S, whether the normal of the span of the Gale vectors outside S is
    positive on its vector.  That normal is a cocircuit of the dual, and its
    signs on S are the circuit signs of S up to a global sign."""
    vectors = [list(v) for v in gale_transform(config).vectors]
    # a zero row leaves the null space alone and keeps the span {0} when
    # no vector is outside S (n = d + 2)
    zero = [Fraction(0)] * (config.n - config.dim - 1)
    out = []
    for subset in combinations(range(config.n), config.dim + 2):
        outside = [v for i, v in enumerate(vectors) if i not in subset]
        (normal,) = reference_null_space(outside + [zero])
        values = [sum(a * b for a, b in zip(normal, vectors[i])) for i in subset]
        assert 0 not in values, "Gale vectors not in linear general position"
        out.append((subset, [v > 0 for v in values]))
    return out


def reference_positive_cocircuits(config: PointConfig, coloring: Coloring) -> int:
    """Induced partitions counted from the dual side: the (d+2)-subsets S
    whose cocircuit, with the vectors of blue points negated, has one sign
    on every point of S."""
    count = 0
    for subset, positive in _cocircuit_signs(config):
        signs = {p == (coloring.labels[i] == RED) for p, i in zip(positive, subset)}
        count += len(signs) == 1
    return count


def reference_colorings(n: int):
    """Every coloring with point 1 red, in mask order (bit i: point i + 2 blue)."""
    for mask in range(1 << (n - 1)):
        labels = [RED] + [BLUE if (mask >> i) & 1 else RED for i in range(n - 1)]
        yield Coloring(tuple(labels))


def reference_max_r(config: PointConfig):
    """(maximum count, first maximizing coloring in mask order)."""
    splits = _reference_splits(config)
    best, witness = -1, None
    for coloring in reference_colorings(config.n):
        value = _reference_count(splits, coloring)
        if value > best:
            best, witness = value, coloring
    return best, witness


def reference_max_r_sampled(config: PointConfig, samples: int, seed: int):
    rng = random.Random(seed)
    splits = _reference_splits(config)
    best, witness = -1, None
    for _ in range(samples):
        labels = (RED,) + tuple(rng.choice((RED, BLUE)) for _ in range(config.n - 1))
        coloring = Coloring(labels)
        value = _reference_count(splits, coloring)
        if value > best:
            best, witness = value, coloring
    return best, witness


# ---------------------------------------------------------------------------
# Reference phase-1 simplex: a Fraction tableau with Bland's rule, the solver
# that the fraction-free integer rows of lomlab.exactlp replaced.  Both take
# the same pivots, so the separators must be equal, not just both valid.


def reference_feasible_nonneg(rows, rhs):
    """A nonnegative exact solution of A x = b, or None when infeasible."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a, b = [], []
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
    tableau = []
    for i in range(m):
        row = a[i] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # objective row: cost of artificials, reduced through the starting basis
    cost = [Fraction(0)] * (width + 1)
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
        best = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective is unbounded; cannot happen")
        _reference_pivot(tableau, cost, basis, leave, enter, width)

    if -cost[width] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][width]
        elif tableau[i][width] != 0:
            return None  # artificial stuck at a positive level
    return solution


def _reference_pivot(tableau, cost, basis, leave, enter, width) -> None:
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


def reference_separating_functional(vectors, index):
    """The separator LP of exactlp.separating_functional (w as differences
    of nonnegative pairs, one slack per vector), on the Fraction tableau."""
    dim, count = len(vectors[0]), len(vectors)
    rows, rhs = [], []
    for k, vec in enumerate(vectors):
        row = [Fraction(c) for c in vec] + [-Fraction(c) for c in vec] + [Fraction(0)] * count
        row[2 * dim + k] = Fraction(-1 if k == index else 1)
        rows.append(row)
        rhs.append(Fraction(1 if k == index else -1))
    solution = reference_feasible_nonneg(rows, rhs)
    if solution is None:
        return None
    return [solution[j] - solution[dim + j] for j in range(dim)]


def reference_lift_choice(config: PointConfig, coloring: Coloring) -> int | None:
    """The point that lomlab.galerad.lift_unbalanced makes the single red
    one, 1-indexed, found by trying every point in turn: the first whose
    color flip leaves the coloring inducing no partition, or None when no
    point's does."""
    labels, swap = coloring.labels, {RED: BLUE, BLUE: RED}
    for i in range(config.n):
        if not count_induced(config, Coloring(labels[:i] + (swap[labels[i]],) + labels[i + 1 :])):
            return i + 1
    return None


def reference_lift_points(config: PointConfig, coloring: Coloring):
    """(lifted points, labels) of lomlab.galerad.lift_unbalanced, in Fraction
    arithmetic, or None when no point is separable.  The chosen point is the
    first whose flip induces nothing by the reference count; the signed rays
    (x_i; 1), negated for blue points, are cut by <w, z> = 1 with w the
    reference separator, and the first coordinate where w_k != 0 dropped."""
    splits, labels = _reference_splits(config), coloring.labels
    swap = {RED: BLUE, BLUE: RED}
    flips = (
        Coloring(labels[:i] + (swap[labels[i]],) + labels[i + 1 :]) for i in range(config.n)
    )
    chosen = next((i for i, flip in enumerate(flips) if _reference_count(splits, flip) == 0), None)
    if chosen is None:
        return None
    rays = []
    for p, label in zip(config.points, labels):
        sign = Fraction(1 if label == RED else -1)
        rays.append([sign * c for c in p] + [sign])
    functional = reference_separating_functional(rays, chosen)
    scales = [sum(w_k * c for w_k, c in zip(functional, ray)) for ray in rays]
    chart = next(k for k, w_k in enumerate(functional) if w_k != 0)
    points = tuple(
        tuple(c / scale for k, c in enumerate(ray) if k != chart)
        for ray, scale in zip(rays, scales)
    )
    return points, tuple(RED if i == chosen else BLUE for i in range(config.n))


# ---------------------------------------------------------------------------
# Polytope oracles.


def gale_evenness_facets(n: int, d: int) -> int:
    """Count facets of the cyclic polytope by the evenness criterion:
    a d-subset is a facet iff between any two outside labels it contains an
    even number of inside labels."""
    count = 0
    for subset in combinations(range(1, n + 1), d):
        inside = set(subset)
        outside = [x for x in range(1, n + 1) if x not in inside]
        ok = True
        for a, b in combinations(outside, 2):
            between = sum(1 for x in subset if a < x < b)
            if between % 2:
                ok = False
                break
        if ok:
            count += 1
    return count


def facet_subsets(config: PointConfig):
    """All d-subsets of a general-position configuration spanning a facet of
    the convex hull, by exact sidedness checks."""
    d, n = config.dim, config.n
    facets = []
    for subset in combinations(range(1, n + 1), d):
        rows = _lifted(config.points, subset)
        signs = set()
        for other in range(1, n + 1):
            if other in subset:
                continue
            value = reference_det(rows + _lifted(config.points, (other,)))
            signs.add(value > 0)
        if len(signs) == 1:
            facets.append(frozenset(subset))
    return facets


def zero_in_hull(vectors) -> bool:
    """Exact test for 0 in conv(vectors), as a phase-1 feasibility problem."""
    if not vectors:
        return False
    dim = len(vectors[0])
    rows = [[Fraction(v[i]) for v in vectors] for i in range(dim)]
    rows.append([Fraction(1)] * len(vectors))
    rhs = [Fraction(0)] * dim + [Fraction(1)]
    return reference_feasible_nonneg(rows, rhs) is not None


def hulls_intersect(left, right) -> bool:
    """Exact test for conv(left) meeting conv(right)."""
    if not left or not right:
        return False
    dim = len(left[0])
    nl, nr = len(left), len(right)
    rows = [[Fraction(v[i]) for v in left] + [-Fraction(v[i]) for v in right] for i in range(dim)]
    rows.append([Fraction(1)] * nl + [Fraction(0)] * nr)
    rows.append([Fraction(0)] * nl + [Fraction(1)] * nr)
    rhs = [Fraction(0)] * dim + [Fraction(1), Fraction(1)]
    return reference_feasible_nonneg(rows, rhs) is not None


def hulls_meet(config: PointConfig, left_labels, right_labels) -> bool:
    left = [config.points[i - 1] for i in left_labels]
    right = [config.points[i - 1] for i in right_labels]
    return hulls_intersect(left, right)


# ---------------------------------------------------------------------------
# Constructions for the lifting tests.


def never_convex(config: PointConfig) -> bool:
    """No acyclic reorientation of the configuration's chirotope is free of
    interior elements, i.e. no permissible projective image is convex."""
    return all(len(i) >= 1 for _, i in config_acyclic_reorientation_classes(config))


def config_from_rays(rays, seed: int = 0):
    """A configuration plus coloring whose signed projection spans the rays.

    Applies a random exact change of basis until every ray has a nonzero
    last coordinate, then reads the first coordinates as an affine chart.
    Used to dualize Gale transforms back into colored point sets.
    """
    dim = len(rays[0])
    rng = random.Random(seed)
    for attempt in range(200):
        if attempt == 0:
            mat = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        else:
            mat = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        if reference_det(mat) == 0:
            continue
        images = [
            tuple(sum(mat[i][k] * r[k] for k in range(dim)) for i in range(dim))
            for r in rays
        ]
        if any(v[-1] == 0 for v in images):
            continue
        points, labels = [], []
        for v in images:
            scale = v[-1]
            labels.append("R" if scale > 0 else "B")
            points.append(tuple(c / scale for c in v[:-1]))
        return PointConfig(dim - 1, tuple(points)), Coloring(tuple(labels))
    raise RuntimeError("no affine chart found for the rays")
