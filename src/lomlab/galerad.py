"""Exact point configurations, Gale transforms and Radon partition counting.

All decisions in this module are determinant-sign or feasibility questions.
Coordinates are exact fractions, determinants run on integers, and no
floating point enters any decision path.  Points are 1-indexed in errors
and reports.

Every Radon decision reads one table: the chirotope of the lifted points,
mapping each (d+1)-subset bitmask (bit i - 1 for point i) to the sign of
det[(1, x_i)].  It is built once per configuration, after scaling each
point by the lcm of its denominators (a positive scale, which keeps every
sign), by one integer minor walk over the subsets in combinations order:
subsets that share a prefix of points share that prefix's minors, and each
further point is a Laplace expansion along its row.  The pivotal facts used
here, each covered by tests against independent oracles:

  * a set of d + 2 points in general position has exactly one minimal Radon
    partition, read off the sign classes of its unique affine dependence,
    whose k-th cofactor sign is (-1)^k chi(subset minus its k-th point);
  * the same cofactors, as integers times the lcm scales, are that
    dependence itself (Cramer's rule), so the Gale transform reads the
    values of the one determinant routine, _maximal_minors, not just
    their signs;
  * a red/blue coloring induces that partition exactly when its color
    classes match the sign classes up to swapping the two colors, one mask
    comparison per subset;
  * appending a 1 to each point and negating the blue ones turns induced
    partitions into (d+2)-subsets of rays whose convex hull captures the
    origin, which connects the count to facets of a dual configuration via
    the Gale transform;
  * flipping one point's color changes only the subsets that contain it, so
    max_r walks the colorings in Gray-code order and recounts those alone:
    the subsets that the point, red or blue, leaves uninduced are an OR of
    one lookup per chunk of at most six points in tables built once per
    point, and the blue lookup reads the red table at the complemented
    index;
  * by Kirchberger's theorem (Caratheodory in the lifted space), a point's
    signed ray is strictly separable from the others exactly when flipping
    its color induces no partition at all, so lift_unbalanced runs the
    exact simplex only on the first point passing that check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, islice
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator

from .exactlp import separating_functional

Vector = tuple[Fraction, ...]

RED = "R"
BLUE = "B"


class GeneralPositionError(ValueError):
    """Configuration has an affinely dependent (d+1)-subset."""

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(f"points {subset} are affinely dependent")


class DegenerateSpanError(ValueError):
    """Fewer than d + 2 points: no affine dependence and no (d+2)-subset."""


class LiftSeparationError(ValueError):
    """No point of the signed projection is strictly separable."""


class PointFormatError(ValueError):
    """Malformed point or coloring text."""


@cache
def _expansion_plans(width: int) -> list[list[tuple[itemgetter, itemgetter]]]:
    """Laplace plans for the minors of a row prefix, per prefix size k.

    Entry k - 1 lists, for each k-subset of the width columns in
    combinations order, the pair (pick the k signed entries of the new row,
    pick the k minors of the previous prefix): the minor is the sum of their
    products, expanded along the prefix's last row.  A signed row is the row
    followed by its negation, so entry j + width is -row[j].  A 1-row prefix
    has its row as minors, so entry 0 is empty.
    """
    plans: list[list[tuple[itemgetter, itemgetter]]] = [[]]
    index = {(j,): j for j in range(width)}
    for k in range(2, width + 1):
        cols = list(combinations(range(width), k))
        plans.append([
            (
                itemgetter(*(j + width * ((k - 1 + t) % 2) for t, j in enumerate(c))),
                itemgetter(*(index[c[:t] + c[t + 1 :]] for t in range(k))),
            )
            for c in cols
        ])
        index = {c: i for i, c in enumerate(cols)}
    return plans


def _maximal_minors(rows: list[list[int]]) -> list[int]:
    """Determinant of every width-subset of the integer rows, in
    combinations order, width being the row length.

    The walk follows the combinations tree: a node is a row prefix and holds
    its minors on every column subset of its size, and each child expands
    along its new row, so subsets that share a prefix share its minors.
    """
    n, width = len(rows), len(rows[0])
    if width == 1:
        return [row[0] for row in rows]
    plans = _expansion_plans(width)
    signed = [row + [-v for v in row] for row in rows]
    dets: list[int] = []
    [(leaf_row, leaf_minors)] = plans[-1]

    def grow(start: int, depth: int, minors) -> None:
        if depth == width - 1:
            cofactors = leaf_minors(minors)
            dets.extend(sum(map(mul, leaf_row(row), cofactors)) for row in signed[start:])
            return
        plan = plans[depth]
        for i in range(start, n - width + depth + 1):
            row = signed[i]
            grow(i + 1, depth + 1, [sum(map(mul, pick(row), sub(minors))) for pick, sub in plan])

    for i in range(n - width + 1):
        grow(i + 1, 1, rows[i])
    return dets


def _lifted_rows(points: Iterable[Vector]) -> list[list[int]]:
    """Rows L * (1, x) with L the lcm of the point's denominators."""
    rows = []
    for p in points:
        scale = lcm(*(c.denominator for c in p))
        rows.append([scale] + [c.numerator * (scale // c.denominator) for c in p])
    return rows


def _bits(indices: Iterable[int]) -> int:
    """Bitmask of distinct 0-based point indices."""
    return sum(1 << i for i in indices)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("coordinates must be exact (int, Fraction or 'p/q' text)")
    return Fraction(value)


@dataclass(frozen=True)
class PointConfig:
    """n exact points in dimension d, in general position.

    General position (every (d+1)-subset affinely independent) is validated
    at construction, while the chirotope table is built; violations raise
    GeneralPositionError naming the first offending subset, in combinations
    order, with 1-based labels.
    """

    dim: int
    points: tuple[Vector, ...]
    # (d+1)-subset bitmask -> sign (+1 or -1) of det[(1, x_i)] over its points
    chirotope: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not self.points:
            raise ValueError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        dets = _maximal_minors(_lifted_rows(self.points))
        size = self.dim + 1
        if 0 in dets:
            subset = next(islice(combinations(range(1, self.n + 1), size), dets.index(0), None))
            raise GeneralPositionError(subset)
        # a subset's mask is the sum of its combinations tuple of unit bits
        masks = combinations([1 << i for i in range(self.n)], size)
        table = {sum(m): 1 if det > 0 else -1 for m, det in zip(masks, dets)}
        object.__setattr__(self, "chirotope", table)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def _partitions(self) -> dict[int, tuple[int, int]]:
        """(d+2)-subset bitmask -> (pos, neg) masks of its minimal Radon
        partition, in combinations order.

        Point s_k of the subset is in pos when chi(subset minus s_k) > 0
        equals k being even: the sign of the k-th cofactor of the unique
        affine dependence.
        """
        positive = {mask: sign > 0 for mask, sign in self.chirotope.items()}
        out = {}
        for masks in combinations([1 << i for i in range(self.n)], self.dim + 2):
            members = sum(masks)
            pos, even = 0, True
            for bit in masks:
                if positive[members ^ bit] == even:
                    pos |= bit
                even = not even
            out[members] = (pos, members ^ pos)
        return out

    @classmethod
    def from_rows(cls, dim: int, rows: Iterable[Iterable]) -> "PointConfig":
        return cls(dim, tuple(tuple(_as_fraction(v) for v in row) for row in rows))

    def to_text(self) -> str:
        lines = [f"{self.n} {self.dim}"]
        for p in self.points:
            lines.append(" ".join(str(v) for v in p))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PointConfig":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise PointFormatError("empty point file")
        head = lines[0].split()
        if len(head) != 2:
            raise PointFormatError(f"expected header 'n d', got {lines[0]!r}")
        try:
            n, d = int(head[0]), int(head[1])
        except ValueError as exc:
            raise PointFormatError(f"non-integer header {lines[0]!r}") from exc
        if n < 1 or d < 1:
            raise PointFormatError(f"header {lines[0]!r} needs n >= 1 and d >= 1")
        if len(lines) != n + 1:
            raise PointFormatError(f"expected {n} point lines, got {len(lines) - 1}")
        rows = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != d:
                raise PointFormatError(f"point line {line!r} needs {d} coordinates")
            try:
                rows.append(tuple(Fraction(p) for p in parts))
            except (ValueError, ZeroDivisionError) as exc:
                raise PointFormatError(f"bad coordinate in {line!r}") from exc
        return cls(d, tuple(rows))


@dataclass(frozen=True)
class Coloring:
    """Total red/blue assignment; red plays the role of the first class."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("coloring must not be empty")
        bad = set(self.labels) - {RED, BLUE}
        if bad:
            raise ValueError(f"labels must be R or B, got {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_string(cls, text: str) -> "Coloring":
        return cls(tuple(text.strip().upper()))

    def to_string(self) -> str:
        return "".join(self.labels)

    def color(self, i: int) -> str:
        return self.labels[i - 1]

    @property
    def red(self) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(self.labels) if c == RED)

    @property
    def blue(self) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(self.labels) if c == BLUE)

    def swap(self) -> "Coloring":
        return Coloring(tuple(BLUE if c == RED else RED for c in self.labels))


@dataclass(frozen=True)
class GaleTransform:
    """n dual vectors in dimension n - d - 1, plus the dependence basis used."""

    vectors: tuple[Vector, ...]
    dependences: tuple[Vector, ...] = field(compare=False)


def _require_dependences(config: PointConfig, purpose: str) -> None:
    if config.n < config.dim + 2:
        raise DegenerateSpanError(f"need n >= d + 2 {purpose}, got n={config.n} d={config.dim}")


def gale_transform(config: PointConfig) -> GaleTransform:
    """Dual vectors from an exact basis of the affine dependences.

    Needs n >= d + 2.  General position makes the first d + 1 points
    affinely independent, so each later point f has one dependence on them
    and f with alpha_f = 1: by Cramer's rule, alpha_s is proportional to
    (-1)^k det(lifted rows without s_k) * L_s for s = s_k of (1..d+1, f),
    with L_s the point's lcm scale.  Each basis dependence satisfies
    sum(alpha_i * x_i) = 0 and sum(alpha_i) = 0; this is re-verified.
    """
    _require_dependences(config, "for a Gale transform")
    n, d = config.n, config.dim
    rows = _lifted_rows(config.points)
    basis = []
    for f in range(d + 1, n):
        subset = tuple(range(d + 1)) + (f,)
        # combinations order drops the last row first: reversed, minor k
        # leaves out s_k
        minors = _maximal_minors([rows[i] for i in subset])[::-1]
        alpha = [0] * n
        for k, (s, minor) in enumerate(zip(subset, minors)):
            alpha[s] = (-1) ** k * minor * rows[s][0]
        basis.append([Fraction(a, alpha[f]) for a in alpha])
    for alpha in basis:
        if sum(alpha) != 0:
            raise AssertionError("dependence basis violates sum(alpha) = 0")
        for i in range(d):
            if sum(a * p for a, p in zip(alpha, (pt[i] for pt in config.points))) != 0:
                raise AssertionError("dependence basis violates sum(alpha x) = 0")
    vectors = tuple(tuple(alpha[j] for alpha in basis) for j in range(n))
    return GaleTransform(vectors, tuple(tuple(a) for a in basis))


def affine_projection(config: PointConfig, coloring: Coloring) -> tuple[Vector, ...]:
    """Signed rays (x_i; 1), negated for blue points.

    The exact ray representation is returned; directions on the unit sphere
    are the same rays after normalization, which only matters for display.
    """
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    rays = []
    for i, p in enumerate(config.points, start=1):
        sign = 1 if coloring.color(i) == RED else -1
        rays.append(tuple(Fraction(sign) * c for c in p) + (Fraction(sign),))
    return tuple(rays)


def _red_bits(coloring: Coloring) -> int:
    return _bits(i for i, c in enumerate(coloring.labels) if c == RED)


def _induced(partitions: dict[int, tuple[int, int]], red: int) -> Iterator[bool]:
    """Per (d+2)-subset, in combinations order: does the red mask induce its
    minimal partition?"""
    return ((red & members) in sides for members, sides in partitions.items())


def is_radon_pair(config: PointConfig, subset: Iterable[int], coloring: Coloring) -> bool:
    """Does the coloring induce the minimal Radon partition of this subset?

    True exactly when the two color classes restricted to the (d+2)-subset
    coincide with the sign classes of its unique affine dependence, up to
    swapping the colors; equivalently, the hulls of the restricted classes
    intersect.
    """
    sub = tuple(sorted(subset))
    if len(sub) != config.dim + 2:
        raise ValueError(f"subset must have d + 2 = {config.dim + 2} points, got {len(sub)}")
    if sub[0] < 1 or sub[-1] > config.n:
        raise ValueError(f"subset {sub} out of range 1..{config.n}")
    if len(set(sub)) != len(sub):
        raise ValueError(f"subset {sub} repeats a point")
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    members = _bits(i - 1 for i in sub)
    return (_red_bits(coloring) & members) in config._partitions[members]


def _checked_red(config: PointConfig, coloring: Coloring) -> int:
    _require_dependences(config, "to count induced partitions")
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    return _red_bits(coloring)


def count_induced(config: PointConfig, coloring: Coloring) -> int:
    """Number of (d+2)-subsets whose minimal Radon partition the coloring induces."""
    return sum(_induced(config._partitions, _checked_red(config, coloring)))


def induced_flags(config: PointConfig, coloring: Coloring) -> list[bool]:
    """is_radon_pair for every (d+2)-subset, in combinations order, from one
    pass over the partition table."""
    return list(_induced(config._partitions, _checked_red(config, coloring)))


MAX_EXHAUSTIVE_POINTS = 22

# point bits per flip-table chunk: 2^6 entries per table
_CHUNK = 6


def _flip_tables(config: PointConfig) -> list[list[tuple[int, int, list[int]]]]:
    """Per point p, lookup tables of the subsets through p that a flip of p
    leaves uninduced.

    Number the subsets by j in combinations order.  One pass over them sets
    bit j of member[q] when subset j contains q, and of side[q] when q is on
    its pos side.  Then column same[q] (other[q]) of p, the subsets through
    p and q with q on p's side (the other side), is member[p] & member[q]
    without (with) the bits where side[p] and side[q] differ.  With p red,
    subset j is missed when some other member q is red on the other side or
    blue on p's side, so the missed set is an OR over q of other[q] or
    same[q].  The points are cut into ceil(n / _CHUNK) chunks of
    consecutive bits, of near-equal sizes, and each chunk (shift, full,
    table) tabulates that OR for every red pattern r of its points, with
    p's own column zero so p's bit is ignored.  With p blue the roles of
    same and other swap, which is the same table read at r ^ full.
    """
    n = config.n
    member, side = [0] * n, [0] * n
    subsets = combinations(range(n), config.dim + 2)
    for j, (subset, (pos, _neg)) in enumerate(zip(subsets, config._partitions.values())):
        bit = 1 << j
        for q in subset:
            member[q] |= bit
            if pos >> q & 1:
                side[q] |= bit
    parts = -(-n // _CHUNK)  # ceil(n / _CHUNK)
    cuts = [n * k // parts for k in range(parts + 1)]
    tables = [[]]  # point 1 never flips
    for p in range(1, n):
        chunks = []
        for shift, stop in zip(cuts, cuts[1:]):
            table = [0]  # doubling: bit b of the index is point shift + b red
            for q in range(shift, stop):
                both = member[p] & member[q] if q != p else 0
                red_q = both & (side[p] ^ side[q])  # other[q]
                blue_q = both ^ red_q  # same[q]
                table = [t | blue_q for t in table] + [t | red_q for t in table]
            chunks.append((shift, len(table) - 1, table))
        tables.append(chunks)
    return tables


def max_r(config: PointConfig) -> tuple[int, Coloring]:
    """Exhaustive maximum induced count over colorings, with point 1 red.

    Returns the maximum and the first witness in mask order (bit i of the
    mask colors point i + 2 blue), which is the lexicographically least
    maximizing coloring under R < B.  The colorings are walked in Gray-code
    order: step i flips the point of the lowest set bit of i, and only the
    subsets through that point are recounted.  The subsets that the point
    misses as red, and as blue, are one table lookup per chunk of at most
    _CHUNK points in the _flip_tables of that point, OR-ed over the chunks,
    so a step costs ceil(n / _CHUNK) lookups per color.  Fewer than d + 2
    points raise DegenerateSpanError.  Configurations beyond 22 points are
    refused; use max_r_sampled for those.
    """
    _require_dependences(config, "to maximize induced partitions")
    n = config.n
    if n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"exhaustive search is capped at {MAX_EXHAUSTIVE_POINTS} points; "
            "call max_r_sampled for an approximate scan"
        )
    tables = _flip_tables(config)
    red = (1 << n) - 1
    count = best = sum(_induced(config._partitions, red))
    best_mask = 0
    for i in range(1, 1 << (n - 1)):
        p = (i & -i).bit_length()  # mask bit p - 1 is point index p
        # the subsets through p that p red, and p blue, fails to induce
        missed_red = missed_blue = 0
        for shift, full, table in tables[p]:
            r = red >> shift & full
            missed_red |= table[r]
            missed_blue |= table[r ^ full]
        delta = missed_red.bit_count() - missed_blue.bit_count()
        count += delta if red >> p & 1 else -delta
        red ^= 1 << p
        if count >= best:
            mask = i ^ (i >> 1)
            if count > best or mask < best_mask:
                best, best_mask = count, mask
    red = ((1 << n) - 1) ^ (best_mask << 1)
    return best, Coloring(tuple(RED if red >> i & 1 else BLUE for i in range(n)))


def max_r_sampled(config: PointConfig, samples: int, seed: int) -> tuple[int, Coloring]:
    """Approximate variant of max_r: best of `samples` seeded random colorings.

    The result is a lower bound on the true maximum and is labeled
    approximate by construction; the exhaustive contract stays with max_r.
    """
    _require_dependences(config, "to maximize induced partitions")
    rng = random.Random(seed)
    partitions = config._partitions
    best = -1
    witness: Coloring | None = None
    for _ in range(samples):
        labels = (RED,) + tuple(rng.choice((RED, BLUE)) for _ in range(config.n - 1))
        coloring = Coloring(labels)
        value = sum(_induced(partitions, _red_bits(coloring)))
        if value > best:
            best = value
            witness = coloring
    if witness is None:
        raise ValueError("samples must be positive")
    return best, witness


def lift_unbalanced(config: PointConfig, coloring: Coloring) -> tuple[PointConfig, Coloring]:
    """Rebuild the configuration so one color class is a single point while
    the induced count is preserved.

    The signed rays of (config, coloring) are scanned for a point strictly
    separable from the rest by a hyperplane through the origin.  By
    Kirchberger's theorem that holds exactly when flipping the point's color
    induces no partition: general position leaves each (d+2)-subset one
    Radon partition, and the origin is in the hull of the flipped rays
    exactly when it is in the hull of d + 2 of them.  The exact simplex then
    runs once, on the first such point, for the separator.  Cutting the ray
    bundle with a hyperplane parallel to the separator yields the new
    configuration; every subset keeps its ray bundle up to positive scaling
    and one linear change of coordinates, so the induced count is unchanged.
    Raises LiftSeparationError when no point is separable, which happens
    exactly when the dual configuration of the best representative stays
    convex.
    """
    rays = affine_projection(config, coloring)
    red = _red_bits(coloring)
    partitions = config._partitions
    chosen = next(
        (i for i in range(config.n) if not any(_induced(partitions, red ^ (1 << i)))), None
    )
    if chosen is None:
        raise LiftSeparationError(
            "no point of the signed projection is strictly separable from the rest"
        )
    functional = separating_functional(rays, chosen)
    if functional is None:
        raise ArithmeticError(
            f"point {chosen + 1} induces no partition when flipped but has no separator"
        )
    # cut each ray with the hyperplane <w, z> = 1 (sign of the scale encodes
    # the side), then drop one coordinate with w_k != 0 as an affine chart
    scales = [sum(w_i * c for w_i, c in zip(functional, ray)) for ray in rays]
    chart = next(k for k, w_k in enumerate(functional) if w_k != 0)
    lifted_points = []
    for ray, scale in zip(rays, scales):
        point = tuple(c / scale for c in ray)
        lifted_points.append(tuple(c for k, c in enumerate(point) if k != chart))
    labels = tuple(RED if i == chosen else BLUE for i in range(config.n))
    lifted = PointConfig(config.dim, tuple(lifted_points))
    return lifted, Coloring(labels)


# draws after which random_point_config gives up
_MAX_REDRAWS = 1000


def random_point_config(n: int, dim: int, seed: int, spread: int | None = None) -> PointConfig:
    """Seeded integer configuration in general position.

    Coordinates are drawn uniformly from [-spread, spread] (default 8 * n)
    and redrawn whenever a degenerate subset appears, so equal seeds yield
    equal configurations.  Raises ValueError when the grid holds fewer than
    n points, and when none of _MAX_REDRAWS draws is in general position.
    """
    rng = random.Random(seed)
    bound = spread if spread is not None else 8 * n
    what = f"n={n} points in dimension {dim} with spread {bound}"
    if bound < 0 or (2 * bound + 1) ** dim < n:
        raise ValueError(f"cannot draw {what}: the grid has fewer than n points")
    for _ in range(_MAX_REDRAWS):
        rows = [
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
            for _ in range(n)
        ]
        if len(set(rows)) < n:
            continue
        try:
            return PointConfig(dim, tuple(rows))
        except GeneralPositionError:
            continue
    raise ValueError(f"no general-position draw of {what} in {_MAX_REDRAWS} tries")
