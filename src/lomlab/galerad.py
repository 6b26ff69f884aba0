"""Exact point configurations, Gale transforms and Radon partition counting.

All decisions in this module are determinant-sign or feasibility questions.
Coordinates are exact fractions, determinants run on integers, and no
floating point enters any decision path.  Points are 1-indexed in errors
and reports.

Every Radon decision reads one table: the chirotope of the lifted points,
mapping each (d+1)-subset bitmask (bit i - 1 for point i) to the sign of
det[(1, x_i)].  It is built once per configuration with integer Bareiss
elimination, after scaling each point by the lcm of its denominators (a
positive scale, which keeps every sign).  The pivotal facts used here, each
covered by tests against independent oracles:

  * a set of d + 2 points in general position has exactly one minimal Radon
    partition, read off the sign classes of its unique affine dependence,
    whose k-th cofactor sign is (-1)^k chi(subset minus its k-th point);
  * the same cofactors, as integers times the lcm scales, are that
    dependence itself (Cramer's rule), so the Gale transform reads the
    values of the one determinant routine, _det, not just their signs;
  * a red/blue coloring induces that partition exactly when its color
    classes match the sign classes up to swapping the two colors, one mask
    comparison per subset;
  * appending a 1 to each point and negating the blue ones turns induced
    partitions into (d+2)-subsets of rays whose convex hull captures the
    origin, which connects the count to facets of a dual configuration via
    the Gale transform;
  * flipping one point's color changes only the subsets that contain it, so
    max_r walks the colorings in Gray-code order and recounts those alone;
  * by Kirchberger's theorem (Caratheodory in the lifted space), a point's
    signed ray is strictly separable from the others exactly when flipping
    its color induces no partition at all, so lift_unbalanced runs the
    exact simplex only on the first point passing that check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable

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
    """Points do not affinely span their ambient dimension."""


class LiftSeparationError(ValueError):
    """No point of the signed projection is strictly separable."""


class PointFormatError(ValueError):
    """Malformed point or coloring text."""


def _det(rows: list[list[int]]) -> int:
    """Exact integer determinant, by Bareiss fraction-free elimination."""
    mat = [row[:] for row in rows]
    size = len(mat)
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        top, pivot = mat[k], mat[k][k]
        for row in mat[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * mat[-1][-1]


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
        rows = _lifted_rows(self.points)
        table = {}
        for subset in combinations(range(self.n), self.dim + 1):
            det = _det([rows[i] for i in subset])
            if det == 0:
                raise GeneralPositionError(tuple(i + 1 for i in subset))
            table[_bits(subset)] = 1 if det > 0 else -1
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
        chi = self.chirotope
        out = {}
        for subset in combinations(range(self.n), self.dim + 2):
            members = _bits(subset)
            pos = 0
            for k, s in enumerate(subset):
                if (chi[members ^ (1 << s)] > 0) == (k % 2 == 0):
                    pos |= 1 << s
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


def gale_transform(config: PointConfig) -> GaleTransform:
    """Dual vectors from an exact basis of the affine dependences.

    Needs n >= d + 2.  General position makes the first d + 1 points
    affinely independent, so each later point f has one dependence on them
    and f with alpha_f = 1: by Cramer's rule, alpha_s is proportional to
    (-1)^k det(lifted rows without s_k) * L_s for s = s_k of (1..d+1, f),
    with L_s the point's lcm scale.  Each basis dependence satisfies
    sum(alpha_i * x_i) = 0 and sum(alpha_i) = 0; this is re-verified.
    """
    n, d = config.n, config.dim
    if n < d + 2:
        raise DegenerateSpanError(f"need n >= d + 2 for a Gale transform, got n={n} d={d}")
    rows = _lifted_rows(config.points)
    basis = []
    for f in range(d + 1, n):
        subset = tuple(range(d + 1)) + (f,)
        alpha = [0] * n
        for k, s in enumerate(subset):
            minor = _det([rows[i] for i in subset if i != s])
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


def _count(partitions: dict[int, tuple[int, int]], red: int) -> int:
    """Subsets whose minimal partition the red mask induces."""
    return sum((red & members) in sides for members, sides in partitions.items())


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


def count_induced(config: PointConfig, coloring: Coloring) -> int:
    """Number of (d+2)-subsets whose minimal Radon partition the coloring induces."""
    if config.n < config.dim + 2:
        raise ValueError("need n >= d + 2 to count induced partitions")
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    return _count(config._partitions, _red_bits(coloring))


MAX_EXHAUSTIVE_POINTS = 22


def _flip_slices(config: PointConfig) -> list[tuple[tuple[int, int, int], ...]]:
    """Per point p, the (d+2)-subsets through p as bit-sliced columns.

    Number the subsets containing p by j.  Slice p holds (1 << q, same_q,
    other_q) for each other point q: bit j of same_q (other_q) is set when q
    is on p's side (the other side) of subset j's partition.  With p red,
    subset j is induced exactly when its red members besides p are the rest
    of p's side; with p blue, when they are the other side.
    """
    n = config.n
    slices = []
    for p in range(n):
        same, other = [0] * n, [0] * n
        through_p = [sides for members, sides in config._partitions.items() if members >> p & 1]
        for j, (pos, neg) in enumerate(through_p):
            near, far = (pos, neg) if pos >> p & 1 else (neg, pos)
            for q in range(n):
                if near >> q & 1:
                    same[q] |= 1 << j
                elif far >> q & 1:
                    other[q] |= 1 << j
        slices.append(tuple((1 << q, same[q], other[q]) for q in range(n) if q != p))
    return slices


def max_r(config: PointConfig) -> tuple[int, Coloring]:
    """Exhaustive maximum induced count over colorings, with point 1 red.

    Returns the maximum and the first witness in mask order (bit i of the
    mask colors point i + 2 blue), which is the lexicographically least
    maximizing coloring under R < B.  The colorings are walked in Gray-code
    order: step i flips the point of the lowest set bit of i, and only the
    subsets through that point are recounted, all at once on the bit-sliced
    columns of _flip_slices.  Configurations beyond 22 points are refused;
    use max_r_sampled for those.
    """
    n = config.n
    if n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"exhaustive search is capped at {MAX_EXHAUSTIVE_POINTS} points; "
            "call max_r_sampled for an approximate scan"
        )
    slices = _flip_slices(config)
    red = (1 << n) - 1
    count = best = _count(config._partitions, red)
    best_mask = 0
    for i in range(1, 1 << (n - 1)):
        p = (i & -i).bit_length()  # mask bit p - 1 is point index p
        # the subsets through p that p red, and p blue, fails to induce
        missed_red = missed_blue = 0
        for bit, same, other in slices[p]:
            if red & bit:
                missed_red |= other
                missed_blue |= same
            else:
                missed_red |= same
                missed_blue |= other
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
    rng = random.Random(seed)
    partitions = config._partitions
    best = -1
    witness: Coloring | None = None
    for _ in range(samples):
        labels = (RED,) + tuple(rng.choice((RED, BLUE)) for _ in range(config.n - 1))
        coloring = Coloring(labels)
        value = _count(partitions, _red_bits(coloring))
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
        (i for i in range(config.n) if _count(partitions, red ^ (1 << i)) == 0), None
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


def random_point_config(n: int, dim: int, seed: int, spread: int | None = None) -> PointConfig:
    """Seeded integer configuration in general position.

    Coordinates are drawn uniformly from [-spread, spread] (default 8 * n)
    and redrawn whenever a degenerate subset appears, so equal seeds yield
    equal configurations.
    """
    rng = random.Random(seed)
    bound = spread if spread is not None else 8 * n
    while True:
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
