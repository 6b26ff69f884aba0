"""Exact point configurations, Gale transforms and Radon partition counting.

All decisions in this module are determinant-sign or feasibility questions,
so every coordinate is an exact fraction and no floating point enters any
decision path.  Points are 1-indexed in errors and reports.

The pivotal facts used here, each covered by tests against independent
oracles:

  * a set of d + 2 points in general position has exactly one minimal Radon
    partition, read off the sign classes of its unique affine dependence;
  * a red/blue coloring induces that partition exactly when its color
    classes match the sign classes up to swapping the two colors;
  * appending a 1 to each point and negating the blue ones turns induced
    partitions into (d+2)-subsets of rays whose convex hull captures the
    origin, which connects the count to facets of a dual configuration via
    the Gale transform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
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
    """Points do not affinely span their ambient dimension."""


class LiftSeparationError(ValueError):
    """No point of the signed projection is strictly separable."""


class PointFormatError(ValueError):
    """Malformed point or coloring text."""


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
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


def _null_space(rows: list[list[Fraction]]) -> list[list[Fraction]]:
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("coordinates must be exact (int, Fraction or 'p/q' text)")
    return Fraction(value)


@dataclass(frozen=True)
class PointConfig:
    """n exact points in dimension d, in general position.

    General position (every (d+1)-subset affinely independent) is validated
    at construction; violations raise GeneralPositionError naming the
    offending subset with 1-based labels.
    """

    dim: int
    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not self.points:
            raise ValueError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        for subset in combinations(range(self.n), self.dim + 1):
            rows = [[Fraction(1)] + list(self.points[i]) for i in subset]
            if _det(rows) == 0:
                raise GeneralPositionError(tuple(i + 1 for i in subset))

    @property
    def n(self) -> int:
        return len(self.points)

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

    Needs n >= d + 2 and a full affine span.  Each basis dependence alpha
    satisfies sum(alpha_i * x_i) = 0 and sum(alpha_i) = 0 exactly; this is
    re-verified before returning.
    """
    n, d = config.n, config.dim
    if n < d + 2:
        raise DegenerateSpanError(f"need n >= d + 2 for a Gale transform, got n={n} d={d}")
    rows = [[config.points[j][i] for j in range(n)] for i in range(d)]
    rows.append([Fraction(1)] * n)
    basis = _null_space(rows)
    if len(basis) != n - d - 1:
        raise DegenerateSpanError(
            f"points span an affine subspace of dimension < {d}"
        )
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


def _minimal_partition(config: PointConfig, subset: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """Sign classes of the unique affine dependence of a (d+2)-subset.

    Uses the cofactor expansion: alpha_k = (-1)^k det of the lifted matrix
    with column k removed.  General position keeps every alpha_k nonzero.
    """
    lifted = [[Fraction(1)] + list(config.points[i - 1]) for i in subset]
    positive, negative = [], []
    for k, label in enumerate(subset):
        rows = [lifted[i] for i in range(len(subset)) if i != k]
        value = _det(rows)
        if value == 0:
            raise GeneralPositionError(subset)
        if (value > 0) == (k % 2 == 0):
            positive.append(label)
        else:
            negative.append(label)
    return frozenset(positive), frozenset(negative)


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
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    pos, neg = _minimal_partition(config, sub)
    reds = frozenset(i for i in sub if coloring.color(i) == RED)
    blues = frozenset(sub) - reds
    return (reds, blues) in ((pos, neg), (neg, pos))


def count_induced(config: PointConfig, coloring: Coloring) -> int:
    """Number of (d+2)-subsets whose minimal Radon partition the coloring induces."""
    if config.n < config.dim + 2:
        raise ValueError("need n >= d + 2 to count induced partitions")
    return sum(
        1
        for sub in combinations(range(1, config.n + 1), config.dim + 2)
        if is_radon_pair(config, sub, coloring)
    )


MAX_EXHAUSTIVE_POINTS = 22


def _colorings(n: int) -> Iterator[Coloring]:
    # point 1 pinned red: swapping colors never changes the induced count
    for mask in range(1 << (n - 1)):
        labels = [RED]
        for i in range(n - 1):
            labels.append(BLUE if (mask >> i) & 1 else RED)
        yield Coloring(tuple(labels))


def max_r(config: PointConfig) -> tuple[int, Coloring]:
    """Exhaustive maximum induced count over colorings, with point 1 red.

    Returns the maximum and the first witness in mask order, which is the
    lexicographically least maximizing coloring under R < B.  Configurations
    beyond 22 points are refused; use max_r_sampled for those.
    """
    if config.n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"exhaustive search is capped at {MAX_EXHAUSTIVE_POINTS} points; "
            "call max_r_sampled for an approximate scan"
        )
    splits = _subset_splits(config)
    best = -1
    witness: Coloring | None = None
    for coloring in _colorings(config.n):
        value = _count_with_splits(splits, coloring)
        if value > best:
            best = value
            witness = coloring
    assert witness is not None
    return best, witness


def max_r_sampled(config: PointConfig, samples: int, seed: int) -> tuple[int, Coloring]:
    """Approximate variant of max_r: best of `samples` seeded random colorings.

    The result is a lower bound on the true maximum and is labeled
    approximate by construction; the exhaustive contract stays with max_r.
    """
    rng = random.Random(seed)
    splits = _subset_splits(config)
    best = -1
    witness: Coloring | None = None
    for _ in range(samples):
        labels = (RED,) + tuple(rng.choice((RED, BLUE)) for _ in range(config.n - 1))
        coloring = Coloring(labels)
        value = _count_with_splits(splits, coloring)
        if value > best:
            best = value
            witness = coloring
    if witness is None:
        raise ValueError("samples must be positive")
    return best, witness


def _subset_splits(config: PointConfig):
    splits = []
    for sub in combinations(range(1, config.n + 1), config.dim + 2):
        pos, neg = _minimal_partition(config, sub)
        splits.append((frozenset(sub), pos))
    return splits


def _count_with_splits(splits, coloring: Coloring) -> int:
    reds = coloring.red
    count = 0
    for members, pos in splits:
        inside = members & reds
        if inside == pos or inside == members - pos:
            count += 1
    return count


def lift_unbalanced(config: PointConfig, coloring: Coloring) -> tuple[PointConfig, Coloring]:
    """Rebuild the configuration so one color class is a single point while
    the induced count is preserved.

    The signed rays of (config, coloring) are scanned for a point strictly
    separable from the rest by a hyperplane through the origin (an exact
    feasibility question).  Cutting the ray bundle with a hyperplane
    parallel to the separator yields the new configuration; every subset
    keeps its ray bundle up to positive scaling and one linear change of
    coordinates, so the induced count is unchanged.  Raises
    LiftSeparationError when no point is separable, which happens exactly
    when the dual configuration of the best representative stays convex.
    """
    rays = affine_projection(config, coloring)
    chosen: int | None = None
    functional: list[Fraction] | None = None
    for index in range(config.n):
        w = separating_functional(rays, index)
        if w is not None:
            chosen, functional = index, w
            break
    if chosen is None or functional is None:
        raise LiftSeparationError(
            "no point of the signed projection is strictly separable from the rest"
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
