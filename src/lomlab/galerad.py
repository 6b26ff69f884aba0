"""Exact point configurations, Gale transforms and Radon partition counting.

All decisions in this module are determinant-sign or feasibility questions.
Coordinates are exact fractions, determinants run on integers, and no
floating point enters any decision path.  Points are 1-indexed in errors
and reports.

Every Radon decision reads one table: the chirotope of the lifted points,
the sign of det[(1, x_i)] for each (d+1)-subset, kept as one string of
"1"/"0" chars in combinations order.  It is built once per configuration,
after scaling each point by the lcm of its denominators (a positive scale,
which keeps every sign), as the fields of one packed int: each row, from
the last up, extends the packed minors of the rows below by one first-row
expansion, and one subtraction reads every sign off a field's top bit and
finds the first zero minor.  The expansion's terms, per column subset,
depend on the width d + 1 alone, so they form a program built once per
width and kept in a small table, which lift_unbalanced's lifted
configuration, of the same width, reuses.  A layout that depends only on
(n, d + 2), built once per shape by C-level maps, lets every per-subset
question be a few operations on masks with one bit per (d+2)-subset: per
rank r, an itemgetter reads the sign of every subset minus its r-th member
out of the string, so one int() gives the mask of subsets whose r-th
member is on the pos side, and a byte string of every subset's r-th
member, translated through a per-point table, gives the mask of subsets
whose r-th member is red.  The pivotal facts used here, each covered by
tests against independent oracles:

  * a set of d + 2 points in general position has exactly one minimal Radon
    partition, read off the sign classes of its unique affine dependence,
    whose k-th cofactor sign is (-1)^k chi(subset minus its k-th point);
  * the same cofactors, as integers times the lcm scales, are that
    dependence itself (Cramer's rule), so the Gale transform reads the
    values of the one determinant routine, _maximal_minors, not just
    their signs;
  * a red/blue coloring induces that partition exactly when its color
    classes match the sign classes up to swapping the two colors, so the
    induced subsets are the AND over the ranks of "red equals pos side",
    OR the AND of "red differs from pos side";
  * appending a 1 to each point and negating the blue ones turns induced
    partitions into (d+2)-subsets of rays whose convex hull captures the
    origin, which connects the count to facets of a dual configuration via
    the Gale transform;
  * a coloring induces a subset exactly when each member after the first,
    s0, has s0's color on s0's side and the other color off it, so max_r
    counts blocks of colorings as the bits (lanes) of one int: a subset's
    lanes are an AND of such planes, added into one carry-save counter;
  * by Kirchberger's theorem (Caratheodory in the lifted space), a point's
    signed ray is strictly separable from the others exactly when flipping
    its color induces no partition at all, so lift_unbalanced runs the
    exact simplex only on the first point passing that check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, count, islice
from math import comb, isqrt, lcm
from operator import add, itemgetter, mul
from typing import Iterable

from .exactlp import as_fraction, separating_functional

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


@lru_cache(maxsize=4)
def _expansion_program(width: int) -> list[list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """Per size k, (C, terms) for each mask C of k of the width columns:
    the first-row expansion of a minor on the columns in C, as terms
    (a, b) that multiply entry a of the row followed by its negation by
    minors[b], b being C less one column.  It depends on the width alone,
    so it is built once per width."""
    levels: list[list] = [[] for _ in range(width + 1)]
    for mask in range(1, 1 << width):
        cols = [c for c in range(width) if mask >> c & 1]
        terms = tuple((c + width * (t & 1), mask ^ 1 << c) for t, c in enumerate(cols))
        levels[len(cols)].append((mask, terms))
    return levels


def _packed_minors(rows: list[list[int]]) -> tuple[int, int, int]:
    """(packed, F, ones): the determinant of every width-subset of the
    integer rows, width the row length, as F-bit fields of one int: field j
    holds the minor of subset j in combinations order plus 2^(F - 1), and
    ones has a 1 in every field.

    From the last row up, minors[C] packs the minors on the k columns in
    mask C of every k-subset of the rows below, lowest field first.  Those
    that start at row i come first, so minors[C] moves up C(n - i - 1, k - 1)
    fields and the expansion along row i, sum_t (-1)^t row_i[C_t]
    minors[C minus C_t], fills the gap for all of them at once; the terms
    come from the width's _expansion_program.  A mask is kept while at
    least k rows lie at or below i and width - k above.  Hadamard's bound,
    which Sylvester-Hadamard rows reach, caps every minor at
    isqrt(S^width) < 2^(F - 1), S the largest squared row norm.
    """
    n, width = len(rows), len(rows[0])
    bits = isqrt(max(sum(v * v for v in row) for row in rows) ** width).bit_length() + 1
    levels = _expansion_program(width)
    minors = [1] + [0] * ((1 << width) - 1)
    for i in range(n - 1, -1, -1):
        signed = rows[i] + [-v for v in rows[i]]
        for k in range(min(width, n - i), max(0, width - i - 1), -1):
            shift = bits * comb(n - i - 1, k - 1)
            for mask, terms in levels[k]:
                expansion = 0
                for a, b in terms:
                    expansion += signed[a] * minors[b]
                minors[mask] = (minors[mask] << shift) + expansion
        for mask, _ in levels[width - i - 1] if i < width - 1 else ():
            minors[mask] = 0  # no longer read
    ones = ((1 << comb(n, width) * bits) - 1) // ((1 << bits) - 1)
    return minors[-1] + (ones << (bits - 1)), bits, ones


# per bit k, the bytes.translate table sending a byte to "1" or "0" by bit k
_BIT_DIGITS = [bytes(b"01"[v >> k & 1] for v in range(256)) for k in range(8)]


def _top_bits(packed: int, width: int, count: int) -> str:
    """"1" or "0" per width-bit field of packed, lowest first, by its top
    bit: eight fields fill width bytes, so field r of each eight has its top
    bit at the same bit of every width-th byte."""
    groups = -(-count // 8)
    data = packed.to_bytes(groups * width, "little")
    digits = bytearray(8 * groups)
    for r, top in enumerate(range(width - 1, 8 * width, width)):
        digits[r::8] = data[top >> 3 :: width].translate(_BIT_DIGITS[top & 7])
    return digits[:count].decode()


def _maximal_minors(rows: list[list[int]]) -> list[int]:
    """Determinant of every width-subset of the integer rows, width the row
    length, in combinations order: _packed_minors' fields less their bias."""
    packed, width, _ = _packed_minors(rows)
    size = comb(len(rows), len(rows[0])) * width
    bits, half = format(packed, f"0{size}b"), 1 << (width - 1)
    return [int(bits[a - width : a], 2) - half for a in range(size, 0, -width)]


def _lifted_rows(points: Iterable[Vector]) -> list[list[int]]:
    """Rows L * (1, x) with L the lcm of the point's denominators."""
    rows = []
    for p in points:
        scale = lcm(*(c.denominator for c in p))
        rows.append([scale] + [c.numerator * (scale // c.denominator) for c in p])
    return rows


@lru_cache(maxsize=4)
def _subset_layout(n: int, size: int) -> tuple[list[itemgetter], list[bytes]]:
    """(faces, members): how the size-subsets of n points read the signs of
    their (size - 1)-subsets, rank by rank.

    The subsets are listed last to first in combinations order, so that a
    string with one digit per subset, read by int(text, 2), puts subset j
    at bit j.  faces[r] picks, from a string with one char per
    (size - 1)-subset in combinations order, the char of every subset
    minus its r-th member; members[r] holds q + 1 for the r-th member q of
    every subset, so bytes.translate with a 256-byte table reads one digit
    per subset from any per-point table.  Both depend on (n, size) alone.
    A subset is a tuple of unit bits, so its mask is their sum and the
    bit length of its r-th unit is q + 1.
    """
    if n > 255:
        raise ValueError(f"Radon partitions index points by byte: n={n} exceeds 255")
    units = [1 << q for q in range(n)]
    subsets = list(combinations(units, size))[::-1]
    if not subsets:
        return [], []
    masks = list(map(sum, subsets))
    faces = dict(zip(map(sum, combinations(units, size - 1)), count()))
    picks = [itemgetter(r) for r in range(size)]
    return (
        [
            itemgetter(*map(faces.__getitem__, map(int.__sub__, masks, map(pick, subsets))))
            for pick in picks
        ],
        [bytes(map(int.bit_length, map(pick, subsets))) for pick in picks],
    )


def _coordinate(token: str) -> Fraction:
    """Fraction(token), read through int() when the token is an integer."""
    try:
        return Fraction(int(token))
    except ValueError:
        return Fraction(token)


@dataclass(frozen=True)
class PointConfig:
    """n exact points in dimension d, in general position.

    General position (every (d+1)-subset affinely independent) is validated
    at construction, while the chirotope signs are computed; violations
    raise GeneralPositionError naming the first offending subset, in
    combinations order, with 1-based labels.
    """

    dim: int
    points: tuple[Vector, ...]
    # "1" where det[(1, x_i)] over the (d+1)-subset is positive, else "0",
    # one char per subset in combinations order
    signs: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not self.points:
            raise ValueError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        packed, width, ones = _packed_minors(_lifted_rows(self.points))
        # less one, a field keeps its top bit exactly when its minor is positive
        positive = packed - ones
        zero = packed & ~positive & ones << (width - 1)
        if zero:
            subsets = combinations(range(1, self.n + 1), self.dim + 1)
            first = (zero & -zero).bit_length() // width - 1
            raise GeneralPositionError(next(islice(subsets, first, None)))
        object.__setattr__(self, "signs", _top_bits(positive, width, comb(self.n, self.dim + 1)))

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def pos(self) -> list[int]:
        """Per rank r, bit j set when the r-th member s_r of (d+2)-subset j,
        in combinations order, is on the pos side of its minimal Radon
        partition: when chi(subset minus s_r) > 0 equals r being even, the
        sign of the r-th cofactor of the unique affine dependence."""
        faces, _ = _subset_layout(self.n, self.dim + 2)
        full = (1 << comb(self.n, self.dim + 2)) - 1
        return [
            int("".join(face(self.signs)), 2) ^ (full if r & 1 else 0)
            for r, face in enumerate(faces)
        ]

    @classmethod
    def from_rows(cls, dim: int, rows: Iterable[Iterable]) -> "PointConfig":
        return cls(dim, tuple(tuple(as_fraction(v) for v in row) for row in rows))

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
                rows.append(tuple(map(_coordinate, parts)))
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

    @property
    def red(self) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(self.labels) if c == RED)


@dataclass(frozen=True)
class GaleTransform:
    """n dual vectors in dimension n - d - 1; coordinate k is dependence k."""

    vectors: tuple[Vector, ...]


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
    return GaleTransform(vectors)


def affine_projection(config: PointConfig, coloring: Coloring) -> tuple[Vector, ...]:
    """Signed rays (x_i; 1), negated for blue points.

    The exact ray representation is returned; directions on the unit sphere
    are the same rays after normalization, which only matters for display.
    """
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    one = Fraction(1)
    return tuple(
        (*p, one) if color == RED else (*(-c for c in p), -one)
        for p, color in zip(config.points, coloring.labels)
    )


def _red_bits(coloring: Coloring) -> int:
    return sum(1 << i for i, c in enumerate(coloring.labels) if c == RED)


def _induced(config: PointConfig, red: int) -> int:
    """Mask of the (d+2)-subsets, bit j for subset j in combinations order,
    whose minimal partition the red mask induces: every member is red
    exactly when it is on the pos side, or every member exactly when it is
    on the other side."""
    _, members = _subset_layout(config.n, config.dim + 2)
    # the bytes.translate table sending q + 1 to point q's digit of red
    table = b"0" + format(red, f"0{config.n}b")[::-1].encode() + bytes(255 - config.n)
    full = (1 << comb(config.n, config.dim + 2)) - 1
    every, some = full, 0
    for members_r, pos_r in zip(members, config.pos):
        # bit j: the r-th member of subset j is red on the other side, or
        # blue on the pos side
        off = int(members_r.translate(table), 2) ^ pos_r
        some |= off
        every &= off
    return every | (full ^ some)


def is_radon_pair(config: PointConfig, subset: Iterable[int], coloring: Coloring) -> bool:
    """Does the coloring induce the minimal Radon partition of this subset?

    True exactly when the two color classes restricted to the (d+2)-subset
    coincide with the sign classes of its unique affine dependence, up to
    swapping the colors; equivalently, the hulls of the restricted classes
    intersect.  Reads bit rank(subset) of the coloring's induced mask.
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
    # lex rank of sub among the (d+2)-subsets of 0..n-1
    n, size = config.n, len(sub)
    rank = comb(n, size) - 1 - sum(comb(n - i, size - k) for k, i in enumerate(sub))
    return bool(_induced(config, _red_bits(coloring)) >> rank & 1)


def _checked_red(config: PointConfig, coloring: Coloring, purpose: str) -> int:
    _require_dependences(config, purpose)
    if coloring.n != config.n:
        raise ValueError("coloring length must match the configuration")
    return _red_bits(coloring)


def count_induced(config: PointConfig, coloring: Coloring) -> int:
    """Number of (d+2)-subsets whose minimal Radon partition the coloring induces."""
    red = _checked_red(config, coloring, "to count induced partitions")
    return _induced(config, red).bit_count()


def induced_flags(config: PointConfig, coloring: Coloring) -> list[bool]:
    """is_radon_pair for every (d+2)-subset, in combinations order, from one
    induced mask."""
    mask = _induced(config, _checked_red(config, coloring, "to count induced partitions"))
    return list(map("1".__eq__, reversed(format(mask, f"0{comb(config.n, config.dim + 2)}b"))))


MAX_EXHAUSTIVE_POINTS = 22

# Colorings per block of max_r: lane l of block b is the coloring with mask
# b * COLORING_LANES + l.  The blocks bound its memory.
COLORING_LANES = 1 << 17


def _lane_maximum(slots: list[int], full: int) -> tuple[int, int]:
    """(maximum, least lane reaching it) of a carry-save lane counter whose
    planes of weight 2^k are slots[2k] and slots[2k + 1] (0 when empty):
    full adders leave one plane per weight, read from the top down."""
    total, carry = [], 0
    for a, b in zip(slots[::2], slots[1::2]):
        s = a ^ b
        total.append(s ^ carry)
        carry = (a & b) | (s & carry)
    lanes, value = full, 0
    for k in reversed(range(len(total))):
        if lanes & total[k]:
            lanes, value = lanes & total[k], value | 1 << k
    return value, (lanes & -lanes).bit_length() - 1


def max_r(config: PointConfig) -> tuple[int, Coloring]:
    """Exhaustive maximum induced count over colorings, with point 1 red.

    Returns the maximum and the first witness in mask order (bit i of the
    mask colors point i + 2 blue), which is the lexicographically least
    maximizing coloring under R < B.  Each block of up to COLORING_LANES
    colorings is counted at once, one coloring per bit (lane) of an int:
    red[q], the lanes where point q is red, is periodic for the mask bits
    inside the block and full or 0 above them.  The plane of a subset, the
    lanes inducing it, ANDs over each member q after the first, s0, the
    lanes where q and s0 share a color (q on s0's side) or differ (q on the
    other side).  Non-zero planes go into a carry-save counter, at most two
    planes per weight merged by full adders.  A later block replaces the
    best only when strictly larger, so ties keep the least mask.  Fewer
    than d + 2 points raise DegenerateSpanError.  Configurations beyond 22
    points are refused; use max_r_sampled for those.
    """
    _require_dependences(config, "to maximize induced partitions")
    n, size = config.n, config.dim + 2
    if n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"exhaustive search is capped at {MAX_EXHAUSTIVE_POINTS} points; "
            "call max_r_sampled for an approximate scan"
        )
    _, members = _subset_layout(n, size)
    pos, subsets = config.pos, len(members[0])
    # per rank r >= 1, a byte per subset in combinations order: q + 1 for
    # its r-th member q, plus n when q is on the other side from s0
    other = bytes.maketrans(b"01", bytes([0, n]))
    keys = [
        bytes(map(add, at, format(p ^ pos[0], f"0{subsets}b").encode().translate(other)))[::-1]
        for at, p in zip(members[1:], pos[1:])
    ]
    cuts = list(accumulate((comb(n - 1 - s0, size - 1) for s0 in range(n - size + 1)), initial=0))
    groups = [[keys_r[a:b] for keys_r in keys] for a, b in zip(cuts, cuts[1:])]  # per s0
    width = min(COLORING_LANES, 1 << (n - 1))
    full = (1 << width) - 1
    inner = width.bit_length() - 1  # mask bits inside a block
    periodic = [full] + [  # point k + 1 is red on the lanes with bit k clear
        ((1 << h) - 1) * (full // ((1 << 2 * h) - 1)) for h in (1 << k for k in range(inner))
    ]
    best, best_mask = -1, 0
    for block in range(1 << (n - 1 - inner)):
        red = periodic + [0 if block >> k & 1 else full for k in range(n - 1 - inner)]
        slots = [0] * (2 * subsets.bit_length())
        for base, group in zip(red, groups):
            get = ([0] + [full ^ base ^ r for r in red] + [base ^ r for r in red]).__getitem__
            for key in zip(*group):
                planes = map(get, key)
                plane = next(planes)
                for member in planes:
                    plane &= member
                    if not plane:
                        break
                k = 0
                while plane:  # the plane enters at weight 1
                    a, b = slots[k], slots[k + 1]
                    if not b:  # a free slot: b fills only after a
                        slots[k + 1 if a else k] = plane
                        break
                    s = a ^ b
                    slots[k], slots[k + 1] = s ^ plane, 0
                    plane = (a & b) | (s & plane)
                    k += 2
        value, lane = _lane_maximum(slots, full)
        if value > best:
            best, best_mask = value, block * width + lane
    red_mask = ((1 << n) - 1) ^ (best_mask << 1)
    return best, Coloring(tuple(RED if red_mask >> i & 1 else BLUE for i in range(n)))


def max_r_sampled(config: PointConfig, samples: int, seed: int) -> tuple[int, Coloring]:
    """Approximate variant of max_r: best of `samples` seeded random colorings.

    The result is a lower bound on the true maximum and is labeled
    approximate by construction; the exhaustive contract stays with max_r.
    """
    _require_dependences(config, "to maximize induced partitions")
    rng = random.Random(seed)
    best = -1
    witness: Coloring | None = None
    for _ in range(samples):
        labels = (RED,) + tuple(rng.choice((RED, BLUE)) for _ in range(config.n - 1))
        coloring = Coloring(labels)
        value = _induced(config, _red_bits(coloring)).bit_count()
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
    exactly when it is in the hull of d + 2 of them.  Flipping a point
    outside an induced subset leaves that subset induced, so only the
    members of the first induced subset are tried, and every point when
    the coloring induces nothing.  The exact simplex then runs once, on
    the first such point, for the separator.  Cutting the ray
    bundle with a hyperplane parallel to the separator yields the new
    configuration, on integers: with W the separator and R_i ray i, each
    scaled by the lcm of its denominators, the cut is R_i * lcm_W / <W, R_i>,
    one Fraction per lifted coordinate.  Every subset keeps its ray bundle up to positive scaling
    and one linear change of coordinates, so the induced count is unchanged.
    Raises LiftSeparationError when no point is separable, which happens
    exactly when the dual configuration of the best representative stays
    convex.
    """
    red = _checked_red(config, coloring, "to lift a coloring")
    induced, points = _induced(config, red), range(config.n)
    if induced:
        # members[k][-1 - j] is 1 + the k-th member of subset j
        _, members = _subset_layout(config.n, config.dim + 2)
        first = (induced & -induced).bit_length()  # 1 + the first induced subset
        points = [member[-first] - 1 for member in members]
    chosen = next((i for i in points if not _induced(config, red ^ (1 << i))), None)
    if chosen is None:
        raise LiftSeparationError(
            "no point of the signed projection is strictly separable from the rest"
        )
    rays = affine_projection(config, coloring)
    functional = separating_functional(rays, chosen)
    if functional is None:
        raise ArithmeticError(
            f"point {chosen + 1} induces no partition when flipped but has no separator"
        )
    # cut each ray with the hyperplane <w, z> = 1 (sign of the scale encodes
    # the side), then drop one coordinate with w_k != 0 as an affine chart
    ((lcm_w, *weights),) = _lifted_rows([functional])
    chart = next(k for k, w_k in enumerate(weights) if w_k)
    lifted_points = []
    for _, *ray in _lifted_rows(rays):
        scale = sum(map(mul, weights, ray))
        del ray[chart]
        lifted_points.append(tuple(Fraction(c * lcm_w, scale) for c in ray))
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
