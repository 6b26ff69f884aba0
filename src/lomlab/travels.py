"""Travels of a sign matrix and the interior-element machinery built on them.

A travel is a monotone staircase walk over matrix positions.  The top travel
starts at a[1][1] and moves right while consecutive entries in the row agree;
at the first disagreement it takes the flipped entry and drops one row in
that column.  In the bottom row there is nowhere left to drop, so the walk
stops just before a flip.  The bottom travel is the mirror image, the top
travel of the matrix turned by 180 degrees, and is computed that way: it
starts at a[r][n], moves left and rises at flips, stopping before a flip
once it reaches row 1.  Both walks are unique for a given matrix.

The matroid encoded by the matrix is cyclic exactly when the top travel ends
in row r strictly before column n (equivalently, when the bottom travel ends
in row 1 strictly after column 1).  For acyclic matrices the two travels
decide which ground-set elements are interior:

  (a) column 1 is interior when the bottom travel runs all the way into
      a[1][2], a[1][1];
  (b) column n is interior when the top travel runs through a[r][n-1],
      a[r][n];
  (c) a middle column k is interior when the travels are parallel at k,
      meaning the top travel passes horizontally through columns k-1, k, k+1
      of some row i and the bottom travel passes horizontally through the
      same three columns of row i or of row i+1.

These criteria agree with the brute-force definition via signed circuits of
the chirotope; the test suite checks that equivalence exhaustively on small
matrices and on random larger ones.

Plain travels are the staircase shapes that a top travel of an acyclic
matrix can take, minus the degenerate one-segment shape: they start at
a[1][1], drop at strictly increasing columns >= 2 and end at column n.  They
depend only on (r, n).  Reorienting the column set computed by
``reorientation_for_pt`` turns the top travel of any matrix into any
prescribed plain travel, which makes plain travels an index of the acyclic
reorientation classes of the matroid (with column 1 kept fixed); the
one-segment shape indexes the remaining class, the one containing the
matrix itself whenever it is acyclic.  ``min_interior`` scans the plain
travels plus that degenerate shape, so its minimum ranges over every acyclic
reorientation class.

Every class scan goes through one kernel, ``_scan``: a single generator
frame that walks the drop columns depth first on an explicit stack, over
int-bitmask rows.  Its walk is the one definition of the class order, the
lexicographic order of breakpoints (drop columns, then n), and
``enumerate_plain_travels`` is the kernel run on the all-plus matrix.
``scan_classes`` runs it on a matrix and ``_min_class`` on raw row masks;
``_min_class`` stops at the first class with no interior element, since
no class has fewer.  Each class's top travel is its prescribed plain
travel, so only the bottom travel is walked (in ``_close``, one
``int.bit_length`` step per segment on the rows' turn masks), and
criterion (c) becomes one AND per row of the two travels' masks of
columns strictly inside a segment.  No table is kept per (r, n):
a scan's state is its stack and one list of top-travel masks, set on
descent and cleared on backtrack.

Two helpers make up every class: ``_drop_step`` adds one top-travel
segment ending in a drop, and ``_close`` adds the last segment and walks
the bottom travel.  ``_scan`` shares the drop steps of a prefix among the
classes below it; ``_class_of`` evaluates a single class, one
``_drop_step`` per drop and then ``_close``.
``reorientation_for_pt`` and ``interior_elements`` are built on it.

The rank-3 board scan evaluates a whole batch of matrices at once with
``_min_lanes``, the lane kernel.  Its input is one int per matrix entry,
a plane, whose bit l is that entry of the l-th matrix (lane l).  A class's
top travel is the same on every lane, so each class in ``_scan``'s order
costs one pass over the planes: the segment steps become xors of planes,
the bottom travel is swept over lane masks, and the interior counts go
into bit-sliced per-lane minima.  Every lane gets its exact minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .sign_matrix import SignMatrix

Rows = tuple[tuple[int, ...], ...]

TOP = "top"
BOTTOM = "bottom"
PLAIN = "plain"


class CyclicMatroidError(ValueError):
    """Operation defined only for acyclic matrices was given a cyclic one."""


class TravelFormatError(ValueError):
    """Malformed travel text."""


@dataclass(frozen=True)
class Travel:
    """A staircase walk stored as (row, col_from, col_to) segments.

    Consecutive segments share exactly the breakpoint column.  Top and plain
    travels move right and down (col_from <= col_to, rows increasing);
    bottom travels move left and up.
    """

    kind: str
    segments: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in (TOP, BOTTOM, PLAIN):
            raise ValueError(f"unknown travel kind {self.kind!r}")
        if not self.segments:
            raise ValueError("travel needs at least one segment")
        step = -1 if self.kind == BOTTOM else 1
        prev = None
        for row, a, b in self.segments:
            if step * (b - a) < 0:
                raise ValueError(f"segment {(row, a, b)} runs the wrong way")
            if prev is not None:
                prow, _, pb = prev
                if row != prow + step or a != pb:
                    raise ValueError("segments do not form a connected staircase")
            prev = (row, a, b)

    @property
    def start(self) -> tuple[int, int]:
        row, a, _ = self.segments[0]
        return (row, a)

    @property
    def end(self) -> tuple[int, int]:
        row, _, b = self.segments[-1]
        return (row, b)

    @property
    def end_row(self) -> int:
        return self.segments[-1][0]

    @property
    def end_col(self) -> int:
        return self.segments[-1][2]

    @property
    def drop_columns(self) -> tuple[int, ...]:
        """Columns where the walk changes row, in path order."""
        return tuple(seg[2] for seg in self.segments[:-1])

    @property
    def breakpoints(self) -> tuple[int, ...]:
        """Drop columns followed by the end column."""
        return self.drop_columns + (self.end_col,)

    def to_text(self) -> str:
        return ";".join(f"{row}:{a}-{b}" for row, a, b in self.segments)

    @classmethod
    def from_text(cls, text: str, kind: str = PLAIN) -> "Travel":
        segments = []
        for part in text.strip().split(";"):
            try:
                row_s, cols = part.split(":")
                a_s, b_s = cols.split("-")
                segments.append((int(row_s), int(a_s), int(b_s)))
            except ValueError as exc:
                raise TravelFormatError(f"bad segment {part!r}") from exc
        try:
            return cls(kind, tuple(segments))
        except ValueError as exc:
            raise TravelFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Walk construction on raw rows, for the single travels a caller asks for.


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
    """The bottom walk is the top walk of the matrix turned by 180 degrees,
    mapped back: row i to r + 1 - i and column c to n + 1 - c."""
    r, n = len(rows), len(rows[0])
    turned = tuple(row[::-1] for row in rows[::-1])
    return tuple((r + 1 - i, n + 1 - a, n + 1 - b) for i, a, b in _top_segments(turned))


def _is_acyclic(rows: Rows) -> bool:
    segments = _top_segments(rows)
    end_row, _, end_col = segments[-1]
    return not (end_row == len(rows) and end_col < len(rows[0]))


# ---------------------------------------------------------------------------
# The class-scan kernel.  Rows are int bitmasks, bit j set when the entry in
# column j + 1 is -1, so reorienting a column set is one xor per row.  A
# travel segment running from 0-based column a to column b is summarized by
# the mask of the columns strictly inside it, ``((1 << b) - 1) & (-2 << a)``:
# the columns k whose neighbours k - 1 and k + 1 the segment covers too.


def _row_masks(rows: Rows) -> list[int]:
    return [sum(1 << j for j, v in enumerate(row) if v < 0) for row in rows]


def _columns(mask: int) -> frozenset[int]:
    """1-indexed columns of a column bitmask."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)


def _drop_step(row: int, below: int, a: int, b: int, pivot: int) -> tuple[int, int, int]:
    """One top-travel segment along `row`, from column a to a drop at b.

    `pivot` is the entry bit the walk carries into column a.  Returns the
    columns to flip so the walk stays level up to b and drops at b, the
    entry bit it carries into the row below, and the segment's inside mask.
    """
    inside = ((1 << b) - 1) & (-2 << a)
    drop = ((row >> b) ^ pivot ^ 1) & 1
    flips = ((row ^ -pivot) & inside) | drop << b
    return flips, ((below >> b) & 1) ^ drop, inside


def _turn_masks(masks: Sequence[int]) -> list[int]:
    """Per row, bit j set when the entries in columns j + 1 and j + 2 differ.

    Reorienting by `flips` xors every row's turn mask with
    ``flips ^ (flips >> 1)``.
    """
    return [mask ^ (mask >> 1) for mask in masks]


def _close(
    masks: Sequence[int],
    turns: Sequence[int],
    tops: list[int],
    n: int,
    k: int,
    a: int,
    pivot: int,
    flips: int,
) -> tuple[int, int]:
    """(flips, interior) of the class whose top travel ends along row k.

    The travel enters row k at column a with entry bit `pivot`, `flips`
    covers the columns up to a, and tops[i + 1] is the inside mask of its
    segment in row i for i < k (0 for rows it misses, and tops[0] == 0).
    Its last segment, from column a to column n, is closed here and set in
    tops[k + 1]; a travel whose last drop is at column n closes with an
    empty one.  `turns` are the rows' turn masks (see ``_turn_masks``),
    which the reorientation enters as ``flips ^ (flips >> 1)``.

    The bottom travel is then walked, one step per segment: walking left
    from column j, it rises at the nearest turn left of j, the highest set
    bit of a masked xor.  Column n is interior when the top travel runs
    along row r through columns n - 1 and n.
    """
    inside = ((1 << n) - 1) & (-2 << a)
    tops[k + 1] = inside
    flips |= (masks[k] ^ -pivot) & inside
    flip_turns = flips ^ (flips >> 1)
    i, j = len(masks) - 1, n - 1
    out = 1 << j if k == i and a < j else 0
    while True:
        left = (1 << j) - 1
        off = (turns[i] ^ flip_turns) & left
        # parallel at k: bottom row i against top row i or top row i - 1;
        # the bottom segment's inside mask runs from rise to j, with
        # rise = 0 when the walk runs out to column 1
        if not off:
            return flips, out | (left & -2 & (tops[i] | tops[i + 1])) | (i == 0 and j > 0)
        rise = off.bit_length() - 1
        out |= left & (-2 << rise) & (tops[i] | tops[i + 1])
        i, j = i - 1, rise


def _scan(
    masks: Sequence[int], n: int, include_trivial: bool = True
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The class-scan kernel: (drops, flips, interior) per acyclic class.

    `masks` are the matrix rows as bitmasks.  The drop prefixes are walked
    depth first on an explicit stack, and this walk defines the class
    order, the lexicographic order of breakpoints: a node's children (drops
    at columns 2 .. n - 1) come first, then the class whose last segment
    runs to column n, then the child dropping at n.  Each drop extends the
    parent's flips by one travel segment, so classes sharing a prefix share
    its work.  tops[k + 1] holds the inside mask of the top travel in row
    k; it is set on descent and cleared on backtrack, so every class reads
    the one list.
    """
    r = len(masks)
    max_drops = min(r - 1, n - 1)
    last = n - 1
    turns = _turn_masks(masks)
    tops = [0] * (r + 1)
    # A node is a drop prefix: the top travel enters row k = len(drops) at
    # column a with entry bit `pivot`, `flips` covers the columns up to a,
    # and `inside` is the inside mask of the segment that dropped into row
    # k.  A node whose children have children is popped twice: first to
    # push itself back, `opened`, above its children, then to close once
    # they are done.  The children of a node at k = max_drops - 1 are
    # leaves, one class each, so that node closes them in a loop, in column
    # order, and then itself; no leaf goes on the stack.
    stack = [((), 0, 0, masks[0] & 1, 0, 0, False)]
    while stack:
        drops, k, a, pivot, flips, inside, opened = stack.pop()
        if not opened:
            tops[k] = inside
            if k < max_drops:
                row, below_row = masks[k], masks[k + 1]
                if k + 1 < max_drops:
                    stack.append((drops, k, a, pivot, flips, inside, True))
                    for b in range(last - 1, a, -1):
                        step, below, inside = _drop_step(row, below_row, a, b, pivot)
                        stack.append((drops + (b + 1,), k + 1, b, below, flips | step, inside, False))
                    continue
                for b in range(a + 1, last):
                    step, below, tops[k + 1] = _drop_step(row, below_row, a, b, pivot)
                    closed, interior = _close(masks, turns, tops, n, k + 1, b, below, flips | step)
                    yield drops + (b + 1,), closed, interior
                tops[k + 2] = 0
        if drops or include_trivial:
            closed, interior = _close(masks, turns, tops, n, k, a, pivot, flips)
            yield drops, closed, interior
        if k < max_drops:
            # the child dropping at column n: its last segment is empty
            step, below, tops[k + 1] = _drop_step(masks[k], masks[k + 1], a, last, pivot)
            closed, interior = _close(masks, turns, tops, n, k + 1, last, below, flips | step)
            yield drops + (n,), closed, interior
        tops[k + 1] = 0


def scan_classes(
    matrix: SignMatrix, include_trivial: bool = True
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Stream (drops, flips, interior) over the acyclic reorientation classes.

    Classes come in the kernel's order, the lexicographic order of
    breakpoints, so the first class with a given interior count is the
    lexicographically least witness.  `drops` are the 1-indexed drop
    columns of the class's plain travel; `flips` and `interior` are column
    bitmasks (bit j for column j + 1), the canonical reorientation and the
    interior set of the reoriented matrix.
    """
    return _scan(_row_masks(matrix.rows), matrix.n, include_trivial)


def _class_of(masks: Sequence[int], n: int, drops: Sequence[int]) -> tuple[int, int]:
    """(flips, interior) of the one class whose plain travel drops at `drops`.

    The same segment steps as a ``_scan`` path down to that class: one
    ``_drop_step`` per drop, then ``_close``.  `drops` are 1-indexed,
    strictly increasing in [2, n] and at most r - 1 of them; they are not
    checked here.
    """
    tops = [0] * (len(masks) + 1)
    k, a, pivot, flips = 0, 0, masks[0] & 1, 0
    for drop in drops:
        step, pivot, tops[k + 1] = _drop_step(masks[k], masks[k + 1], a, drop - 1, pivot)
        k, a, flips = k + 1, drop - 1, flips | step
    return _close(masks, _turn_masks(masks), tops, n, k, a, pivot, flips)


def _min_class(
    masks: Sequence[int], n: int, include_trivial: bool = True
) -> tuple[int, tuple[int, ...]]:
    """Least interior count over the classes and the first drops reaching it.

    The scan stops at the first class with no interior element, since no
    class can have fewer.
    """
    best, best_drops = n + 1, None
    for drops, _, interior in _scan(masks, n, include_trivial):
        count = interior.bit_count()
        if count < best:
            if not count:
                return count, drops
            best, best_drops = count, drops
    if best_drops is None:
        raise ValueError(
            f"a rank-{len(masks)} matrix has no plain travels; "
            "scan it with include_trivial=True"
        )
    return best, best_drops


# ---------------------------------------------------------------------------
# The lane kernel: one class on a whole batch of matrices at once.  Lane l is
# the l-th matrix of the batch, and a plane is an int with bit l for lane l:
# planes[i][j] has bit l set when entry (i + 1, j + 1) of lane l's matrix is
# -1.  A per-lane number is a list of planes, least significant bit first.


def _compare_lanes(x: Sequence[int], y: Sequence[int], full: int) -> tuple[int, int]:
    """(less, same): the lanes where the number x is below y, and where they
    are equal.  x and y have the same plane count; `full` has a bit per lane."""
    less, same = 0, full
    for xb, yb in zip(reversed(x), reversed(y)):
        # complementing a big int is several times slower than an xor
        differ = same & (xb ^ yb)
        less |= differ & yb
        same ^= differ
    return less, same


def _min_lanes(planes: Sequence[Sequence[int]], n: int, full: int) -> list[int]:
    """Per lane, the least interior count over the acyclic classes.

    `planes` are the r x n entry planes of a batch and `full` has a bit per
    lane.  Returns the minima as (n + 1).bit_length() planes; each equals
    ``_min_class(masks, n)[0]`` of its lane.

    A class's top travel is its plain travel on every lane, so the classes
    run in the kernel's order, the drops of ``_scan([0] * r, n)``, and each
    drop step of ``_drop_step`` becomes xors of planes: a flip plane is the
    entry plane in the segment's row xor the pivot plane.  The bottom
    travel is swept row by row, right to left, over lane masks: `here`
    holds the lanes walking along the row at column c, which rise into the
    row above where the reoriented row turns and walk on elsewhere.  As in
    ``_close``, a middle column is interior on the lanes that walk level
    through it, when the top travel's segment in that row or the row above
    has it inside.  Each interior column's lanes go into a bit-sliced
    count, and the count into the running minima.  The scan stops once
    every lane has a class with no interior element.
    """
    r = len(planes)
    width = (n + 1).bit_length()
    least = [full] * width  # 2 ** width - 1 lies above every count
    turns = [[row[c] ^ row[c + 1] for c in range(n - 1)] for row in planes]
    for drops, _, _ in _scan([0] * r, n):
        flips = [0] * n  # column 1 is never flipped
        tops = [0] * (r + 1)
        k, a, pivot = 0, 0, planes[0][0]
        for drop in drops:
            b, row = drop - 1, planes[k]
            for c in range(a + 1, b):
                flips[c] = row[c] ^ pivot
            flips[b] = row[b] ^ pivot ^ full
            pivot = planes[k + 1][b] ^ flips[b]
            k += 1
            tops[k] = ((1 << b) - 1) & (-2 << a)
            a = b
        row = planes[k]
        for c in range(a + 1, n):
            flips[c] = row[c] ^ pivot
        tops[k + 1] = ((1 << n) - 1) & (-2 << a)
        moves = [flips[c] ^ flips[c + 1] for c in range(n - 1)]

        # the lanes of each interior column; column n is interior on every
        # lane when the top travel runs along row r through n - 1 and n
        interior = [full] if k == r - 1 and a < n - 1 else []
        enter = [0] * n
        enter[n - 1] = full
        # enter[c]: the lanes whose bottom travel enters the row at column c;
        # level: those that walked level into column c from c + 1
        for i in range(r - 1, 0, -1):
            inner, turn, rises = tops[i] | tops[i + 1], turns[i], [0] * n
            here, level = enter[n - 1], 0
            for c in range(n - 1, 0, -1):
                rise = here & (turn[c - 1] ^ moves[c - 1])
                rises[c - 1] = rise
                if level and inner >> c & 1:
                    interior.append(level)
                level = here ^ rise
                here = level | enter[c - 1] if enter[c - 1] else level
            enter = rises
        # every class is acyclic, so no lane rises out of row 1: a lane
        # walks level from the column it enters at down to column 1
        inner, level = tops[1], 0
        for c in range(n - 1, -1, -1):
            if level and (not c or inner >> c & 1):  # column 1: criterion (a)
                interior.append(level)
            level |= enter[c]

        count = [0] * width
        for lanes in interior:
            for bit in range(width):
                carry = count[bit] & lanes
                count[bit] ^= lanes
                if not carry:
                    break
                lanes = carry
        less, _ = _compare_lanes(count, least, full)
        if less:
            for bit in range(width):
                least[bit] ^= (least[bit] ^ count[bit]) & less
            if not any(least):
                break
    return least


# ---------------------------------------------------------------------------
# Public operations.


def top_travel(matrix: SignMatrix) -> Travel:
    """The unique top travel of the matrix."""
    return Travel(TOP, _top_segments(matrix.rows))


def bottom_travel(matrix: SignMatrix) -> Travel:
    """The unique bottom travel of the matrix."""
    return Travel(BOTTOM, _bottom_segments(matrix.rows))


def is_acyclic(matrix: SignMatrix) -> bool:
    """True unless the top travel ends in row r strictly before column n."""
    return _is_acyclic(matrix.rows)


def interior_elements(matrix: SignMatrix) -> frozenset[int]:
    """Interior columns of an acyclic matrix, per the travel criteria.

    Raises CyclicMatroidError on cyclic input: interior elements are defined
    only for acyclic matrices.
    """
    segments = _top_segments(matrix.rows)
    row, _, b = segments[-1]
    if row == matrix.r and b < matrix.n:
        raise CyclicMatroidError("interior elements are defined only for acyclic matrices")
    # the matrix's own top travel is the plain travel of its class, reached
    # with no flips
    drops = tuple(seg[2] for seg in segments[:-1])
    return _columns(_class_of(_row_masks(matrix.rows), matrix.n, drops)[1])


def plain_travel(r: int, n: int, drops: Sequence[int]) -> Travel:
    """Build the plain travel with the given strictly increasing drop columns.

    Drops must lie in [2, n] and number at most r - 1.  An empty drop tuple
    yields the degenerate one-segment shape: not a plain travel proper, but
    accepted as the scan target of the identity reorientation class.
    """
    drops = tuple(drops)
    if len(drops) > r - 1:
        raise ValueError(f"at most {r - 1} drops allowed for rank {r}")
    prev = 1
    for d in drops:
        if not (2 <= d <= n):
            raise ValueError(f"drop column {d} outside [2, {n}]")
        if d <= prev:
            raise ValueError(f"drop columns must strictly increase, got {drops}")
        prev = d
    segments = []
    row, col = 1, 1
    for d in drops:
        segments.append((row, col, d))
        row, col = row + 1, d
    segments.append((row, col, n))
    return Travel(PLAIN, tuple(segments))


def trivial_travel(r: int, n: int) -> Travel:
    """The degenerate one-segment walk along row 1, the shape of the top
    travel of any matrix whose first row is constant."""
    return plain_travel(r, n, ())


def enumerate_plain_travels(r: int, n: int, include_trivial: bool = False) -> Iterator[Travel]:
    """Stream every plain travel for an r x n matrix exactly once.

    Travels are emitted in lexicographic order of their breakpoint
    sequences, the order of the class-scan kernel: these are the classes of
    the all-plus matrix.  The shapes depend only on (r, n).  With
    include_trivial the degenerate one-segment shape is emitted in its
    lexicographic position, so a scan over the stream covers every acyclic
    reorientation class.
    """
    for drops, _, _ in _scan([0] * r, n, include_trivial):
        yield plain_travel(r, n, drops)


def count_plain_travels(r: int, n: int) -> int:
    """Number of plain travels, sum of C(n-1, k) for k = 1 .. r-1."""
    return sum(comb(n - 1, k) for k in range(1, min(r - 1, n - 1) + 1))


def _travel_drops(matrix: SignMatrix, travel: Travel) -> tuple[int, ...]:
    if travel.kind == BOTTOM:
        raise ValueError("expected a top or plain travel")
    if travel.start != (1, 1):
        raise ValueError("travel must start at a[1][1]")
    if travel.end_col != matrix.n:
        raise ValueError(f"travel must end at column {matrix.n}")
    if travel.end_row > matrix.r:
        raise ValueError(f"travel uses row {travel.end_row}, matrix has {matrix.r}")
    drops = travel.drop_columns
    if any(b <= a for a, b in zip(drops, drops[1:])) or (drops and drops[0] < 2):
        raise ValueError(f"drop columns {drops} are not strictly increasing from >= 2")
    return drops


def reorientation_for_pt(matrix: SignMatrix, travel: Travel) -> frozenset[int]:
    """Canonical column set turning the matrix's top travel into `travel`.

    The set is computed by a single left-to-right sweep, one segment at a
    time, and never contains column 1; it is the unique such set, so the map
    from plain travels to acyclic reorientation classes is a bijection
    (checked in the tests).
    """
    drops = _travel_drops(matrix, travel)
    return _columns(_class_of(_row_masks(matrix.rows), matrix.n, drops)[0])


def min_interior(matrix: SignMatrix, include_trivial: bool = True) -> tuple[int, Travel]:
    """Minimum interior count over the acyclic reorientation classes.

    Every plain travel (and by default the degenerate one-segment shape,
    which indexes the remaining acyclic class) is realized as a top travel
    via its canonical reorientation and the interior elements are counted.
    Returns the minimum and the lexicographically smallest witness shape.
    A rank-1 matrix has no plain travels, so scanning it without the
    one-segment shape raises ValueError.
    """
    count, drops = _min_class(_row_masks(matrix.rows), matrix.n, include_trivial)
    return count, plain_travel(matrix.r, matrix.n, drops)
