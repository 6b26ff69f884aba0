"""Travels of a sign matrix and the interior-element machinery built on them.

A travel is a monotone staircase walk over matrix positions.  The top travel
starts at a[1][1] and moves right while consecutive entries in the row agree;
at the first disagreement it takes the flipped entry and drops one row in
that column.  In the bottom row there is nowhere left to drop, so the walk
stops just before a flip.  The bottom travel is the mirror image: it
starts at a[r][n], moves left and rises at flips, stopping before a flip
once it reaches row 1.  Both walks are unique for a given matrix.

There is one walk, ``_top_walk``, on the rows' turn masks (bit j set where
the entries in columns j + 1 and j + 2 differ), one lowest-set-bit step
per row.  The bottom travel is that walk on the rows turned by 180
degrees, mapped back, and ``_class_of`` reads the same turn masks.

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

The class order is the lexicographic order of breakpoints (drop columns,
then n), and the batches of ``_drop_batches`` define it: each batch holds
the drop columns of up to CLASS_LANES consecutive classes as planes, one
lane per class, built from blocks of the class tree with no loop over
its classes.  A block's planes depend only on how many drops and columns
it has left, so ``_block`` builds each once per process, for every shape,
and keeps only blocks that fit a batch.  CLASS_LANES is 2 ** 16: one
plane is 8 KiB, and the plane operations are bound by the words they
touch rather than by the fixed cost of a batch.  ``_class_order`` decodes
each batch once, walking each drop plane's set lanes, for the callers that
want one class at a time: ``enumerate_plain_travels`` (the classes of the
all-plus matrix) and the class programs of the rank-3 scan.

``_class_of`` evaluates a single class over int-bitmask rows, for the
witness replay (``reorientation_for_pt``, ``interior_elements``).  Each
class's top travel is its prescribed plain travel, so only the bottom
travel is walked, one ``int.bit_length`` step per segment on the rows'
turn masks, and criterion (c) becomes one AND per row of the two travels'
masks of columns strictly inside a segment.

Minima run on two lane kernels.  A plane is an int whose bit l stands for
lane l, and a per-lane number is a list of planes, compared by
``compare_lanes``.  Both walk the bottom travels row by row, right to
left, over lane masks.  This module owns the class and matrix planes;
``chessboard.canonical_planes`` builds the board kernel's entry planes,
``verifier`` builds the rank-3 scan's code planes and reads the minima
masks, and ``galerad`` keeps its own coloring lanes.

* ``board_minima`` (the rank-3 board scan) runs a batch of matrices, one
  per lane, through the classes in class order.  A class's top travel is
  the same on every lane, so its bottom-travel sweep is a program fixed
  by (r, n), ``_class_programs``: per row, the columns where lanes can
  rise, each the index of one xor plane of two rows' turns, and the
  columns where the lanes walking level are interior.  Each class's
  interior count goes into bit-sliced per-lane minima, which it returns
  as one lane mask per value.
* ``_class_lanes`` (``min_interior`` and ``find_interior_set``) runs one
  matrix with a class per lane, ``_class_interiors``.  The entries and
  turns are the same on every lane; the drop columns and the top
  travels' rows are per-lane planes, and the moves are the rows' turns
  gathered over them.  One sweep walks the bottom travels and marks each
  column interior on the lanes walking level through it whose top travel
  is in the same row or the one above, and the kernel returns one plane
  per column.  It takes the batches' drop planes as they come, in class
  order, so ``min_interior`` can stop after the first batch with a class
  that has no interior element, and reads its witness from that batch's
  planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .sign_matrix import SignMatrix

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
# The class-scan kernel.  Rows are int bitmasks, ``SignMatrix.minus_masks``:
# bit j is set when the entry in column j + 1 is -1, so reorienting a column
# set is one xor per row.  A travel segment running from 0-based column a to
# column b is summarized by the mask of the columns strictly inside it,
# ``((1 << b) - 1) & (-2 << a)``: the columns k whose neighbours k - 1 and
# k + 1 the segment covers too.


def _columns(mask: int) -> frozenset[int]:
    """1-indexed columns of a column bitmask."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)


def _turn_masks(masks: Sequence[int]) -> list[int]:
    """Per row, bit j set when the entries in columns j + 1 and j + 2 differ.

    Reorienting by `flips` xors every row's turn mask with
    ``flips ^ (flips >> 1)``.  Bit n - 1 is the entry in column n, not a
    turn: ``_top_walk`` masks it off, and ``_class_of`` reads only bits
    below the column it walks from.
    """
    return [mask ^ (mask >> 1) for mask in masks]


def _top_walk(turns: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    """(drops, end): the 1-indexed drop columns of the top travel of the
    rows with turn masks `turns`, and the column where it ends.

    In each row the walk goes to the row's next turn and drops into the
    next row at the column after it.  In row r it stops at the turn, so
    end < n exactly when the matrix is cyclic.
    """
    inner = (1 << n - 1) - 1  # bit n - 1 of a turn mask is not a turn
    drops, j = [], 0  # j: the 0-based column the walk enters the row at
    for i, turn in enumerate(turns):
        ahead = (turn & inner) >> j
        if not ahead:
            break
        j += (ahead & -ahead).bit_length()
        if i == len(turns) - 1:
            return tuple(drops), j
        drops.append(j + 1)
    return tuple(drops), n


def _segments(drops: Sequence[int], end: int) -> tuple[tuple[int, int, int], ...]:
    """The staircase from a[1][1] that drops at the 1-indexed `drops` and
    ends at column `end` of the row below the last drop."""
    segments, col = [], 1
    for row, drop in enumerate(drops, 1):
        segments.append((row, col, drop))
        col = drop
    segments.append((len(drops) + 1, col, end))
    return tuple(segments)


def _class_of(
    masks: Sequence[int], turns: Sequence[int], n: int, drops: Sequence[int]
) -> tuple[int, int]:
    """(flips, interior) of the one class whose plain travel drops at `drops`.

    `masks` are the matrix rows and `turns` their turn masks (see
    ``_turn_masks``), which the reorientation enters as
    ``flips ^ (flips >> 1)``.  `drops` are 1-indexed, strictly increasing
    in [2, n] and at most r - 1 of them; they are not checked here.

    The top travel is laid one segment at a time.  Along its row, a column
    strictly inside the segment flips when its entry differs from `pivot`,
    the entry bit the walk carries into the row, and the drop column flips
    when its entry agrees, so that the walk drops there.  tops[i + 1] is
    the inside mask of the segment in row i (0 for rows it misses, and
    tops[0] == 0); a travel whose last drop is at column n ends with an
    empty segment.

    The bottom travel is then walked, one step per segment: walking left
    from column j, it rises at the nearest turn left of j, the highest set
    bit of a masked xor.  Column n is interior when the top travel runs
    along row r through columns n - 1 and n.
    """
    tops = [0] * (len(masks) + 1)
    k, a, pivot, flips = 0, 0, masks[0] & 1, 0
    for drop in drops:
        b = drop - 1
        row, inside = masks[k], ((1 << b) - 1) & (-2 << a)
        flip = ((row >> b) ^ pivot ^ 1) & 1
        flips |= ((row ^ -pivot) & inside) | flip << b
        pivot = ((masks[k + 1] >> b) & 1) ^ flip
        k, a = k + 1, b
        tops[k] = inside
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


# ---------------------------------------------------------------------------
# The lane kernels.  A plane is an int with bit l for lane l, and a per-lane
# number is a list of planes, least significant bit first.  ``board_minima``
# runs one class at a time on a batch of matrices, lane l the l-th matrix;
# ``_class_lanes`` runs one matrix on a batch of classes, lane l a class.


def compare_lanes(x: Sequence[int], y: Sequence[int], full: int) -> tuple[int, int]:
    """(less, same): the lanes where the number x is below y, and where they
    are equal.  x and y have the same plane count; `full` has a bit per lane."""
    less, same = 0, full
    for xb, yb in zip(reversed(x), reversed(y)):
        # complementing a big int is several times slower than an xor
        differ = same & (xb ^ yb)
        less |= differ & yb
        same ^= differ
    return less, same


def _lane_counts(planes: Sequence[int], width: int) -> list[int]:
    """Per lane, the number of planes that have the lane set, as `width`
    planes; every count must be below 2 ** width."""
    count = [0] * width
    for lanes in planes:
        for bit in range(width):
            carry = count[bit] & lanes
            count[bit] ^= lanes
            if not carry:
                break
            lanes = carry
    return count


@lru_cache(maxsize=16)
def _class_programs(
    r: int, n: int
) -> tuple[tuple[tuple[tuple[tuple[int, int | None, bool, bool], ...], ...], bool], ...]:
    """Per class of an r x n matrix, in class order: the program that
    sweeps its bottom travels for ``board_minima``, and whether column n is
    interior by criterion (b).  They depend only on (r, n), so each rank-3
    scan task reuses them.

    A program holds, per row i = r - 1 .. 0 in sweep order, the steps
    (c, x, recorded, entered) for 0-based columns c = n - 2 .. 0.  A step
    moves the walking lanes from column c + 1 to column c of row i:

    * x is the index in ``board_minima``'s xor planes of the lanes that
      rise into row i - 1 there, or None where no lane rises.  Where the
      top travel runs level along row i from c to c + 1, the reoriented row
      is constant there, so no lane rises; where the travel drops in row i
      at c + 1, every lane rises.  Nothing rises out of row 1.
    * `recorded`: the lanes walking level into column c count toward the
      interior (criteria (a) and (c), as in ``_class_interiors``).
    * `entered`: the lanes that rose out of row i + 1 at c join the walk.

    In the bottom row every lane walks from column n; in the rows above
    only the lanes that rose into them.  A step that can move no walking
    lane is left out: one before the first entry of its row, and a level
    step that neither enters nor records.
    """
    programs = []
    for drops in _class_order(r, n):
        # tops[i + 1]: the columns strictly inside the top travel's segment
        # in row i; column 1 of row 1 is where criterion (a) is read
        tops = [1] + [0] * r
        path: list[tuple[int, int]] = []  # per column c: (row, drops at c + 1)
        a = 0
        for k, drop in enumerate(drops):
            b = drop - 1
            tops[k + 1] = ((1 << b) - 1) & (-2 << a)
            path += [(k, 0)] * (b - 1 - a) + [(k, 1)]
            a = b
        tops[len(drops) + 1] = ((1 << n) - 1) & (-2 << a)
        path += [(len(drops), 0)] * (n - 1 - a)
        rows, risen = [], 0  # risen: the columns where the row below has rises
        for i in range(r - 1, -1, -1):
            record, live, rises, steps = tops[i] | tops[i + 1], i == r - 1, 0, []
            for c in range(n - 2, -1, -1):
                k, drop = path[c]
                recorded, entered = bool(record >> c & 1), bool(risen >> c & 1)
                if i and live and (k != i or drop):
                    x = (((i - 1) * r + k) * 2 + drop) * (n - 1) + c
                    # a drop in row i leaves no lane level
                    steps.append((c, x, recorded and k != i, entered))
                    rises |= 1 << c
                    live = entered or k != i
                elif entered or live and recorded:
                    steps.append((c, None, live and recorded, entered))
                    live = live or entered
            rows.append(tuple(steps))
            risen = rises
        programs.append((tuple(rows), len(drops) == r - 1 and a < n - 1))
    return tuple(programs)


def board_minima(planes: Sequence[Sequence[int]], n: int, full: int) -> list[int]:
    """Per value v = 0 .. n, the lanes whose least interior count over the
    acyclic classes is v.

    `planes` are the r x n entry planes of a batch of matrices, bit l of
    planes[i][j] set when entry (i + 1, j + 1) of lane l's matrix is -1,
    and `full` has a bit per lane.  Every lane is in exactly one entry, at
    ``min_interior``'s count of its matrix.

    A class's top travel is its plain travel on every lane, so the classes
    run in class order, each on its program (``_class_programs``).  Where
    the top travel runs along row k from column c to c + 1, the reoriented
    row i turns on the lanes where rows i and k differ in whether they
    turn there, complemented where the travel drops at c + 1: one of the
    xor planes, built once per call.  Each recorded level goes straight
    into the class's bit-sliced count (weights 1 and 2 in locals, since
    carries past them are rare), and the count into bit-sliced running
    minima.  The scan stops once every lane has a class with no interior
    element.
    """
    r, m = len(planes), n - 1
    width = (n + 1).bit_length()
    least = [full] * width  # 2 ** width - 1 lies above every count
    turns = [[row[c] ^ row[c + 1] for c in range(m)] for row in planes]
    # xors[(((i - 1) * r + k) * 2 + drop) * m + c], rows i >= 1
    xors = [
        t ^ u ^ flip
        for row in turns[1:]
        for other in turns
        for flip in (0, full)
        for t, u in zip(row, other)
    ]
    below, above = [0] * m, [0] * m  # the rises out of the rows in turn
    for rows, last in _class_programs(r, n):
        ones, twos, high = full if last else 0, 0, [0] * (width - 2)
        here = full
        for steps in rows:
            for c, x, recorded, entered in steps:
                if x is None:
                    level = here
                else:
                    rise = here & xors[x]
                    above[c] = rise
                    level = here ^ rise
                here = level | below[c] if entered else level
                if recorded:
                    carry = ones & level
                    ones ^= level
                    if carry:
                        carry, twos = twos & carry, twos ^ carry
                        bit = 0
                        while carry:
                            carry, high[bit] = high[bit] & carry, high[bit] ^ carry
                            bit += 1
            below, above, here = above, below, 0
        count = [ones, twos, *high]
        less, _ = compare_lanes(count, least, full)
        if less:
            for bit in range(width):
                least[bit] ^= (least[bit] ^ count[bit]) & less
            if not any(least):
                break
    minima = []
    for value in range(n + 1):
        lanes = full
        for bit, plane in enumerate(least):
            lanes &= plane if value >> bit & 1 else full ^ plane
        minima.append(lanes)
    return minima


# Classes per batch of the class-lane kernel.  Each batch costs r * n
# Python-level steps whatever its width, and at 2 ** 16 lanes (8 KiB per
# plane) the plane operations are word-bound, so wider batches buy memory
# and no speed.  The batches bound the kernel's memory: a large matrix has
# far more classes than one batch should hold.  The table ``_block`` keeps
# only blocks that fit a batch, each at most one plane per column.
CLASS_LANES = 1 << 16


def _block_size(t: int, m: int) -> int:
    """The classes in block (t, m): sum of C(m, j) for j = 0 .. min(t, m).

    Block (t, m) is the ways to continue a travel with up to t more drops,
    all in its last m columns, in class order.  A block with m >= 2 and
    t >= 1 splits into the continuations dropping at the first of the m
    columns, block (t - 1, m - 1) behind that drop, and then block
    (t, m - 1); a one-column block is the travel that runs on to column n,
    then the one dropping at column n.  That is the lexicographic order of
    breakpoints, and the tests check it against a sort of every drop set.
    """
    return sum(comb(m, j) for j in range(min(t, m) + 1))


# The table of ``_block``: the drop planes of block (t, m) at key (t, m).
_BLOCKS: dict[tuple[int, int], tuple[int, ...]] = {}


def _block(t: int, m: int) -> tuple[int, ...]:
    """The drop planes of block (t, m): bit l of planes[c] is set when the
    block's l-th class drops at the c-th of its m columns.  Built from the
    two blocks it splits into, side by side.

    The planes depend only on (t, m), so one table, ``_BLOCKS``, serves
    every shape for the life of the process.  Only ``_drop_batches`` asks
    for a block, and only for one that fits a batch, so an entry holds at
    most m planes of CLASS_LANES bits; the planes are a tuple, so no
    caller can change the table.
    """
    planes = _BLOCKS.get((t, m))
    if planes is None:
        if not t or not m:
            planes = (0,) * m
        elif m == 1:
            planes = (0b10,)  # the travel running on to column n, then the drop at n
        else:
            head, tail = _block(t - 1, m - 1), _block(t, m - 1)
            shift = _block_size(t - 1, m - 1)
            planes = ((1 << shift) - 1,) + tuple([h | x << shift for h, x in zip(head, tail)])
        _BLOCKS[t, m] = planes
    return planes


def _drop_batches(r: int, n: int) -> Iterator[tuple[int, list[int]]]:
    """(full, drops) per batch of the classes of an r x n matrix: the one
    definition of the class order.  The batches follow one another in
    class order, lane l of a batch is its l-th class, `full` has a bit per
    lane, and bit l of drops[c] is set when that class drops at 0-based
    column c.

    A batch is a block behind a prefix of k drops, none after 0-based
    column a, which are `full` planes: block (top - k, n - 1 - a), with
    top = min(r - 1, n - 1).  It holds at most CLASS_LANES classes; a block
    that is too large is split as ``_block_size`` says.  The blocks' planes
    come from the table ``_block``, so there is no loop over the classes
    of a batch.
    """
    top = min(r - 1, n - 1)
    stack = [((), 0, 0)]
    while stack:
        prefix, k, a = stack.pop()
        size = _block_size(top - k, n - 1 - a)
        if size > CLASS_LANES:
            if a == n - 2:  # the two classes of the block, one at a time
                stack.append((prefix + (a + 1,), top, a + 1))
                stack.append((prefix, top, a))
            else:
                stack.append((prefix, k, a + 1))
                stack.append((prefix + (a + 1,), k + 1, a + 1))
            continue
        full = (1 << size) - 1
        drops = [0] * (a + 1)
        drops += _block(top - k, n - 1 - a)
        for c in prefix:
            drops[c] = full
        yield full, drops


def _decode_lane(drops: Sequence[int], lane: int) -> tuple[int, ...]:
    """The 1-indexed drop columns of lane `lane` of a batch's drop planes."""
    return tuple(c + 1 for c, plane in enumerate(drops) if plane >> lane & 1)


def _class_order(r: int, n: int) -> Iterator[tuple[int, ...]]:
    """The 1-indexed drop columns of each class of an r x n matrix, in
    class order, for the callers that take one class at a time:
    ``enumerate_plain_travels`` and the class programs of ``board_minima``
    (``_class_programs``).  Each batch is decoded once: the set lanes of
    each drop plane are found in its binary digits, and its column goes
    onto those lanes' drops, so a class costs its drops and not the batch
    width."""
    for full, drops in _drop_batches(r, n):
        lanes: list[list[int]] = [[] for _ in range(full.bit_length())]
        for c, plane in enumerate(drops, 1):
            if plane:
                digits = bin(plane)[:1:-1]  # digit l is lane l
                lane = digits.find("1")
                while lane >= 0:
                    lanes[lane].append(c)
                    lane = digits.find("1", lane + 1)
        for cols in lanes:
            yield tuple(cols)


def _class_interiors(masks: Sequence[int], drops: Sequence[int], full: int) -> list[int]:
    """Per column, the lanes on which it is interior, for one matrix and a
    batch of classes: bit l of drops[c] is set when class l drops at
    column c.  Rows and columns are 0-based here.

    The entries and turns of the matrix are the same on every lane, and
    the turns are taken relative to row 0's: turns[i] bit c is set where
    rows 0 and i differ in whether they turn at c.  The top travels are
    swept left to right: at[c][j] holds the lanes whose travel runs along
    row j or a lower one at column c, after the drops there (a lane is in
    a row j <= c).  moves[c] holds the lanes whose reoriented row 0 turns
    at c: those that drop at c + 1, flipped on the lanes whose travel runs
    along a row that turns where row 0 does not, or the other way round.
    The reoriented row i turns at c on moves[c], or on its complement
    where turns[i] has bit c.

    The bottom travels are then swept row by row from the bottom up, each
    right to left: `here` holds the lanes walking along row i at column c,
    which rise into the row above where the reoriented row turns and walk
    on elsewhere.  Every class is acyclic, so no lane rises out of row 0:
    a lane walks from the column it enters at down to column 0.  The lanes
    walking level into a column have it strictly inside their bottom
    segment, and criterion (c) marks it on those whose top travel runs
    along row i or i - 1 there, once the lanes whose top travel drops at
    the column are cleared; at column 0 of row 0 it is criterion (a).

    No top travel of an acyclic class runs from a column to the next in a
    lower row than its bottom travel.  Each travel changes row at most
    once per column, so at the first place one did, both run from the
    column before in the same row, which turns there: the top travel
    drops and the bottom travel rises.  By the same step they run in one
    row, on a turn, from every column before, up to row 0, where the
    bottom travel stops at the turn: the class is cyclic.  So a lane
    walking level along row i has its top travel in row i or above, and
    criterion (c) is the lanes of at[c][i - 1].  Column n - 1 is
    criterion (b).
    """
    r, n = len(masks), len(drops)
    turns = _turn_masks(masks)
    turns = [turn ^ turns[0] for turn in turns]  # relative to row 0
    down = [full] + [0] * (r - 1)
    at, moves = [down], []
    for c in range(1, n):
        move, turned = drops[c], 0
        for j in range(1, min(c, r)):  # by runs of rows, as down holds them
            if turns[j] >> c - 1 & 1 != turned:
                move ^= down[j]
                turned ^= 1
        moves.append(move)
        if drops[c]:
            down = down[:]
            for j in range(min(c, r - 1) - 1, -1, -1):  # bottom up, so a lane drops once
                down[j + 1] |= down[j] & drops[c] if j else drops[c]
        at.append(down)
    cols, enter = [0] * n, [0] * n  # enter[c]: the lanes entering the row at c
    enter[-1] = full
    for i in range(r - 1, 0, -1):
        turn, rises, here = turns[i], [0] * n, 0
        for c in range(n - 1, 0, -1):
            if enter[c]:
                here |= enter[c]
            elif not here:
                continue
            if turn >> c - 1 & 1:
                level = here & moves[c - 1]
                rise = here ^ level
            else:
                rise = here & moves[c - 1]
                level = here ^ rise
            rises[c - 1], here = rise, level
            if c > 1 and here and at[c - 1][i - 1]:
                cols[c - 1] |= here & at[c - 1][i - 1]
        enter = rises
    here = 0
    for c in range(n - 1, 0, -1):
        here |= enter[c]
        cols[c - 1] |= here
    for c in range(1, n - 1):
        cols[c] ^= cols[c] & drops[c]
    if n > 1:
        cols[-1] = at[-1][r - 1] ^ (at[-1][r - 1] & drops[-1])
    return cols


def _class_lanes(matrix: SignMatrix) -> Iterator[tuple[int, list[int], list[int]]]:
    """The class-lane kernel: (full, drops, cols) per batch of the matrix's
    classes, batched by ``_drop_batches``; cols[c] holds the lanes on
    which column c + 1 is interior."""
    masks = matrix.minus_masks
    for full, drops in _drop_batches(matrix.r, matrix.n):
        yield full, drops, _class_interiors(masks, drops, full)


def _least_lanes(cols: Sequence[int], full: int) -> tuple[int, int]:
    """(value, lanes): the least per-lane count of interior columns and the
    lanes that have it."""
    count = _lane_counts(cols, (len(cols) + 1).bit_length())
    lanes, value = full, 0
    for bit in range(len(count) - 1, -1, -1):
        zero = lanes ^ (lanes & count[bit])
        if zero:
            lanes = zero
        else:
            value |= 1 << bit
    return value, lanes


# ---------------------------------------------------------------------------
# Public operations.


def top_travel(matrix: SignMatrix) -> Travel:
    """The unique top travel of the matrix."""
    turns = _turn_masks(matrix.minus_masks)
    return Travel(TOP, _segments(*_top_walk(turns, matrix.n)))


def bottom_travel(matrix: SignMatrix) -> Travel:
    """The unique bottom travel of the matrix: the top walk of the rows
    turned by 180 degrees, mapped back (row i to r + 1 - i and column c to
    n + 1 - c)."""
    r, n = matrix.r, matrix.n
    turns = _turn_masks(matrix.rotate180().minus_masks)
    segments = _segments(*_top_walk(turns, n))
    return Travel(BOTTOM, tuple((r + 1 - i, n + 1 - a, n + 1 - b) for i, a, b in segments))


def is_acyclic(matrix: SignMatrix) -> bool:
    """True unless the top travel ends in row r strictly before column n."""
    return _top_walk(_turn_masks(matrix.minus_masks), matrix.n)[1] == matrix.n


def interior_elements(matrix: SignMatrix) -> frozenset[int]:
    """Interior columns of an acyclic matrix, per the travel criteria.

    Raises CyclicMatroidError on cyclic input: interior elements are defined
    only for acyclic matrices.
    """
    masks = matrix.minus_masks
    turns = _turn_masks(masks)
    drops, end = _top_walk(turns, matrix.n)
    if end < matrix.n:
        raise CyclicMatroidError("interior elements are defined only for acyclic matrices")
    # the matrix's own top travel is the plain travel of its class, reached
    # with no flips
    return _columns(_class_of(masks, turns, matrix.n, drops)[1])


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
    return Travel(PLAIN, _segments(drops, n))


def enumerate_plain_travels(r: int, n: int, include_trivial: bool = False) -> Iterator[Travel]:
    """Stream every plain travel for an r x n matrix exactly once.

    Travels are emitted in lexicographic order of their breakpoint
    sequences, the class order: these are the classes of the all-plus
    matrix.  The shapes depend only on (r, n).  With include_trivial the
    degenerate one-segment shape is emitted in its lexicographic position,
    so a scan over the stream covers every acyclic reorientation class.
    """
    for drops in _class_order(r, n):
        if drops or include_trivial:
            yield Travel(PLAIN, _segments(drops, n))


def count_plain_travels(r: int, n: int) -> int:
    """Number of plain travels, sum of C(n-1, k) for k = 1 .. r-1: every
    class but the one-segment shape's."""
    return _block_size(r - 1, n - 1) - 1


def _travel_drops(matrix: SignMatrix, travel: Travel) -> tuple[int, ...]:
    """The drop columns of `travel`, which must be a plain travel (or the
    one-segment shape) of the matrix's shape."""
    if travel.kind == BOTTOM:
        raise ValueError("expected a top or plain travel")
    drops = travel.drop_columns
    if plain_travel(matrix.r, matrix.n, drops).segments != travel.segments:
        raise ValueError(f"{travel.to_text()} is not a plain travel for r={matrix.r} n={matrix.n}")
    return drops


def reorientation_for_pt(matrix: SignMatrix, travel: Travel) -> frozenset[int]:
    """Canonical column set turning the matrix's top travel into `travel`.

    The set is computed by a single left-to-right sweep, one segment at a
    time, and never contains column 1; it is the unique such set, so the map
    from plain travels to acyclic reorientation classes is a bijection
    (checked in the tests).
    """
    drops = _travel_drops(matrix, travel)
    masks = matrix.minus_masks
    return _columns(_class_of(masks, _turn_masks(masks), matrix.n, drops)[0])


def min_interior(matrix: SignMatrix) -> tuple[int, Travel]:
    """Minimum interior count over the acyclic reorientation classes.

    Every plain travel and the degenerate one-segment shape, which indexes
    the remaining acyclic class, is realized as a top travel via its
    canonical reorientation and the interior elements are counted.
    Returns the minimum and the lexicographically smallest witness shape.
    The classes run in batches of the class-lane kernel; the scan stops
    after the first batch with a class that has no interior element, since
    no class can have fewer.
    """
    best, witness = matrix.n + 1, ()
    for full, drops, cols in _class_lanes(matrix):
        value, lanes = _least_lanes(cols, full)
        if value < best:
            best, witness = value, _decode_lane(drops, (lanes & -lanes).bit_length() - 1)
            if not best:
                break
    return best, plain_travel(matrix.r, matrix.n, witness)


def find_interior_set(matrix: SignMatrix, target: Iterable[int]) -> tuple[int, Travel | None]:
    """(least, travel): the minimum interior count over the acyclic
    classes, and the plain travel of the first class in class order whose
    interior set is exactly `target` (1-indexed columns in [1, n]), or None.

    One pass of the class-lane kernel scans every class: a class matches
    when its interior planes agree with the target on every column.
    """
    n = matrix.n
    target = set(target)
    if not target <= set(range(1, n + 1)):
        raise ValueError(f"target columns {sorted(target)} outside [1, {n}]")
    target_mask = sum(1 << (c - 1) for c in target)
    best, found = n + 1, None
    for full, drops, cols in _class_lanes(matrix):
        best = min(best, _least_lanes(cols, full)[0])
        if found is None:
            match = full
            for c, lanes in enumerate(cols):
                match &= lanes if target_mask >> c & 1 else full ^ lanes
            if match:
                found = _decode_lane(drops, (match & -match).bit_length() - 1)
    return best, None if found is None else plain_travel(matrix.r, n, found)
