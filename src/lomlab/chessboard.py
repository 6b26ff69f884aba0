"""Black/white parity boards of sign matrices and the named constructions.

The board of an r x n matrix has (r-1) x (n-1) squares; square s(i, j) is
black when the 2 x 2 block a[i][j], a[i][j+1], a[i+1][j], a[i+1][j+1] has
product -1.  Reorienting columns never changes the board, and neither does
flipping the sign of a whole row, so a board pins down the matrix up to
exactly those moves.  Since row flips do not move any travel and column
flips permute the acyclic reorientation classes, every quantity this package
scans (minimum interior count, the multiset of interior sets over classes)
is a board invariant; the canonical realization below therefore loses
nothing.  It also has a plane form, ``canonical_planes``, which realizes a
batch of boards at once with one bit per board in every entry.

A board "has the sequence (x_1, ..., x_{r-1})" when row i of the board is
black exactly in the run of x_i columns starting right after the runs of the
previous rows.  The named lower-bound constructions are boards of this kind
together with a corner function h: the m-th corner is the matrix position
(m, h(m)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .sign_matrix import SignMatrix

THEOREM_IDS = ("dim2", "dim3", "general", "t1", "even-d")

# the parameter a family fixes, by family: the one home of these values
FIXED_PARAMETERS = {"dim2": {"r": 3}, "dim3": {"r": 4}, "t1": {"t": 1}}


class BoardFormatError(ValueError):
    """Malformed board text."""


@dataclass(frozen=True)
class Chessboard:
    """An (r-1) x (n-1) black/white board, optionally carrying the sequence
    and corner function of one of the named constructions."""

    black: tuple[tuple[bool, ...], ...]
    # annotations, not part of board identity
    sequence: tuple[int, ...] | None = field(default=None, compare=False)
    corners: tuple[int, ...] | None = field(default=None, compare=False)  # h(1)..h(r)

    def __post_init__(self) -> None:
        if not self.black or not self.black[0]:
            raise ValueError("board needs at least one row and one column")
        width = len(self.black[0])
        if any(len(row) != width for row in self.black):
            raise ValueError("all board rows must have the same length")
        if self.sequence is not None:
            self._check_sequence()
        if self.corners is not None:
            self._check_corners()

    def _check_sequence(self) -> None:
        assert self.sequence is not None
        if _sequence_black(self.matrix_rows, self.matrix_cols, self.sequence) != self.black:
            raise ValueError(f"board does not match sequence {self.sequence}")

    def _check_corners(self) -> None:
        h = self.corners
        assert h is not None
        if len(h) != self.matrix_rows:
            raise ValueError(f"corner map needs {self.matrix_rows} values")
        if h[0] != 1:
            raise ValueError("h(1) must be 1")
        if any(b <= a for a, b in zip(h, h[1:])):
            raise ValueError("h must be strictly increasing")
        if self.sequence is not None:
            acc = 0
            for m in range(2, self.matrix_rows):
                acc += self.sequence[m - 2]
                if not (acc + 1 <= h[m - 1] <= acc + self.sequence[m - 1] + 1):
                    raise ValueError(f"h({m}) = {h[m - 1]} outside its sequence window")

    @property
    def rows(self) -> int:
        return len(self.black)

    @property
    def cols(self) -> int:
        return len(self.black[0])

    @property
    def matrix_rows(self) -> int:
        return self.rows + 1

    @property
    def matrix_cols(self) -> int:
        return self.cols + 1

    @classmethod
    def all_white(cls, r: int, n: int) -> "Chessboard":
        return cls(tuple((False,) * (n - 1) for _ in range(r - 1)))

    def to_text(self) -> str:
        lines = [f"{self.matrix_rows} {self.matrix_cols}"]
        lines.extend("".join("#" if v else "." for v in row) for row in self.black)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Chessboard":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise BoardFormatError("empty board text")
        head = lines[0].split()
        if len(head) != 2:
            raise BoardFormatError(f"expected header 'r n', got {lines[0]!r}")
        try:
            r, n = int(head[0]), int(head[1])
        except ValueError as exc:
            raise BoardFormatError(f"non-integer header {lines[0]!r}") from exc
        if len(lines) != r:
            raise BoardFormatError(f"expected {r - 1} board rows, got {len(lines) - 1}")
        rows = []
        for line in lines[1:]:
            if len(line) != n - 1 or set(line) - {"#", "."}:
                raise BoardFormatError(f"bad row {line!r}, want {n - 1} chars of #/.")
            rows.append(tuple(ch == "#" for ch in line))
        return cls(tuple(rows))


def board_of(matrix: SignMatrix) -> Chessboard:
    """The parity board of a matrix; needs r >= 2 and n >= 2."""
    if matrix.r < 2 or matrix.n < 2:
        raise ValueError("board requires at least a 2 x 2 matrix")
    rows = matrix.rows
    return Chessboard(
        tuple(
            tuple(
                rows[i][j] * rows[i][j + 1] * rows[i + 1][j] * rows[i + 1][j + 1] == -1
                for j in range(matrix.n - 1)
            )
            for i in range(matrix.r - 1)
        )
    )


def _sequence_black(r: int, n: int, seq: tuple[int, ...]) -> tuple[tuple[bool, ...], ...]:
    """Squares of the r x n matrix's board with black runs per the sequence."""
    if r < 2:
        raise ValueError("sequence boards need r >= 2")
    if len(seq) != r - 1:
        raise ValueError(f"sequence needs r - 1 = {r - 1} terms, got {len(seq)}")
    if any(x < 1 for x in seq):
        raise ValueError("sequence terms must be positive")
    if sum(seq) > n - 1:
        raise ValueError(f"sequence {seq} does not fit in {n - 1} columns")
    black = [[False] * (n - 1) for _ in range(r - 1)]
    acc = 0
    for i, x in enumerate(seq):
        for j in range(acc, acc + x):
            black[i][j] = True
        acc += x
    return tuple(tuple(row) for row in black)


def board_from_sequence(r: int, n: int, sequence: Sequence[int]) -> Chessboard:
    """Board with black runs per the sequence; the rest stays white."""
    seq = tuple(sequence)
    return Chessboard(_sequence_black(r, n, seq), sequence=seq)


def canonical_planes(black: Sequence[Sequence[int]]) -> list[list[int]]:
    """Entry planes of the canonical realizations of a batch of boards.

    Bit l of ``black[i][j]`` is set when square (i + 1, j + 1) of board l is
    black; bit l of entry [i][j] of the result is set when that entry of
    board l's canonical matrix is -1.  One board is the one-lane case.  Row
    1 and column 1 are all plus, and by the 2 x 2 parity rule rows i and
    i + 1 differ in column j + 1 exactly when an odd number of the squares
    left of it in board row i are black.
    """
    rows = [[0] * (len(black[0]) + 1)]
    for squares in black:
        above, row, odd = rows[-1], [0], 0
        for j, plane in enumerate(squares):
            odd ^= plane
            row.append(above[j + 1] ^ odd)
        rows.append(row)
    return rows


def canonical_matrix(board: Chessboard) -> SignMatrix:
    """The unique matrix with all-plus first row and first column realizing
    the board: the one-lane case of ``canonical_planes``."""
    return SignMatrix(
        tuple(tuple(-1 if entry else 1 for entry in row) for row in canonical_planes(board.black))
    )


def realize_sequence(r: int, n: int, sequence: Sequence[int]) -> SignMatrix:
    """Canonical matrix whose board has exactly the given sequence."""
    return canonical_matrix(board_from_sequence(r, n, sequence))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def corners_for(theorem_id: str, r: int, t: int) -> Chessboard:
    """Sequence board and corner function of a named construction.

    theorem_id selects the family:
      dim2     r = 3,            n = t + 6,  sequence (2, t+3)
      dim3     r = 4,            n = t + 8,  sequence (2, t+3, 2)
      general  r >= 5, t >= 2,   n = (t+1)(r-3) + 7,
               sequence (2, t+3, 2, t+1, ..., t+1)
      t1       r >= 5, t = 1,    n = 2(r-1) + ceil(r/2) + 1,
               sequence (2, 4, 2, 3, 2, 3, ...)
      even-d   odd r >= 5, t >= 2,
               n = (r-1) + (t+1)(r-1)/2 + 3,
               sequence (2, t+3, 2, t+1, 2, t+1, ..., 2, t+1)

    Every column of these boards carries exactly one black square, so n
    is sum(sequence) + 1.  The returned board stores the sequence and the
    corner map h(1..r), with h(r) = n.
    """
    for name, value in FIXED_PARAMETERS.get(theorem_id, {}).items():
        if {"r": r, "t": t}[name] != value:
            raise ValueError(f"{theorem_id} construction requires {name} = {value}")
    if theorem_id in ("dim2", "dim3") and t < 0:
        raise ValueError(f"{theorem_id} construction requires t >= 0")
    if theorem_id == "dim2":
        seq = (2, t + 3)
        h = (1, t + 3)
    elif theorem_id == "dim3":
        seq = (2, t + 3, 2)
        h = (1, t + 3, t + 6)
    elif theorem_id == "general":
        if r < 5 or t < 2:
            raise ValueError("general construction requires r >= 5 and t >= 2")
        seq = (2, t + 3, 2) + (t + 1,) * (r - 4)
        h = (1, t + 3, t + 6) + tuple((t + 1) * (m - 3) + 7 for m in range(4, r))
    elif theorem_id == "t1":
        if r < 5:
            raise ValueError("t1 construction requires r >= 5")
        seq = (2, 4) + tuple(2 if i % 2 == 0 else 3 for i in range(r - 3))
        h = (1,) + tuple(2 * (m - 1) + _ceil_div(m, 2) + 1 for m in range(2, r))
    elif theorem_id == "even-d":
        if r < 5 or r % 2 == 0:
            raise ValueError("even-d construction requires odd r >= 5")
        if t < 2:
            raise ValueError("even-d construction requires t >= 2")
        seq = (2, t + 3) + tuple(2 if i % 2 == 0 else t + 1 for i in range(r - 3))
        h = (1, t + 3) + tuple(
            2 * _ceil_div(m - 1, 2) + (t + 1) * ((m - 1) // 2) + 3 for m in range(3, r)
        )
    else:
        raise ValueError(f"unknown construction {theorem_id!r}, want one of {THEOREM_IDS}")
    n = sum(seq) + 1
    return Chessboard(_sequence_black(r, n, seq), sequence=seq, corners=h + (n,))

