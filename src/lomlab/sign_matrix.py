"""Sign matrices encoding Lawrence oriented matroids.

A Lawrence oriented matroid of rank r on the ordered ground set {1, ..., n}
is described by an r x n matrix with entries in {+1, -1}.  The chirotope of
the matroid evaluates a weakly increasing column tuple (j_1 <= ... <= j_r)
to the product of one entry per row, a[1][j_1] * ... * a[r][j_r].  The
travels answer every question the package asks of it, so it is never
evaluated here.

Rows and columns are 1-indexed in the public API; ground-set elements are
identified with column indices.  Matrices are immutable values, so they can
be shared freely between workers: reorientation returns a new matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class MatrixFormatError(ValueError):
    """Malformed matrix text."""


@dataclass(frozen=True)
class SignMatrix:
    """Immutable r x n matrix over {+1, -1} with n >= r >= 1."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("all rows must have the same length")
            for value in row:
                if value not in (1, -1):
                    raise ValueError(f"entries must be +1 or -1, got {value!r}")
        if width < len(self.rows):
            raise ValueError(f"need n >= r, got r={len(self.rows)} n={width}")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @cached_property
    def minus_masks(self) -> tuple[int, ...]:
        """Per row, bit j set when the entry in column j + 1 is -1; built on first use."""
        return tuple(sum(1 << j for j, v in enumerate(row) if v < 0) for row in self.rows)

    def entry(self, i: int, j: int) -> int:
        """Entry a[i][j], 1-indexed."""
        if not (1 <= i <= self.r and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside {self.r}x{self.n} matrix")
        return self.rows[i - 1][j - 1]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SignMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def constant(cls, r: int, n: int, sign: int = 1) -> "SignMatrix":
        return cls(tuple((sign,) * n for _ in range(r)))

    def rotate180(self) -> "SignMatrix":
        """The matrix turned upside down (rows and columns both reversed)."""
        return SignMatrix(tuple(tuple(reversed(row)) for row in reversed(self.rows)))

    def to_text(self) -> str:
        lines = [f"{self.r} {self.n}"]
        lines.extend("".join("+" if v == 1 else "-" for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SignMatrix":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise MatrixFormatError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise MatrixFormatError(f"expected header 'r n', got {lines[0]!r}")
        try:
            r, n = int(head[0]), int(head[1])
        except ValueError as exc:
            raise MatrixFormatError(f"non-integer header {lines[0]!r}") from exc
        if len(lines) != r + 1:
            raise MatrixFormatError(f"expected {r} rows, got {len(lines) - 1}")
        rows = []
        for line in lines[1:]:
            if len(line) != n or set(line) - {"+", "-"}:
                raise MatrixFormatError(f"bad row {line!r}, want {n} chars of +/-")
            rows.append(tuple(1 if ch == "+" else -1 for ch in line))
        try:
            return cls(tuple(rows))
        except ValueError as exc:
            raise MatrixFormatError(str(exc)) from exc


# Per byte value, the signs of its eight columns, least significant bit first.
_BYTE_SIGNS = tuple(tuple(-1 if b >> j & 1 else 1 for j in range(8)) for b in range(256))


def reorient(matrix: SignMatrix, cols: Iterable[int]) -> SignMatrix:
    """Negate every entry of the listed columns; the input is unchanged.

    The flipped columns are xored into the row masks, and the rows are read
    back from the new masks a byte of columns at a time.  Their entries are
    +1 or -1 by construction, so the new matrix skips the entry check and
    keeps the new masks as its ``minus_masks``.
    """
    n, flip = matrix.n, 0
    for c in cols:
        if not (1 <= c <= n):
            raise ValueError(f"column {c} outside [1, {n}]")
        flip |= 1 << c - 1
    if not flip:
        return matrix
    masks = tuple(mask ^ flip for mask in matrix.minus_masks)
    size = (n + 7) // 8
    rows = tuple(
        sum(map(_BYTE_SIGNS.__getitem__, mask.to_bytes(size, "little")), ())[:n] for mask in masks
    )
    flipped = object.__new__(SignMatrix)
    # a frozen dataclass keeps its field and its cached properties in __dict__
    flipped.__dict__.update(rows=rows, minus_masks=masks)
    return flipped
