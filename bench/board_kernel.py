"""Time ``travels.board_minima`` in-process on fixed chunks of boards.

Each shape is one chunk of 4,096 consecutive board codes, built as the
rank-3 scan builds its tasks: the codes' bit planes (``verifier._code_planes``),
cut into the r - 1 rows of an (r - 1) x (n - 1) board (bit i * (n - 1) + j
of a code is row i, column j) and realized by ``chessboard.canonical_planes``.
Only the ``board_minima`` call is timed, the best of 5.  One JSON line per
shape goes to stdout; nothing is written.

Run from the repository root:

    python bench/board_kernel.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lomlab.chessboard import canonical_planes  # noqa: E402
from lomlab.travels import board_minima  # noqa: E402
from lomlab.verifier import _code_planes  # noqa: E402

LANES = 1 << 12
REPEATS = 5
# (rank, n, first code of the chunk)
SHAPES = [
    (3, 7, 0),
    (3, 9, 0),
    (3, 11, 0),
    (3, 13, 0),
    (3, 14, 1 << 20),
    (4, 8, 1 << 18),
    (4, 10, 1 << 20),
]


def chunk_planes(r: int, n: int, start: int) -> list[list[int]]:
    """The entry planes of the canonical matrices of the chunk's boards."""
    width = n - 1
    code = _code_planes(start, start + LANES, (r - 1) * width)
    return canonical_planes([code[i * width : (i + 1) * width] for i in range(r - 1)])


def main() -> None:
    full = (1 << LANES) - 1
    for r, n, start in SHAPES:
        planes = chunk_planes(r, n, start)
        board_minima(planes, n, full)  # build the per-shape tables first
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            minima = board_minima(planes, n, full)
            best = min(best, time.perf_counter() - t0)
        histogram = {v: lanes.bit_count() for v, lanes in enumerate(minima) if lanes}
        print(
            json.dumps(
                {
                    "r": r,
                    "n": n,
                    "start": start,
                    "lanes": LANES,
                    "best_ms": round(best * 1e3, 3),
                    "minima": histogram,
                }
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
