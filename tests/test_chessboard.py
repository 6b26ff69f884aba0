import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lomlab.chessboard import (
    BoardFormatError,
    Chessboard,
    board_from_sequence,
    board_of,
    canonical_matrix,
    canonical_planes,
    corners_for,
    realize_sequence,
)
from lomlab.sign_matrix import SignMatrix, reorient
from lomlab.travels import min_interior

from oracles import parallel_rule_check, random_sign_matrix, reference_canonical_matrix


def all_sequences(r, n):
    """Every positive sequence of length r-1 fitting in n-1 columns."""
    def rec(remaining, budget):
        if remaining == 0:
            yield ()
            return
        for x in range(1, budget - remaining + 2):
            for rest in rec(remaining - 1, budget - x):
                yield (x,) + rest

    yield from rec(r - 1, n - 1)


def test_board_all_plus_is_white():
    board = board_of(SignMatrix.constant(4, 6))
    assert all(not v for row in board.black for v in row)


def test_board_single_minus_entry():
    rows = [[1, 1], [1, -1]]
    board = board_of(SignMatrix.from_rows(rows))
    assert board.black == ((True,),)


def test_board_requires_two_rows_and_columns():
    with pytest.raises(ValueError):
        board_of(SignMatrix.constant(1, 4))


@given(st.integers(0, 2**28 - 1), st.sets(st.integers(1, 7)))
@settings(max_examples=120)
def test_board_invariant_under_reorientation(bits, cols):
    rows = tuple(
        tuple(1 if (bits >> (i * 7 + j)) & 1 else -1 for j in range(7)) for i in range(4)
    )
    a = SignMatrix(rows)
    assert board_of(reorient(a, cols)) == board_of(a)


def test_board_invariant_under_row_flip():
    rng = random.Random(13)
    a = random_sign_matrix(rng, 4, 7)
    flipped = SignMatrix(tuple(
        tuple(-v for v in row) if i == 2 else row for i, row in enumerate(a.rows)
    ))
    assert board_of(flipped) == board_of(a)


def test_realize_sequence_contract():
    with pytest.raises(ValueError):
        realize_sequence(1, 4, ())
    with pytest.raises(ValueError):
        realize_sequence(4, 8, (2, 3))  # wrong length
    with pytest.raises(ValueError):
        realize_sequence(4, 8, (2, 3, 4))  # does not fit in 7 columns
    with pytest.raises(ValueError):
        realize_sequence(3, 8, (0, 3))


def test_sequence_annotation_must_draw_the_board():
    board = board_from_sequence(4, 8, (2, 3, 2))
    assert Chessboard(board.black, sequence=(2, 3, 2)) == board
    with pytest.raises(ValueError, match="does not match"):
        Chessboard(board.black, sequence=(3, 2, 2))  # fits, draws other squares


def test_realize_sequence_unrolled_example():
    board = board_of(realize_sequence(4, 8, (2, 3, 2)))
    blacks = {(i, j) for i in range(1, 4) for j in range(1, 8) if board.is_black(i, j)}
    assert blacks == {(1, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 6), (3, 7)}


def test_realize_sequence_round_trip_exhaustive():
    for r in range(2, 6):
        for n in range(r, 11):
            for seq in all_sequences(r, n):
                board = board_of(realize_sequence(r, n, seq))
                assert board == board_from_sequence(r, n, seq)


def test_canonical_matrix_round_trips_raw_bitmaps():
    rng = random.Random(17)
    for _ in range(50):
        board = Chessboard(
            tuple(tuple(rng.random() < 0.5 for _ in range(6)) for _ in range(3))
        )
        matrix = canonical_matrix(board)
        assert matrix.rows[0] == (1,) * 7
        assert all(row[0] == 1 for row in matrix.rows)
        assert board_of(matrix) == board


@pytest.mark.parametrize("max_lanes", [1, 64])
def test_canonical_planes_match_reference_on_every_lane(max_lanes):
    # seeded batches of random boards with 1..6 rows and 1..10 columns:
    # lane l of the planes is board l's canonical matrix.  A SignMatrix
    # needs n >= r, so a board with fewer columns than rows is checked
    # through its transpose, under which the parity rule is symmetric.
    def reference_rows(board):
        if board.cols >= board.rows:
            return reference_canonical_matrix(board).rows
        transposed = Chessboard(tuple(zip(*board.black)))
        return tuple(zip(*reference_canonical_matrix(transposed).rows))

    rng = random.Random(1200 + max_lanes)
    for rows in range(1, 7):
        for cols in range(1, 11):
            boards = [
                Chessboard(
                    tuple(tuple(rng.random() < 0.5 for _ in range(cols)) for _ in range(rows))
                )
                for _ in range(rng.randint(1, max_lanes))
            ]
            black = [
                [sum(b.black[i][j] << lane for lane, b in enumerate(boards)) for j in range(cols)]
                for i in range(rows)
            ]
            planes = canonical_planes(black)
            for lane, board in enumerate(boards):
                entries = tuple(tuple(-1 if e >> lane & 1 else 1 for e in row) for row in planes)
                assert entries == reference_rows(board), (rows, cols, lane)


# ---------------------------------------------------------------------------
# Named constructions.


def test_corners_general_r6_t3():
    board = corners_for("general", 6, 3)
    assert board.matrix_cols == 19
    assert board.sequence == (2, 6, 2, 4, 4)
    assert board.corners == (1, 6, 9, 11, 15, 19)


def test_corners_t1_r5():
    board = corners_for("t1", 5, 1)
    assert board.matrix_cols == 12
    assert board.sequence == (2, 4, 2, 3)
    assert board.corner_column(5) == 12


def test_corners_dim2_t0():
    board = corners_for("dim2", 3, 0)
    assert board.matrix_cols == 6
    assert board.sequence == (2, 3)
    # one black square in every column
    for j in range(1, board.cols + 1):
        assert sum(board.is_black(i, j) for i in (1, 2)) == 1


def test_every_construction_is_one_black_per_column():
    cases = [
        ("dim2", 3, 4),
        ("dim3", 4, 2),
        ("general", 5, 2),
        ("t1", 6, 1),
        ("even-d", 7, 3),
    ]
    for theorem, r, t in cases:
        board = corners_for(theorem, r, t)
        for j in range(1, board.cols + 1):
            assert sum(board.is_black(i, j) for i in range(1, board.rows + 1)) == 1


def test_corner_windows_validated():
    board = corners_for("even-d", 5, 2)
    seq = board.sequence
    h = board.corners
    assert h[0] == 1 and h[-1] == board.matrix_cols
    acc = 0
    for m in range(2, board.matrix_rows):
        acc += seq[m - 2]
        assert acc + 1 <= h[m - 1] <= acc + seq[m - 1] + 1


def test_corners_for_rejects_bad_parameters():
    with pytest.raises(ValueError):
        corners_for("dim2", 4, 0)
    with pytest.raises(ValueError):
        corners_for("dim2", 3, -1)
    with pytest.raises(ValueError):
        corners_for("general", 4, 2)
    with pytest.raises(ValueError):
        corners_for("general", 5, 1)
    with pytest.raises(ValueError):
        corners_for("even-d", 6, 2)
    with pytest.raises(ValueError):
        corners_for("t1", 5, 2)
    with pytest.raises(ValueError):
        corners_for("nope", 3, 0)


# ---------------------------------------------------------------------------
# Travel interplay rule.


def test_parallel_rule_all_plus_vacuous():
    assert parallel_rule_check(SignMatrix.constant(4, 7))


def test_parallel_rule_on_construction_boards():
    for t in range(4):
        assert parallel_rule_check(realize_sequence(3, t + 6, (2, t + 3)))


def test_parallel_rule_random():
    rng = random.Random(37)
    for _ in range(300):
        assert parallel_rule_check(random_sign_matrix(rng, 4, 8))


# ---------------------------------------------------------------------------
# Board-level invariance and domination.


def test_min_interior_depends_only_on_board():
    # same board, different matrices in the row/column flip orbit
    rng = random.Random(41)
    board = board_of(realize_sequence(3, 7, (2, 4)))
    base = canonical_matrix(board)
    expected = min_interior(base)[0]
    for _ in range(10):
        rows = [list(r) for r in base.rows]
        for i in range(len(rows)):
            if rng.random() < 0.5:
                rows[i] = [-v for v in rows[i]]
        variant = reorient(
            SignMatrix.from_rows(rows), {c for c in range(1, 8) if rng.random() < 0.5}
        )
        assert board_of(variant) == board
        assert min_interior(variant)[0] == expected


def test_sequence_domination_spot_check():
    # termwise larger sequences never lower the minimum interior count
    for n in (7, 8):
        for x1, x2 in product(range(1, 3), range(1, 4)):
            if x1 + x2 > n - 1:
                continue
            small = min_interior(realize_sequence(3, n, (x1, x2)))[0]
            for y1 in range(x1, 3):
                for y2 in range(x2, 4):
                    if y1 + y2 > n - 1:
                        continue
                    large = min_interior(realize_sequence(3, n, (y1, y2)))[0]
                    assert large >= small


def test_board_text_round_trip():
    board = board_from_sequence(4, 9, (2, 4, 2))
    assert Chessboard.from_text(board.to_text()) == board
    with pytest.raises(BoardFormatError):
        Chessboard.from_text("3 6\n##x..\n..###\n")
    with pytest.raises(BoardFormatError):
        Chessboard.from_text("")


def test_board_flips():
    board = board_from_sequence(3, 6, (2, 3))
    assert board.mirror_lr().black == ((False, False, False, True, True), (True, True, True, False, False))
    assert board.flip_tb().black == (board.black[1], board.black[0])
