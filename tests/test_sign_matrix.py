import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lomlab.sign_matrix import MatrixFormatError, SignMatrix, reorient

from oracles import _reoriented_rows, chirotope_direct, random_sign_matrix, reference_minus_masks


def sign_matrices(max_r=4, max_n=7):
    @st.composite
    def build(draw):
        r = draw(st.integers(1, max_r))
        n = draw(st.integers(r, max_n))
        rows = tuple(
            tuple(draw(st.sampled_from((1, -1))) for _ in range(n)) for _ in range(r)
        )
        return SignMatrix(rows)

    return build()


# The chirotope is the product oracles.chirotope_direct, the one definition
# that the circuit-sign oracles read; these pin it on hand-worked values.


def test_chirotope_all_plus():
    a = SignMatrix.constant(3, 5)
    assert chirotope_direct(a, (1, 3, 5)) == 1


def test_chirotope_single_flip():
    rows = [[1] * 5 for _ in range(3)]
    rows[1][2] = -1  # a[2][3]
    a = SignMatrix.from_rows(rows)
    assert chirotope_direct(a, (1, 3, 5)) == -1


def test_chirotope_accepts_weakly_increasing():
    a = SignMatrix.constant(2, 3, sign=-1)
    assert chirotope_direct(a, (2, 2)) == 1


def test_reorient_empty_is_identity():
    a = SignMatrix.constant(3, 5)
    assert reorient(a, set()) == a


@given(sign_matrices(), st.sets(st.integers(1, 7)))
def test_reorient_is_involution(a, cols):
    cols = {c for c in cols if c <= a.n}
    assert reorient(reorient(a, cols), cols) == a


def test_reorient_rejects_out_of_range():
    with pytest.raises(ValueError):
        reorient(SignMatrix.constant(2, 4), {5})


def test_chirotope_sign_rule_under_column_flip():
    # flipping column c negates exactly the bases using c an odd number of times
    rng = random.Random(23)
    for _ in range(10):
        a = random_sign_matrix(rng, 3, 6)
        c = rng.randint(1, 6)
        b = reorient(a, {c})
        for basis in combinations(range(1, 7), 3):
            expected = -1 if basis.count(c) % 2 else 1
            assert chirotope_direct(b, basis) == expected * chirotope_direct(a, basis)


def test_entry_is_one_indexed():
    # entry a[1][2] is rows[0][1], and column 2 is the one reorient flips
    a = SignMatrix.from_rows([(1, -1), (1, 1)])
    assert a.rows[0][1] == -1
    assert reorient(a, {2}).rows == ((1, 1), (1, -1))
    with pytest.raises(ValueError):
        reorient(a, {0})


def test_invariants_rejected():
    with pytest.raises(ValueError):
        SignMatrix.from_rows([(1, 0)])
    with pytest.raises(ValueError):
        SignMatrix.from_rows([(1,), (1, -1)])
    with pytest.raises(ValueError):
        SignMatrix.from_rows([(1,), (1,)])  # n < r


def test_text_round_trip():
    rng = random.Random(5)
    a = random_sign_matrix(rng, 4, 6)
    assert SignMatrix.from_text(a.to_text()) == a


def test_text_format_errors():
    with pytest.raises(MatrixFormatError):
        SignMatrix.from_text("")
    with pytest.raises(MatrixFormatError):
        SignMatrix.from_text("2 3\n+++\n+*+\n")
    with pytest.raises(MatrixFormatError):
        SignMatrix.from_text("2 3\n+++\n")


def test_rotate180():
    a = SignMatrix.from_rows([(1, -1, 1), (1, 1, -1)])
    assert a.rotate180() == SignMatrix.from_rows([(-1, 1, 1), (1, -1, 1)])


def test_minus_masks_match_the_per_entry_loop():
    # built once per matrix, and a reorientation xors every row's mask
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 7)
        a = random_sign_matrix(rng, r, rng.randint(r, 18))
        assert a.minus_masks == reference_minus_masks(a)
        assert a.minus_masks is a.minus_masks
        cols = [c for c in range(1, a.n + 1) if rng.random() < 0.5]
        flips = sum(1 << (c - 1) for c in cols)
        assert reorient(a, cols).minus_masks == tuple(m ^ flips for m in a.minus_masks)


def test_reorient_matches_the_reference_rows_and_masks():
    # the rows read back from the xored masks against the per-entry
    # reference, on seeded matrices up to 7 x 18; the new matrix keeps the
    # xored masks and equals the matrix built from the reference rows
    rng = random.Random(2407)
    for _ in range(300):
        r = rng.randint(1, 7)
        a = random_sign_matrix(rng, r, rng.randint(r, 18))
        cols = frozenset(c for c in range(1, a.n + 1) if rng.random() < 0.5)
        b = reorient(a, list(cols) + list(cols)[:1])  # a repeated column flips once
        expect = SignMatrix(_reoriented_rows(a.rows, cols))
        assert b.rows == expect.rows and b == expect and hash(b) == hash(expect), (a.rows, cols)
        assert b.minus_masks == reference_minus_masks(expect), (a.rows, cols)
        assert reorient(a, ()) is a
        for bad in (0, a.n + 1):
            with pytest.raises(ValueError):
                reorient(a, cols | {bad})
