import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lomlab.sign_matrix import SignMatrix, reorient
from lomlab.travels import (
    PLAIN,
    CyclicMatroidError,
    Travel,
    TravelFormatError,
    bottom_travel,
    count_plain_travels,
    enumerate_plain_travels,
    interior_elements,
    is_acyclic,
    min_interior,
    plain_travel,
    reorientation_for_pt,
    scan_classes,
    top_travel,
    trivial_travel,
)

from oracles import (
    _bottom_segments,
    all_sign_matrices,
    collect_top_travel_shapes,
    matrix_interior,
    matrix_is_acyclic,
    random_sign_matrix,
    reference_drop_sets,
    reference_min_interior,
    reference_scan,
)


def random_acyclic(rng, r, n):
    """Random matrix pushed into a random acyclic reorientation class."""
    a = random_sign_matrix(rng, r, n)
    shapes = [trivial_travel(r, n)] + list(enumerate_plain_travels(r, n))
    pt = rng.choice(shapes)
    return reorient(a, reorientation_for_pt(a, pt))


# ---------------------------------------------------------------------------
# Top and bottom travels.


def test_top_travel_all_plus_is_one_segment():
    t = top_travel(SignMatrix.constant(3, 5))
    assert t.segments == ((1, 1, 5),)
    assert t.end == (1, 5)


def test_top_travel_hand_simulated_drop():
    a = SignMatrix.from_rows([(1, -1, 1), (1, 1, 1)])
    t = top_travel(a)
    assert t.segments == ((1, 1, 2), (2, 2, 3))
    assert t.end == (2, 3)


def test_travels_are_deterministic():
    rng = random.Random(3)
    for _ in range(200):
        a = random_sign_matrix(rng, rng.randint(1, 4), rng.randint(4, 7))
        assert top_travel(a) == top_travel(a)
        assert bottom_travel(a) == bottom_travel(a)


def test_bottom_travel_all_plus():
    t = bottom_travel(SignMatrix.constant(3, 5))
    assert t.segments == ((3, 5, 1),)
    t2 = bottom_travel(SignMatrix.constant(2, 6))
    assert t2.segments == ((2, 6, 1),)


def test_bottom_travel_is_top_travel_of_rotated_matrix():
    rng = random.Random(7)
    for _ in range(100):
        a = random_sign_matrix(rng, 4, 8)
        bt = bottom_travel(a)
        tt_rot = top_travel(a.rotate180())
        mapped = tuple(
            (a.r + 1 - row, a.n + 1 - c0, a.n + 1 - c1) for row, c0, c1 in tt_rot.segments
        )
        assert bt.segments == mapped


def test_bottom_travel_matches_leftward_walk():
    # every matrix with r * n <= 12, then random ones up to 8 x 16
    for r in range(1, 4):
        for n in range(r, 12 // r + 1):
            for a in all_sign_matrices(r, n):
                assert bottom_travel(a).segments == _bottom_segments(a.rows)
    rng = random.Random(23)
    for _ in range(2000):
        r = rng.randint(1, 8)
        a = random_sign_matrix(rng, r, rng.randint(r, 16))
        assert bottom_travel(a).segments == _bottom_segments(a.rows)


# ---------------------------------------------------------------------------
# Acyclicity.


def test_all_plus_is_acyclic():
    assert is_acyclic(SignMatrix.constant(3, 5))


def test_acyclicity_criteria_agree_exhaustively():
    for r, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
        for a in all_sign_matrices(r, n):
            tt = top_travel(a)
            tt_acyclic = not (tt.end_row == r and tt.end_col < n)
            bt = bottom_travel(a)
            bt_acyclic = not (bt.end_row == 1 and bt.end_col > 1)
            assert is_acyclic(a) == tt_acyclic == bt_acyclic


def test_acyclicity_matches_circuit_oracle():
    rng = random.Random(19)
    for _ in range(150):
        a = random_sign_matrix(rng, 3, 6)
        assert is_acyclic(a) == matrix_is_acyclic(a)


# ---------------------------------------------------------------------------
# Interior elements.


def test_all_plus_has_no_interior_elements():
    assert interior_elements(SignMatrix.constant(3, 5)) == frozenset()


def test_rank2_acyclic_has_n_minus_2_interior():
    for n in (3, 4, 5, 6):
        for a in all_sign_matrices(2, n):
            if is_acyclic(a):
                assert len(interior_elements(a)) == n - 2


def test_interior_matches_circuit_oracle():
    rng = random.Random(29)
    for _ in range(150):
        a = random_acyclic(rng, 3, 6)
        assert interior_elements(a) == matrix_interior(a)


def test_interior_matches_circuit_oracle_higher_rank():
    rng = random.Random(31)
    for _ in range(60):
        r = rng.choice((4, 5))
        a = random_acyclic(rng, r, rng.randint(r, 9))
        assert interior_elements(a) == matrix_interior(a)


def test_interior_rejects_cyclic_input():
    a = SignMatrix.from_rows([(1, -1, -1), (-1, -1, 1)])
    assert not is_acyclic(a)
    with pytest.raises(CyclicMatroidError):
        interior_elements(a)


# ---------------------------------------------------------------------------
# Plain travel enumeration.


def test_plain_travel_counts_small():
    assert len(list(enumerate_plain_travels(2, 5))) == 4
    assert [t.drop_columns for t in enumerate_plain_travels(2, 5)] == [
        (2,),
        (3,),
        (4,),
        (5,),
    ]
    assert len(list(enumerate_plain_travels(2, 2))) == 1


def test_plain_travel_count_formula():
    for r in range(2, 6):
        for n in range(r, 9):
            travels = list(enumerate_plain_travels(r, n))
            assert len(travels) == count_plain_travels(r, n)
            assert count_plain_travels(r, n) == sum(
                comb(n - 1, k) for k in range(1, r)
            )


def test_enumeration_is_lexicographic_and_duplicate_free():
    keys = [t.breakpoints for t in enumerate_plain_travels(4, 6, include_trivial=True)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    # the kernel's walk on the all-plus matrix defines the class order; the
    # reference sorts every drop subset by its breakpoints, r > n included
    for r in range(1, 8):
        for n in range(1, 11):
            for inc in (False, True):
                drops = [t.drop_columns for t in enumerate_plain_travels(r, n, inc)]
                assert drops == reference_drop_sets(r, n, inc), (r, n, inc)


def test_plain_travels_match_exhaustive_shape_collection():
    # every top-travel shape ending at column n over all matrices, and
    # nothing else, must be enumerated (the one-segment shape included)
    for r, n in ((2, 5), (3, 5)):
        ending_at_n, _ = collect_top_travel_shapes(r, n)
        enumerated = {
            t.segments for t in enumerate_plain_travels(r, n, include_trivial=True)
        }
        assert enumerated == ending_at_n


def test_plain_travel_shape_count_3x6_frozen():
    # value computed once by the exhaustive shape collection below
    assert count_plain_travels(3, 6) == 15
    ending_at_n, _ = collect_top_travel_shapes(3, 6)
    assert len(ending_at_n) == 16  # 15 proper shapes plus the one-segment one


def test_plain_travel_validation():
    with pytest.raises(ValueError):
        plain_travel(3, 6, (2, 2, 4))
    with pytest.raises(ValueError):
        plain_travel(3, 6, (1,))
    with pytest.raises(ValueError):
        plain_travel(3, 6, (2, 3, 4))  # too many drops for r = 3


# ---------------------------------------------------------------------------
# Reorientation sweep and the bijection.


def test_sweep_fixed_point():
    a = SignMatrix.from_rows([(1, -1, 1), (1, 1, 1)])
    tt = top_travel(a)
    assert tt.end_col == a.n
    assert reorientation_for_pt(a, tt) == frozenset()


def test_sweep_hand_case_all_plus_2x4():
    a = SignMatrix.constant(2, 4)
    pt = plain_travel(2, 4, (2,))
    flips = reorientation_for_pt(a, pt)
    assert 2 in flips
    assert top_travel(reorient(a, flips)).segments == pt.segments


def test_sweep_round_trip_every_plain_travel():
    rng = random.Random(41)
    for _ in range(12):
        a = random_sign_matrix(rng, 3, 6)
        for pt in enumerate_plain_travels(3, 6, include_trivial=True):
            flips = reorientation_for_pt(a, pt)
            assert 1 not in flips
            assert top_travel(reorient(a, flips)).segments == pt.segments


def test_bijection_with_acyclic_reorientation_classes():
    # with column 1 pinned, acyclic flip sets and travel shapes correspond
    # one to one; the shape count is the class count
    rng = random.Random(43)
    for _ in range(6):
        a = random_sign_matrix(rng, 3, 5)
        seen = {}
        for bits in range(1 << 4):
            flips = frozenset(i + 2 for i in range(4) if (bits >> i) & 1)
            b = reorient(a, flips)
            if is_acyclic(b):
                shape = top_travel(b).segments
                assert shape not in seen, "two classes share a travel shape"
                seen[shape] = flips
        assert len(seen) == count_plain_travels(3, 5) + 1
        for pt in enumerate_plain_travels(3, 5, include_trivial=True):
            assert reorientation_for_pt(a, pt) == seen[pt.segments]


def test_sweep_rejects_foreign_shapes():
    a = SignMatrix.constant(3, 6)
    with pytest.raises(ValueError):
        reorientation_for_pt(a, plain_travel(3, 5, (2,)))  # wrong n
    with pytest.raises(ValueError):
        reorientation_for_pt(a, bottom_travel(a))


# ---------------------------------------------------------------------------
# Minimum interior scans.


def test_min_interior_rank2():
    for n in (3, 5, 7):
        count, witness = min_interior(SignMatrix.constant(2, n))
        assert count == n - 2
        assert witness.kind == PLAIN


def test_min_interior_all_plus_3x5_is_zero_via_identity_class():
    count, witness = min_interior(SignMatrix.constant(3, 5))
    assert count == 0
    assert witness.segments == ((1, 1, 5),)


def test_min_interior_excluding_identity_class():
    count, _ = min_interior(SignMatrix.constant(3, 5), include_trivial=False)
    assert count == 1


def test_min_interior_is_order_independent():
    from lomlab.chessboard import realize_sequence

    a = realize_sequence(4, 9, (2, 4, 2))
    count, witness = min_interior(a)
    shapes = [trivial_travel(4, 9)] + list(enumerate_plain_travels(4, 9))
    best = min(
        (len(interior_elements(reorient(a, reorientation_for_pt(a, pt)))), pt.breakpoints)
        for pt in reversed(shapes)
    )
    assert best[0] == count
    assert best[1] == witness.breakpoints


def test_min_interior_rank1_without_trivial_class_is_refused():
    with pytest.raises(ValueError, match="include_trivial=True"):
        min_interior(SignMatrix.constant(1, 4), include_trivial=False)
    count, witness = min_interior(SignMatrix.constant(1, 4))
    assert (count, witness.segments) == (4, ((1, 1, 4),))


def _columns(mask):
    return frozenset(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)


def _kernel_scan(matrix, include_trivial):
    return [
        (drops, _columns(flips), _columns(interior))
        for drops, flips, interior in scan_classes(matrix, include_trivial)
    ]


@st.composite
def sign_matrices(draw, ranks=(2, 7), max_n=12):
    r = draw(st.integers(*ranks))
    n = draw(st.integers(r, max_n))
    bits = draw(st.integers(0, (1 << (r * n)) - 1))
    return SignMatrix(
        tuple(tuple(-1 if (bits >> (i * n + j)) & 1 else 1 for j in range(n)) for i in range(r))
    )


@given(sign_matrices(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scan_kernel_matches_reference_loop(matrix, include_trivial):
    # every class: drops in the same order, the same flips, the same interior
    assert _kernel_scan(matrix, include_trivial) == list(reference_scan(matrix, include_trivial))
    count, witness = min_interior(matrix, include_trivial)
    assert (count, witness.drop_columns) == reference_min_interior(matrix, include_trivial)
    assert witness.segments == plain_travel(matrix.r, matrix.n, witness.drop_columns).segments


def test_scan_kernel_matches_reference_on_every_rank3_n7_board():
    from lomlab.chessboard import canonical_matrix
    from lomlab.verifier import _board_from_code

    for code in range(1 << 12):
        matrix = canonical_matrix(_board_from_code(7, code))
        assert _kernel_scan(matrix, True) == list(reference_scan(matrix, True)), code


def test_interleaved_scans_keep_their_own_state():
    # each scan owns its stack and its tops list: stepping two scans in
    # turn, and dropping a third midway, changes neither's output
    from lomlab.chessboard import realize_sequence

    a = realize_sequence(4, 9, (2, 4, 2))
    b = realize_sequence(5, 11, (2, 4, 2, 2))
    expect_a, expect_b = list(scan_classes(a)), list(scan_classes(b))
    abandoned = scan_classes(b)
    scan_b = scan_classes(b)
    got_a, got_b, partial = [], [], []
    for item in scan_classes(a):
        got_a.append(item)
        step = next(scan_b, None)
        if step is not None:
            got_b.append(step)
        if len(partial) < 7:
            partial.append(next(abandoned))
    del abandoned
    got_b.extend(scan_b)
    assert got_a == expect_a
    assert got_b == expect_b
    assert partial == expect_b[:7]


def test_min_interior_witness_revalidates():
    from lomlab.chessboard import realize_sequence

    a = realize_sequence(3, 8, (2, 5))
    count, witness = min_interior(a)
    flips = reorientation_for_pt(a, witness)
    assert len(interior_elements(reorient(a, flips))) == count
    assert count >= 3


# ---------------------------------------------------------------------------
# Travel value type.


def test_travel_text_round_trip():
    t = plain_travel(3, 6, (2, 4))
    assert Travel.from_text(t.to_text()).segments == t.segments
    with pytest.raises(TravelFormatError):
        Travel.from_text("1:1")
    with pytest.raises(TravelFormatError):
        Travel.from_text("1:1-3;3:3-6")  # skips a row


def test_travel_validation():
    with pytest.raises(ValueError):
        Travel("top", ((1, 1, 3), (2, 4, 6)))  # breakpoint mismatch
    with pytest.raises(ValueError):
        Travel("sideways", ((1, 1, 3),))


@given(st.integers(2, 5), st.integers(0, 200))
@settings(max_examples=60)
def test_breakpoints_end_at_n(r, pick):
    n = r + pick % 4
    shapes = list(enumerate_plain_travels(r, n))
    t = shapes[pick % len(shapes)]
    assert t.breakpoints[-1] == n
    assert 2 <= t.breakpoints[0] <= n
    assert 1 < len(t.segments) <= r


def _classes_match_single_class_evaluator(matrix):
    from lomlab.travels import _class_of, _row_masks, _scan

    masks = _row_masks(matrix.rows)
    for drops, flips, interior in _scan(masks, matrix.n, True):
        assert _class_of(masks, matrix.n, drops) == (flips, interior), (matrix, drops)


def test_single_class_evaluator_matches_scan_on_every_rank3_n6_board():
    from lomlab.chessboard import canonical_matrix
    from lomlab.verifier import _board_from_code

    for code in range(1 << 10):
        _classes_match_single_class_evaluator(canonical_matrix(_board_from_code(6, code)))


@given(sign_matrices(ranks=(1, 7), max_n=10))
@settings(max_examples=150, deadline=None)
def test_single_class_evaluator_matches_scan(matrix):
    _classes_match_single_class_evaluator(matrix)


@pytest.mark.parametrize("r", [3, 4])
def test_lane_kernel_matches_min_class_on_random_lanes(r):
    # seeded random r x n matrices, not canonical boards: row 1 and column 1
    # vary too, and the lanes of a batch are unrelated
    from lomlab.travels import _min_class, _min_lanes

    rng = random.Random(1100 + r)
    seen = set()
    for n in range(2, 11):
        for lanes in (1, rng.randint(2, 90)):
            masks = [[rng.getrandbits(n) for _ in range(r)] for _ in range(lanes)]
            planes = [
                [sum((m[i] >> j & 1) << lane for lane, m in enumerate(masks)) for j in range(n)]
                for i in range(r)
            ]
            least = _min_lanes(planes, n, (1 << lanes) - 1)
            for lane, m in enumerate(masks):
                value = sum((plane >> lane & 1) << bit for bit, plane in enumerate(least))
                assert value == _min_class(m, n)[0], (n, m)
                seen.add(value)
    assert len(seen) >= 3  # the batches reach past the all-zero early stop
