import random
from itertools import accumulate
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
    find_interior_set,
    interior_elements,
    is_acyclic,
    min_interior,
    plain_travel,
    reorientation_for_pt,
    top_travel,
    trivial_travel,
)

from oracles import (
    _bottom_segments,
    _top_segments,
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
    # every matrix with r * n <= 12, then random ones up to 8 x 16, cyclic
    # ones included: both turn-mask walks against the tuple walks
    for r in range(1, 4):
        for n in range(r, 12 // r + 1):
            for a in all_sign_matrices(r, n):
                assert bottom_travel(a).segments == _bottom_segments(a.rows)
                assert top_travel(a).segments == _top_segments(a.rows)
    rng = random.Random(23)
    for _ in range(2000):
        r = rng.randint(1, 8)
        a = random_sign_matrix(rng, r, rng.randint(r, 16))
        assert bottom_travel(a).segments == _bottom_segments(a.rows)
        assert top_travel(a).segments == _top_segments(a.rows)


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


def _gap_rows(segments):
    """{j: the row in which the walk runs from column j to j + 1}."""
    return {j: row for row, a, b in segments for j in range(min(a, b), max(a, b))}


def test_top_travel_never_runs_below_the_bottom_travel():
    # on an acyclic matrix the top travel runs from column j to j + 1 in a
    # row no lower than the bottom travel does, which the class-lane
    # kernel reads criterion (c) by: the reference walks of every acyclic
    # 2 x 6 and 3 x 4 matrix and of random acyclic ones up to 8 x 16
    rng = random.Random(2703)
    matrices = [a for r, n in ((2, 6), (3, 4)) for a in all_sign_matrices(r, n) if is_acyclic(a)]
    for r in range(2, 9):
        for _ in range(100):
            a = random_sign_matrix(rng, r, rng.randint(r, 16))
            drops = sorted(rng.sample(range(2, a.n + 1), rng.randint(0, min(r - 1, a.n - 1))))
            matrices.append(reorient(a, reorientation_for_pt(a, plain_travel(r, a.n, drops))))
    for a in matrices:
        tops, bottoms = _gap_rows(_top_segments(a.rows)), _gap_rows(_bottom_segments(a.rows))
        assert len(tops) == len(bottoms) == a.n - 1
        assert all(tops[j] <= bottoms[j] for j in tops), a.rows


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
    cyclic = SignMatrix.from_rows([(1, -1, 1, -1, 1, -1)] * 3)
    assert top_travel(cyclic).end_col < cyclic.n
    with pytest.raises(ValueError):
        reorientation_for_pt(cyclic, top_travel(cyclic))  # ends before n
    with pytest.raises(ValueError):
        reorientation_for_pt(a, plain_travel(4, 6, (2, 3, 4)))  # too many drops
    with pytest.raises(ValueError):
        # drops twice at column 3
        reorientation_for_pt(a, Travel(PLAIN, ((1, 1, 3), (2, 3, 3), (3, 3, 6))))


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


def test_min_interior_rank1_is_the_one_segment_class():
    count, witness = min_interior(SignMatrix.constant(1, 4))
    assert (count, witness.segments) == (4, ((1, 1, 4),))


def _columns(mask):
    return frozenset(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)


def _scan_classes(matrix):
    # (drops, flips, interior) per class in class order, flips and interior
    # as column bitmasks: one _class_of call per class of _class_order
    from lomlab.travels import _class_of, _class_order, _turn_masks

    masks = matrix.minus_masks
    for drops in _class_order(matrix.r, matrix.n):
        yield (drops, *_class_of(masks, _turn_masks(masks), matrix.n, drops))


def _kernel_scan(matrix):
    return [
        (drops, _columns(flips), _columns(interior))
        for drops, flips, interior in _scan_classes(matrix)
    ]


@st.composite
def sign_matrices(draw, ranks=(2, 7), max_n=12):
    r = draw(st.integers(*ranks))
    n = draw(st.integers(r, max_n))
    bits = draw(st.integers(0, (1 << (r * n)) - 1))
    return SignMatrix(
        tuple(tuple(-1 if (bits >> (i * n + j)) & 1 else 1 for j in range(n)) for i in range(r))
    )


@given(sign_matrices())
@settings(max_examples=150, deadline=None)
def test_scan_kernel_matches_reference_loop(matrix):
    # every class: drops in the same order, the same flips, the same interior
    assert _kernel_scan(matrix) == list(reference_scan(matrix, True))
    count, witness = min_interior(matrix)
    assert (count, witness.drop_columns) == reference_min_interior(matrix)
    assert witness.segments == plain_travel(matrix.r, matrix.n, witness.drop_columns).segments


def test_scan_kernel_matches_reference_on_every_rank3_n7_board():
    from lomlab.chessboard import canonical_matrix
    from lomlab.verifier import _board_from_code

    for code in range(1 << 12):
        matrix = canonical_matrix(_board_from_code(7, code))
        classes = list(reference_scan(matrix, True))
        assert _kernel_scan(matrix) == classes, code
        # the class-lane kernel: the least count and the first class with it
        count, witness = min_interior(matrix)
        assert count == min(len(interior) for _, _, interior in classes), code
        assert witness.drop_columns == next(d for d, _, i in classes if len(i) == count), code


def test_interleaved_scans_keep_their_own_state():
    # each scan owns its stack and its tops list: stepping two scans in
    # turn, and dropping a third midway, changes neither's output
    from lomlab.chessboard import realize_sequence

    a = realize_sequence(4, 9, (2, 4, 2))
    b = realize_sequence(5, 11, (2, 4, 2, 2))
    expect_a, expect_b = list(_scan_classes(a)), list(_scan_classes(b))
    abandoned = _scan_classes(b)
    scan_b = _scan_classes(b)
    got_a, got_b, partial = [], [], []
    for item in _scan_classes(a):
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
    # the public single-class path, class by class: the canonical
    # reorientation of the class's plain travel, then the interior set of
    # the reoriented matrix
    for drops, flips, interior in reference_scan(matrix, True):
        got = reorientation_for_pt(matrix, plain_travel(matrix.r, matrix.n, drops))
        assert got == flips, (matrix, drops)
        assert interior_elements(reorient(matrix, got)) == interior, (matrix, drops)


def test_single_class_evaluator_matches_scan_on_every_rank3_n6_board():
    from lomlab.chessboard import canonical_matrix
    from lomlab.verifier import _board_from_code

    for code in range(1 << 10):
        _classes_match_single_class_evaluator(canonical_matrix(_board_from_code(6, code)))


@given(sign_matrices(ranks=(1, 7), max_n=10))
@settings(max_examples=150, deadline=None)
def test_single_class_evaluator_matches_scan(matrix):
    _classes_match_single_class_evaluator(matrix)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_lane_kernel_matches_reference_on_random_lanes(r):
    # seeded random r x n matrices, not canonical boards: row 1 and column 1
    # vary too, and the lanes of a batch are unrelated
    from lomlab.chessboard import canonical_matrix, corners_for
    from lomlab.travels import board_minima

    rng = random.Random(1100 + r)
    batches = [
        [random_sign_matrix(rng, r, n) for _ in range(lanes)]
        for n in range(max(r, 2), 11)
        for lanes in (1, rng.randint(2, 90))
    ]
    if r >= 5:
        # every random matrix above reaches 0 at these ranks; the t1
        # construction (least count 2) and copies of it with one entry
        # flipped (0, 1 or 2) reach past the early stop
        rows = canonical_matrix(corners_for("t1", r, 1)).rows
        batches.append([SignMatrix(rows)])
        for _ in range(11):
            i, j = rng.randrange(r), rng.randrange(len(rows[0]))
            flipped = [list(row) for row in rows]
            flipped[i][j] = -flipped[i][j]
            batches[-1].append(SignMatrix(tuple(map(tuple, flipped))))
    wide = []
    if r in (3, 4):
        # classes with 4 or more interior columns: the count's weights
        # past 2, which the kernel keeps outside its locals
        wide = [[random_sign_matrix(rng, r, n) for _ in range(3)] for n in range(11, 14)]
        assert any(
            len(interior) >= 4
            for matrices in wide
            for m in matrices
            if reference_min_interior(m)[0]  # no early stop on this lane
            for _, _, interior in reference_scan(m, True)
        )
    seen = set()
    for matrices in batches + wide:
        n, lanes = matrices[0].n, len(matrices)
        planes = [
            [sum((m.rows[i][j] < 0) << lane for lane, m in enumerate(matrices)) for j in range(n)]
            for i in range(r)
        ]
        full = (1 << lanes) - 1
        minima = board_minima(planes, n, full)
        assert len(minima) == n + 1
        union = 0
        for at in minima:
            assert not union & at  # each lane has one minimum
            union |= at
        assert union == full
        for lane, m in enumerate(matrices):
            value = next(v for v, at in enumerate(minima) if at >> lane & 1)
            assert value == reference_min_interior(m)[0], (n, m.rows)
            seen.add(value)
    assert len(seen) >= 3  # the batches reach past the all-zero early stop


@pytest.mark.parametrize(
    "r, n, histogram",
    [
        (3, 7, [1024, 2048, 1024]),
        (3, 8, [2048, 4096, 8192, 2048]),
        (4, 7, [262144]),
        (4, 8, [1966080, 131072]),
    ],
    ids=["r3-n7", "r3-n8", "r4-n7", "r4-n8"],
)
def test_board_minima_full_box_histograms(r, n, histogram):
    # every (r - 1) x (n - 1) board in chunks of 4,096 codes, as the rank-3
    # scan builds them (bit i * (n - 1) + j of a code is row i, column j):
    # the number of boards at each minimum
    from lomlab.chessboard import canonical_planes
    from lomlab.travels import board_minima
    from lomlab.verifier import _code_planes

    width, lanes = n - 1, 1 << 12
    total = [0] * (n + 1)
    for start in range(0, 1 << (r - 1) * width, lanes):
        code = _code_planes(start, start + lanes, (r - 1) * width)
        planes = canonical_planes([code[i * width : (i + 1) * width] for i in range(r - 1)])
        for value, at in enumerate(board_minima(planes, n, (1 << lanes) - 1)):
            total[value] += at.bit_count()
    assert total == histogram + [0] * (n + 1 - len(histogram))


@pytest.mark.parametrize("lanes", [3, 4096, 1 << 16])
def test_find_interior_set_matches_reference_scan(monkeypatch, lanes):
    # seeded matrices of every rank 1..7: the first class in class order
    # with a given interior set, the least count, a set no class has, and
    # columns outside 1..n; batches of 3 put the first match past a batch
    from lomlab import travels

    monkeypatch.setattr(travels, "CLASS_LANES", lanes)
    rng = random.Random(1901)
    for r in range(1, 8):
        for n in range(r, 11):
            matrix = random_sign_matrix(rng, r, n)
            classes = list(reference_scan(matrix, True))
            least = min(len(interior) for _, _, interior in classes)
            interiors = {interior for _, _, interior in classes}
            target = rng.choice(sorted(interiors, key=sorted))
            first = next(drops for drops, _, interior in classes if interior == target)
            count, travel = find_interior_set(matrix, target)
            assert (count, travel.drop_columns) == (least, first), (matrix, target)
            assert travel.segments == plain_travel(r, n, first).segments
            absent = next(
                cols
                for mask in range(1 << n)
                if (cols := frozenset(c + 1 for c in range(n) if mask >> c & 1)) not in interiors
            )
            assert find_interior_set(matrix, absent) == (least, None), (matrix, absent)
            for bad in ({0}, {n + 1}, {1, n + 1}):
                with pytest.raises(ValueError):
                    find_interior_set(matrix, bad)


def _long_level_matrix(rng, r, n):
    """A random r x n matrix whose rows are constant from column 3 on, so
    most bottom travels walk level along the lower rows, and the rows
    above stay empty, for many columns."""
    rows = random_sign_matrix(rng, r, n).rows
    return SignMatrix(tuple(row[:3] + row[2:3] * (n - 3) for row in rows))


def test_class_lanes_match_reference_scan_on_every_lane(monkeypatch):
    # each lane's interior set, read off _class_interiors' column planes,
    # is the reference scan's set for that class, at every batch width:
    # seeded random matrices of every rank 1..7 and width r..12, the
    # all-plus matrix, and matrices whose rows turn only near column 1
    from lomlab import travels

    rng = random.Random(2701)
    matrices = [SignMatrix.constant(r, 12) for r in range(1, 8)]
    for r in range(1, 8):
        for n in range(r, 13):
            matrices += [random_sign_matrix(rng, r, n), _long_level_matrix(rng, r, n)]
    expect = [
        [(drops, interior) for drops, _, interior in reference_scan(matrix, True)]
        for matrix in matrices
    ]
    for lanes in (1, 3, 64, travels.CLASS_LANES):
        monkeypatch.setattr(travels, "CLASS_LANES", lanes)
        for matrix, classes in zip(matrices, expect):
            got = []
            for full, drops, cols in travels._class_lanes(matrix):
                assert len(cols) == matrix.n and not any(c & ~full for c in cols)
                for lane in range(full.bit_length()):
                    interior = frozenset(c + 1 for c, plane in enumerate(cols) if plane >> lane & 1)
                    got.append((travels._decode_lane(drops, lane), interior))
            assert got == classes, (lanes, matrix.rows)


def test_lane_counts_match_per_lane_sums():
    from lomlab.travels import _lane_counts

    rng = random.Random(1401)
    for planes in range(20):
        lanes = rng.randint(1, 70)
        batch = [rng.getrandbits(lanes) for _ in range(planes)] + [0]
        count = _lane_counts(batch, planes.bit_length())
        for lane in range(lanes):
            value = sum((plane >> lane & 1) << bit for bit, plane in enumerate(count))
            assert value == sum(plane >> lane & 1 for plane in batch), (planes, lane)


def test_min_interior_matches_reference_on_seeded_matrices():
    # the class-lane kernel against the per-class reference: every rank 1..7
    # and width r..12 (a SignMatrix needs n >= r), the count and the drops of
    # the first class reaching it
    rng = random.Random(1402)
    for r in range(1, 8):
        for n in range(r, 13):
            for _ in range(2):
                matrix = random_sign_matrix(rng, r, n)
                count, witness = min_interior(matrix)
                assert (count, witness.drop_columns) == reference_min_interior(matrix), matrix.rows


def test_lane_order_decodes_to_the_reference_drop_sets():
    from lomlab.travels import _class_order

    for r in range(1, 7):
        for n in range(1, 11):
            assert list(_class_order(r, n)) == reference_drop_sets(r, n, True), (r, n)


def test_class_order_decodes_batches_of_every_width(monkeypatch):
    # each batch is decoded once, plane by plane; the classes come out in
    # class order whether a batch holds one class or every class
    from lomlab import travels

    for lanes in (1, 3, 64, travels.CLASS_LANES):
        monkeypatch.setattr(travels, "CLASS_LANES", lanes)
        for r in range(1, 7):
            for n in range(1, 11):
                assert list(travels._class_order(r, n)) == reference_drop_sets(r, n, True), (lanes, r, n)


def test_min_interior_memory_stays_within_a_batch_bound():
    # a 9 x 20 matrix has 169,766 classes: at least three batches at the
    # width the bound was set at, so a wider batch fails the count; this
    # matrix's first batch (63,004 classes) has a class with no interior
    # element and peaks at about 2.8 MiB, and the bound is about twice that
    import tracemalloc

    from lomlab import travels

    matrix = random_sign_matrix(random.Random(2024), 9, 20)
    widths = [full.bit_length() for full, _ in travels._drop_batches(9, 20)]
    assert sum(widths) == count_plain_travels(9, 20) + 1 == 169_766 and len(widths) >= 3
    tracemalloc.start()
    try:
        min_interior(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20, peak


def test_block_table_retains_a_bounded_size():
    # the table keeps every block that the batches of the even-d r = 9,
    # t = 5 matrix (9 x 35, 25,211,936 classes) ask for, after the scan:
    # 2,400,768 bytes of planes and tuples (219 blocks) when measured,
    # and the bound is about 1.5 times that
    import sys

    from lomlab import travels
    from lomlab.chessboard import corners_for

    board = corners_for("even-d", 9, 5)
    r, n = board.matrix_rows, board.matrix_cols
    travels._BLOCKS.clear()
    widths = sum(full.bit_length() for full, _ in travels._drop_batches(r, n))
    assert (r, n) == (9, 35) and widths == count_plain_travels(r, n) + 1 == 25_211_936
    planes = {id(p): p for block in travels._BLOCKS.values() for p in block}
    retained = sum(map(sys.getsizeof, planes.values()))
    retained += sum(map(sys.getsizeof, travels._BLOCKS.values()))
    assert travels._BLOCKS and retained < 3.5 * 2**20, retained


@pytest.mark.parametrize("lanes", [1, 3, 1 << 16])
def test_block_table_shared_across_shapes_changes_no_batch(monkeypatch, lanes):
    # the blocks the 7 x 12 shape leaves in the table serve every smaller
    # shape: each gives the batches of a build from a cleared table
    from lomlab import travels

    monkeypatch.setattr(travels, "CLASS_LANES", lanes)
    shapes = [(r, n) for r in range(1, 8) for n in range(1, 13)]
    cold = {}
    for r, n in shapes:
        travels._BLOCKS.clear()
        cold[r, n] = list(travels._drop_batches(r, n))
    travels._BLOCKS.clear()
    list(travels._drop_batches(7, 12))
    for r, n in shapes:
        assert list(travels._drop_batches(r, n)) == cold[r, n], (lanes, r, n)
    # the table hands out tuples, so no caller can change an entry
    assert all(isinstance(travels._block(t, m), tuple) for t in range(7) for m in range(12))


@pytest.mark.parametrize("lanes", [1, 3, 64, 1 << 12, 1 << 16])
def test_batch_drop_planes_match_the_reference_drop_sets(monkeypatch, lanes):
    # each batch is a run of whole classes in class order, at most `lanes`
    # wide, and bit l of its plane for column c says whether the batch's
    # l-th class drops at c
    from lomlab import travels

    monkeypatch.setattr(travels, "CLASS_LANES", lanes)
    for r in range(1, 7):
        for n in range(1, 11):
            expect = reference_drop_sets(r, n, True)
            got, widths = [], 0
            for full, drops in travels._drop_batches(r, n):
                assert 0 < full.bit_length() <= lanes and not full & (full + 1)
                assert len(drops) == n and not drops[0]  # column 1 never drops
                widths += full.bit_length()
                for lane in range(full.bit_length()):
                    got.append(tuple(c + 1 for c, plane in enumerate(drops) if plane >> lane & 1))
            assert got == expect, (r, n)
            # the classes a hunt scans, which its report counts
            assert widths == count_plain_travels(r, n) + 1, (r, n)


def test_min_interior_stops_after_the_first_batch_with_a_zero(monkeypatch):
    # with batches of 4, this 4 x 7 matrix's first class with no interior
    # element is class 14, in the fifth of twelve batches; the scan stops
    # there and still reports that class
    from lomlab import travels

    matrix = SignMatrix(
        (
            (-1, -1, 1, -1, -1, -1, -1),
            (-1, -1, 1, 1, -1, 1, 1),
            (-1, 1, -1, 1, 1, -1, -1),
            (1, -1, -1, -1, 1, -1, -1),
        )
    )
    monkeypatch.setattr(travels, "CLASS_LANES", 4)
    widths = [full.bit_length() for full, _ in travels._drop_batches(4, 7)]
    starts = list(accumulate(widths, initial=0))[:-1]
    first_zero = next(i for i, (_, _, interior) in enumerate(reference_scan(matrix, True)) if not interior)
    assert (len(starts), first_zero) == (12, 14) and starts[4] <= first_zero < starts[5]
    evaluated = []
    kernel = travels._class_interiors
    monkeypatch.setattr(
        travels, "_class_interiors", lambda *args: evaluated.append(args[2]) or kernel(*args)
    )
    count, witness = min_interior(matrix)
    assert len(evaluated) == 5
    assert (count, witness.drop_columns) == reference_min_interior(matrix) == (0, reference_drop_sets(4, 7, True)[14])
