import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lomlab import galerad
from lomlab.bounds import hd1_bound
from lomlab.exactlp import separating_functional
from lomlab.galerad import (
    BLUE,
    RED,
    Coloring,
    DegenerateSpanError,
    GeneralPositionError,
    LiftSeparationError,
    PointConfig,
    PointFormatError,
    affine_projection,
    count_induced,
    gale_transform,
    is_radon_pair,
    lift_unbalanced,
    max_r,
    max_r_sampled,
    random_point_config,
)

from oracles import (
    config_chi,
    config_from_rays,
    facet_subsets,
    hulls_meet,
    never_convex,
    reference_colorings,
    reference_count_induced,
    reference_dependent_subset,
    reference_det as _det,
    reference_gale_transform,
    reference_lift_choice,
    reference_lift_points,
    reference_max_r,
    reference_max_r_sampled,
    reference_minimal_partition,
    reference_null_space,
    reference_positive_cocircuits,
    reference_separating_functional,
    zero_in_hull,
)

SQUARE = PointConfig.from_rows(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
LINE5 = PointConfig.from_rows(1, [(0,), (1,), (2,), (3,), (4,)])


# ---------------------------------------------------------------------------
# Configurations and ingestion.


def test_general_position_rejected_with_subset():
    with pytest.raises(GeneralPositionError) as info:
        PointConfig.from_rows(2, [(0, 0), (1, 1), (2, 2)])
    assert info.value.subset == (1, 2, 3)


def test_float_coordinates_rejected():
    with pytest.raises(TypeError):
        PointConfig.from_rows(1, [(0.5,), (1,)])


def test_point_text_round_trip():
    config = PointConfig.from_rows(2, [(Fraction(1, 3), 2), (0, 0), (5, Fraction(-7, 2))])
    assert PointConfig.from_text(config.to_text()) == config


def test_point_text_errors():
    with pytest.raises(PointFormatError):
        PointConfig.from_text("")
    with pytest.raises(PointFormatError):
        PointConfig.from_text("2 2\n0 0\n1\n")
    with pytest.raises(PointFormatError):
        PointConfig.from_text("1 1\nx\n")
    for header in ("0 2", "0 0", "2 0", "-1 2"):
        with pytest.raises(PointFormatError, match="needs n >= 1 and d >= 1"):
            PointConfig.from_text(header + "\n")


@pytest.mark.parametrize("token", "007 +3 -0 1_000 \u0663 3/4 -3/4 1.5 1e3 1/0 0x10 --3".split())
def test_coordinate_parse_agrees_with_fraction(token):
    # an integer token is read through int(), any other through Fraction:
    # each must give Fraction(token)'s value, or the error it would give
    text = f"3 1\n1/3\n{token}\n5/7\n"
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(PointFormatError) as info:
            PointConfig.from_text(text)
        assert str(info.value) == f"bad coordinate in {token!r}"
    else:
        (coordinate,) = PointConfig.from_text(text).points[1]
        assert coordinate == value and type(coordinate) is Fraction


def test_random_config_is_reproducible():
    a = random_point_config(7, 2, seed=9)
    b = random_point_config(7, 2, seed=9)
    assert a == b
    assert a != random_point_config(7, 2, seed=10)


def test_random_config_refuses_grids_without_a_general_position_draw():
    # 3 integer points in [0, 0] do not exist: refused before any draw
    with pytest.raises(ValueError, match="n=3 points in dimension 1 with spread 0"):
        random_point_config(3, 1, seed=1, spread=0)
    # the 3 x 3 grid has 9 points but no 7 in general position: refused
    # after a fixed number of degenerate draws instead of looping forever
    with pytest.raises(ValueError, match="n=7 points in dimension 2 with spread 1"):
        random_point_config(7, 2, seed=1, spread=1)


# ---------------------------------------------------------------------------
# Gale transforms.


def test_square_transform_is_signed_parity_vector():
    vectors = gale_transform(SQUARE).vectors
    base = vectors[0][0]
    assert base != 0
    scaled = [v[0] / base for v in vectors]
    assert scaled == [1, -1, -1, 1]


def test_d_plus_2_transform_has_no_zero_entries():
    rng = random.Random(3)
    for d in (1, 2, 3):
        config = random_point_config(d + 2, d, seed=rng.randint(0, 10**6))
        vectors = gale_transform(config).vectors
        assert all(len(v) == 1 and v[0] != 0 for v in vectors)


def test_transform_defining_relations_hold():
    config = random_point_config(8, 3, seed=77)
    vectors = gale_transform(config).vectors
    assert len(vectors) == config.n
    assert {len(v) for v in vectors} == {config.n - config.dim - 1}
    # coordinate column k of the vectors is the k-th affine dependence
    for alpha in zip(*vectors):
        assert sum(alpha) == 0
        for i in range(config.dim):
            assert sum(a * p[i] for a, p in zip(alpha, config.points)) == 0


def test_transform_vectors_in_linear_general_position():
    # general position of the points makes every maximal minor of the
    # transform nonzero
    for seed in (1, 2, 3):
        config = random_point_config(7, 3, seed=seed)
        vectors = gale_transform(config).vectors
        k = config.n - config.dim - 1
        for subset in combinations(vectors, k):
            assert _det([list(v) for v in subset]) != 0


def test_transform_needs_enough_points():
    with pytest.raises(DegenerateSpanError):
        gale_transform(PointConfig.from_rows(2, [(0, 0), (1, 0), (0, 1)]))


# ---------------------------------------------------------------------------
# Signed projection.


def test_projection_appends_one_and_negates_blue():
    rays = affine_projection(SQUARE, Coloring.from_string("RBRB"))
    assert rays[0] == (0, 0, 1)
    assert rays[1] == (-1, 0, -1)


def test_recoloring_negates_every_ray():
    coloring = Coloring.from_string("RBRB")
    rays = affine_projection(SQUARE, coloring)
    flipped = affine_projection(SQUARE, Coloring.from_string("BRBR"))
    assert flipped == tuple(tuple(-c for c in ray) for ray in rays)


# ---------------------------------------------------------------------------
# Radon pairs.


def test_square_diagonal_and_side_colorings():
    assert is_radon_pair(SQUARE, (1, 2, 3, 4), Coloring.from_string("RBBR"))
    assert not is_radon_pair(SQUARE, (1, 2, 3, 4), Coloring.from_string("RRBB"))


def test_every_subset_has_exactly_one_minimal_partition():
    rng = random.Random(5)
    for d in (1, 2, 3):
        config = random_point_config(d + 4, d, seed=rng.randint(0, 10**6))
        for subset in combinations(range(1, config.n + 1), d + 2):
            hits = 0
            k = len(subset)
            for mask in range(1 << (k - 1)):  # first element pinned red
                labels = ["B"] * config.n
                for pos, label in enumerate(subset):
                    if pos == 0 or not (mask >> (pos - 1)) & 1:
                        labels[label - 1] = "R"
                if is_radon_pair(config, subset, Coloring(tuple(labels))):
                    hits += 1
            assert hits == 1


def test_radon_pair_agrees_with_hull_intersection_oracle():
    rng = random.Random(1009)
    checked = 0
    while checked < 500:
        d = rng.randint(1, 3)
        config = random_point_config(d + 3, d, seed=rng.randint(0, 10**6))
        subset = tuple(sorted(rng.sample(range(1, config.n + 1), d + 2)))
        labels = tuple(rng.choice("RB") for _ in range(config.n))
        coloring = Coloring(labels)
        reds = [i for i in subset if coloring.labels[i - 1] == "R"]
        blues = [i for i in subset if coloring.labels[i - 1] == "B"]
        expected = bool(reds and blues) and hulls_meet(config, reds, blues)
        assert is_radon_pair(config, subset, coloring) == expected
        checked += 1


def test_radon_pair_validation():
    with pytest.raises(ValueError):
        is_radon_pair(SQUARE, (1, 2, 3), Coloring.from_string("RBBR"))
    with pytest.raises(ValueError):
        is_radon_pair(SQUARE, (1, 2, 3, 5), Coloring.from_string("RBBR"))


# ---------------------------------------------------------------------------
# Counting.


def test_count_monochromatic_is_zero():
    assert count_induced(SQUARE, Coloring.from_string("RRRR")) == 0


def test_count_unique_partition_is_one():
    assert count_induced(SQUARE, Coloring.from_string("RBBR")) == 1


def test_count_alternating_line5():
    assert count_induced(LINE5, Coloring.from_string("RBRBR")) == 5


@given(st.integers(0, 2**5 - 1))
@settings(max_examples=32)
def test_count_swap_invariant(mask):
    labels = tuple("R" if (mask >> i) & 1 else "B" for i in range(5))
    coloring = Coloring(labels)
    swapped = Coloring(tuple("B" if c == "R" else "R" for c in labels))
    assert count_induced(LINE5, coloring) == count_induced(LINE5, swapped)


def test_count_matches_zero_in_hull_oracle():
    rng = random.Random(2027)
    for _ in range(10):
        d = rng.randint(1, 3)
        config = random_point_config(d + 3, d, seed=rng.randint(0, 10**6))
        labels = tuple(rng.choice("RB") for _ in range(config.n))
        coloring = Coloring(labels)
        rays = affine_projection(config, coloring)
        expected = sum(
            1
            for subset in combinations(range(config.n), d + 2)
            if zero_in_hull([rays[i] for i in subset])
        )
        assert count_induced(config, coloring) == expected


def test_count_invariant_under_projective_sign_flips():
    # flipping the rays of a subset of points relabels red/blue on that
    # subset; the count transported through the relabeling is unchanged
    config = random_point_config(6, 2, seed=55)
    coloring = Coloring.from_string("RRBRBB")
    base = count_induced(config, coloring)
    dual_counts = set()
    for mask in range(1 << config.n):
        labels = [
            ("B" if c == "R" else "R") if (mask >> i) & 1 else c
            for i, c in enumerate(coloring.labels)
        ]
        dual_counts.add(count_induced(config, Coloring(tuple(labels))))
    assert base in dual_counts
    assert max(dual_counts) == max_r(config)[0]


# ---------------------------------------------------------------------------
# Maximization.


def test_max_r_line5_is_five():
    value, witness = max_r(LINE5)
    assert value == 5
    assert witness.labels[0] == "R"
    assert count_induced(LINE5, witness) == 5


def test_max_r_d_plus_2_is_one():
    for d in (1, 2, 3, 4):
        config = random_point_config(d + 2, d, seed=100 + d)
        assert max_r(config)[0] == 1


def test_max_r_witness_is_lexicographically_least():
    value, witness = max_r(LINE5)

    def key(coloring):
        return tuple(0 if c == "R" else 1 for c in coloring.labels)

    best = min(
        (c for c in reference_colorings(5) if count_induced(LINE5, c) == value),
        key=key,
    )
    assert witness == best
    assert witness.to_string() == "RBRBR"


def test_max_r_refuses_oversized_exhaustive():
    config = PointConfig.from_rows(1, [(i,) for i in range(23)])
    with pytest.raises(ValueError):
        max_r(config)
    value, witness = max_r_sampled(config, samples=32, seed=4)
    assert count_induced(config, witness) == value


def test_duality_instances_on_a_line():
    # collinear maxima match the facet table in the dual dimension n - 3
    expected = {4: 2, 5: 5, 6: 8}
    for n, want in expected.items():
        config = PointConfig.from_rows(1, [(i * i + i,) for i in range(n)])
        assert max_r(config)[0] == want
        dual = hd1_bound(n, n - 3) if n > 3 else None
        if dual is not None and dual.kind == "exact":
            assert dual.value == want


def test_faces_correspond_to_embracing_complements():
    # a d-subset spans a facet exactly when the transform vectors of the
    # complement capture the origin in their relative interior; for facets
    # plain hull membership plus full rank is enough at these sizes
    for seed, n, d in ((11, 6, 2), (12, 7, 3), (13, 8, 3)):
        config = random_point_config(n, d, seed=seed)
        vectors = gale_transform(config).vectors
        facets = set(facet_subsets(config))
        for subset in combinations(range(1, n + 1), d):
            complement = [vectors[i - 1] for i in range(1, n + 1) if i not in subset]
            embraces = zero_in_hull(complement)
            assert embraces == (frozenset(subset) in facets)


# ---------------------------------------------------------------------------
# Unbalanced lifting.


def _bad_dual_instance(seed):
    planar = random_point_config(6, 2, seed=seed, spread=12)
    if not never_convex(planar):
        return None
    rays = gale_transform(planar).vectors
    return config_from_rays(rays, seed=seed)


def test_lift_succeeds_on_duals_of_never_convex_configs():
    found = 0
    for seed in range(12):
        instance = _bad_dual_instance(seed)
        if instance is None:
            continue
        config, _ = instance
        value, witness = max_r(config)
        lifted, lifted_coloring = lift_unbalanced(config, witness)
        assert len(lifted_coloring.red) == 1
        assert lifted_coloring.labels.count("B") == config.n - 1
        assert lifted.dim == config.dim
        assert count_induced(lifted, lifted_coloring) == value
        found += 1
    assert found >= 3


def test_lift_explicitly_fails_when_maximizer_stays_convex():
    value, witness = max_r(LINE5)
    with pytest.raises(LiftSeparationError):
        lift_unbalanced(LINE5, witness)


def test_lift_preserves_count_for_any_separable_coloring():
    line4 = PointConfig.from_rows(1, [(0,), (1,), (2,), (5,)])
    coloring = Coloring.from_string("RRRB")
    lifted, lifted_coloring = lift_unbalanced(line4, coloring)
    assert count_induced(lifted, lifted_coloring) == count_induced(line4, coloring)
    assert sorted(map(lifted_coloring.labels.count, "RB")) == [1, 3]


def test_lift_rejects_a_coloring_of_the_wrong_length():
    line4 = PointConfig.from_rows(1, [(0,), (1,), (2,), (5,)])
    for labels in ("RRB", "RRRBB"):
        with pytest.raises(ValueError, match="^coloring length must match the configuration$"):
            lift_unbalanced(line4, Coloring.from_string(labels))


# ---------------------------------------------------------------------------
# Internal exact linear algebra.


def test_null_space_matches_determinant_rank():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3), Fraction(4)],
        [Fraction(2), Fraction(4), Fraction(6), Fraction(8)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(1)],
    ]
    basis = reference_null_space(rows)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_det_triangle():
    rows = [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(7), Fraction(3), Fraction(0)],
        [Fraction(1), Fraction(5), Fraction(4)],
    ]
    assert _det(rows) == 24


# ---------------------------------------------------------------------------
# The chirotope table, the coloring-lane max_r and the Kirchberger check against
# the Fraction cofactor references in oracles.py.


def _coordinate(rng, fractional, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4) if fractional else 1)


@st.composite
def configs(draw, max_extra=4, max_dim=3, max_n=None):
    """General-position configurations, d 1 to max_dim and n from d + 2 to
    d + 2 + max_extra (at most max_n), with integer or fractional
    coordinates."""
    d = draw(st.integers(1, max_dim))
    top = d + 2 + max_extra
    n = draw(st.integers(d + 2, top if max_n is None else min(top, max_n)))
    fractional = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        points = tuple(
            tuple(_coordinate(rng, fractional, 9) for _ in range(d)) for _ in range(n)
        )
        if reference_dependent_subset(d, points) is None:
            return PointConfig(d, points)


def _colorings(config, seed, count):
    rng = random.Random(seed)
    return [Coloring(tuple(rng.choice("RB") for _ in range(config.n))) for _ in range(count)]


@pytest.mark.parametrize("width", range(1, 6))
def test_maximal_minors_match_determinant_oracle(width):
    # entries in [-2, 2] make zero minors common; every width-subset of the
    # rows is checked, in combinations order
    rng = random.Random(width)
    zeros = 0
    for _ in range(12):
        rows = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(width + rng.randint(0, 3))]
        expected = [
            _det([[Fraction(v) for v in row] for row in subset])
            for subset in combinations(rows, width)
        ]
        assert galerad._maximal_minors(rows) == expected
        zeros += expected.count(0)
    assert zeros > 0


def _sylvester(order):
    """Sylvester-Hadamard rows of a power-of-two order: their determinant
    meets Hadamard's bound, the product of the row norms."""
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-v for v in row] for row in rows]
    return rows


@pytest.mark.parametrize("width", range(1, 8))
def test_packed_minors_fit_their_fields_at_the_extremes(width):
    # the field width comes from Hadamard's bound: entries up to 2^60 in
    # size, and Sylvester-Hadamard rows scaled by 2^40, which meet the bound,
    # in both signs and with a repeated row; fewer rows than the width have
    # no minor at all
    rng = random.Random(width)
    big = 1 << 60
    cases = [
        [[rng.choice((-big, big, rng.randint(-big, big))) for _ in range(width)] for _ in range(n)]
        for n in (width, width + 1, width + 3)
    ]
    if width & (width - 1) == 0:
        rows = [[v << 40 for v in row] for row in _sylvester(width)]
        cases += [rows, [[-v for v in rows[0]]] + rows[1:], rows + rows[-1:]]
    for rows in cases:
        expected = [
            _det([[Fraction(v) for v in row] for row in subset])
            for subset in combinations(rows, width)
        ]
        assert galerad._maximal_minors(rows) == expected
        if width > 1:
            assert galerad._maximal_minors(rows[: width - 1]) == []


@pytest.mark.parametrize("d", range(1, 7))
def test_chirotope_signs_match_determinant_oracle_at_the_extremes(d):
    # lifted rows of coordinates up to 2^60 (over denominators up to 2^10),
    # and of Sylvester-Hadamard points, which meet Hadamard's bound
    rng = random.Random(d)
    big = 1 << 60
    configs = [
        [
            tuple(Fraction(rng.randint(-big, big), rng.randint(1, 1 << 10)) for _ in range(d))
            for _ in range(d + 1 + extra)
        ]
        for extra in (0, 2)
    ]
    if (d + 1) & d == 0:
        points = [tuple(Fraction(v) for v in row[1:]) for row in _sylvester(d + 1)]
        configs += [points, points[1::-1] + points[2:]]
    for points in configs:
        lifted = [[Fraction(1), *p] for p in points]
        dets = [_det(list(subset)) for subset in combinations(lifted, d + 1)]
        config = PointConfig(d, tuple(points))
        assert config.signs == "".join("1" if v > 0 else "0" for v in dets)


def _oracle_signs(config):
    """The signs string, "1" where the determinant oracle's chirotope is +1,
    over every (d+1)-subset in combinations order."""
    chi = config_chi(config)
    bases = combinations(range(1, config.n + 1), config.dim + 1)
    return "".join("1" if chi(basis) > 0 else "0" for basis in bases)


@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
def test_configuration_of_at_most_d_points_has_an_empty_chirotope(d, n):
    config = PointConfig.from_rows(d, [[i + 1] + [0] * (d - 1) for i in range(n)])
    assert config.signs == _oracle_signs(config) == ""
    for width in (1, 2, 7, 8, 9):
        assert galerad._top_bits(0, width, 0) == ""


@given(configs())
@settings(max_examples=60, deadline=None)
def test_chirotope_table_matches_determinant_oracle(config):
    assert config.signs == _oracle_signs(config)


@given(
    st.integers(1, 3),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_general_position_error_names_first_dependent_subset(d, extra, fractional, seed):
    # coordinates in [-2, 2] make dependent subsets common
    rng = random.Random(seed)
    points = tuple(
        tuple(_coordinate(rng, fractional, 2) for _ in range(d)) for _ in range(d + 1 + extra)
    )
    expected = reference_dependent_subset(d, points)
    if expected is None:
        PointConfig(d, points)
    else:
        with pytest.raises(GeneralPositionError) as info:
            PointConfig(d, points)
        assert info.value.subset == expected


@given(configs(max_extra=6, max_dim=4))
@settings(max_examples=60, deadline=None)
def test_gale_transform_matches_rref_reference(config):
    # Fraction is canonical, so equal values print equal text
    transform = gale_transform(config)
    assert transform.vectors == reference_gale_transform(config)


@given(configs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_radon_pair_and_count_match_reference(config, seed):
    # the Fraction cofactor partition of each (d+2)-subset, once per
    # configuration; a subset is induced when its red and blue points are
    # the two sides of the partition
    partitions = {
        subset: reference_minimal_partition(config, subset)
        for subset in combinations(range(1, config.n + 1), config.dim + 2)
    }
    for coloring in _colorings(config, seed, 4):
        count = 0
        for subset, (pos, neg) in partitions.items():
            reds = coloring.red & frozenset(subset)
            induced = (reds, frozenset(subset) - reds) in ((pos, neg), (neg, pos))
            assert is_radon_pair(config, subset, coloring) == induced
            count += induced
        assert count_induced(config, coloring) == count


@given(configs(max_extra=7, max_dim=4, max_n=9))
@settings(max_examples=60, deadline=None)
def test_pos_masks_match_reference_partitions(config):
    # bit j of pos[r]: the r-th member of subset j is on the pos side of
    # the Fraction cofactor partition
    subsets = list(combinations(range(1, config.n + 1), config.dim + 2))
    assert len(config.pos) == config.dim + 2
    for r, mask in enumerate(config.pos):
        assert mask >> len(subsets) == 0
        for j, subset in enumerate(subsets):
            pos, _ = reference_minimal_partition(config, subset)
            assert bool(mask >> j & 1) == (subset[r] in pos)


@given(configs(max_extra=3, max_dim=4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_is_radon_pair_on_every_subset_matches_induced_flags(config, seed):
    # is_radon_pair reads one bit of the induced mask at its subset's lex
    # rank; the order of the subset's labels does not matter
    subsets = list(combinations(range(1, config.n + 1), config.dim + 2))
    for coloring in _colorings(config, seed, 3):
        flags = galerad.induced_flags(config, coloring)
        assert len(flags) == len(subsets)
        assert [is_radon_pair(config, sub, coloring) for sub in subsets] == flags
        assert [is_radon_pair(config, sub[::-1], coloring) for sub in subsets] == flags
        assert sum(flags) == count_induced(config, coloring)


def test_edge_shapes_of_the_subset_layout():
    # n = d + 2 has one subset, read at bit 0 of every mask; n < d + 2 has
    # none, so the layout and the pos masks are empty
    for d in (1, 2, 3, 4):
        config = random_point_config(d + 2, d, seed=d)
        (subset,) = combinations(range(1, d + 3), d + 2)
        pos, neg = reference_minimal_partition(config, subset)
        assert config.pos == [int(i in pos) for i in subset]
        faces, members = galerad._subset_layout(d + 2, d + 2)
        assert members == [bytes([i]) for i in subset]
        assert len(faces) == d + 2
        for coloring in reference_colorings(d + 2):
            blue = frozenset(range(1, d + 3)) - coloring.red
            induced = (coloring.red, blue) in ((pos, neg), (neg, pos))
            assert galerad.induced_flags(config, coloring) == [induced]
            assert is_radon_pair(config, subset, coloring) == induced
        small = random_point_config(d + 1, d, seed=d)
        assert galerad._subset_layout(d + 1, d + 2) == ([], [])
        assert small.pos == []
        assert len(small.signs) == 1


def test_more_than_255_points_are_refused_for_radon_counts():
    # the layout stores each point as one byte; building the points is
    # still fine
    config = PointConfig.from_rows(1, [(i,) for i in range(256)])
    with pytest.raises(ValueError, match="exceeds 255"):
        count_induced(config, Coloring(("R",) * 256))


@given(configs())
@settings(max_examples=60, deadline=None)
def test_max_r_matches_reference_loop(config):
    assert max_r(config) == reference_max_r(config)


@pytest.mark.parametrize("d", (4, 5))
def test_max_r_matches_reference_loop_in_higher_dimensions(d):
    for n in range(d + 2, d + 6):
        config = random_point_config(n, d, seed=10 * d + n)
        assert max_r(config) == reference_max_r(config)


@given(configs(max_extra=7, max_dim=4, max_n=9))
@settings(max_examples=40, deadline=None)
def test_count_matches_positive_cocircuits_of_the_gale_dual(config):
    # every coloring with point 1 red; swapping the colors changes neither count
    values = []
    for coloring in reference_colorings(config.n):
        value = count_induced(config, coloring)
        assert value == reference_positive_cocircuits(config, coloring)
        values.append(value)
    assert max_r(config)[0] == max(values)


def test_max_r_ties_go_to_the_least_mask():
    ties = 0
    for d, n, seed in ((2, 5, 1), (2, 6, 2), (2, 7, 3), (3, 6, 4)):
        config = random_point_config(n, d, seed=seed)
        values = [reference_count_induced(config, c) for c in reference_colorings(n)]
        best = max(values)
        ties += values.count(best) > 1
        value, witness = max_r(config)
        assert value == best
        assert witness == list(reference_colorings(n))[values.index(best)]
    assert ties == 4


def test_max_r_flip_tables_across_chunk_boundaries():
    # the lane kernel on n = 8..13, one block of 2^(n-1) lanes each; the
    # brute-force maximum recounts every coloring with point 1 red, in
    # mask order, ties to the least mask
    ties = 0
    for d in (1, 2, 3):
        for n in range(8, 14):
            config = random_point_config(n, d, seed=100 * d + n)
            colorings = list(reference_colorings(n))
            values = [count_induced(config, c) for c in colorings]
            best = max(values)
            ties += values.count(best) > 1
            assert max_r(config) == (best, colorings[values.index(best)])
    assert ties >= 3


def test_max_r_lanes_across_block_boundaries(monkeypatch):
    # blocks of 1, 2, 4 and 8 lanes cut the colorings of n <= 9 points into
    # many blocks; a tie whose maximizing masks lie in different blocks
    # must keep the least mask, which the earlier block holds
    cases = []
    for d in (1, 2, 3):
        for n in range(d + 2, 10):
            config = random_point_config(n, d, seed=10 * d + n)
            want = reference_max_r(config)
            values = [count_induced(config, c) for c in reference_colorings(n)]
            tops = [mask for mask, value in enumerate(values) if value == want[0]]
            cases.append((config, want, tops))
    for lanes in (1, 2, 4, 8):
        monkeypatch.setattr(galerad, "COLORING_LANES", lanes)
        split_ties = 0
        for config, want, tops in cases:
            assert max_r(config) == want
            split_ties += len({mask // lanes for mask in tops}) > 1
        assert split_ties >= 3


def test_max_r_pinned_across_two_default_blocks():
    # 2^18 colorings fill two blocks of the default size
    config = random_point_config(19, 2, seed=19)
    assert 1 << 18 == 2 * galerad.COLORING_LANES
    value, witness = max_r(config)
    assert (value, witness.to_string()) == (656, "RBBRBRBBRRRRBRBRBBR")


@pytest.mark.slow
@pytest.mark.parametrize(
    "d, n, want",
    [
        (2, 20, (808, "RBBBRRRBBBRBRBBRBRRR")),
        (3, 18, (876, "RRBBRBRBRRBRRBRBRB")),
        (2, 22, (1189, "RRBRRBRBRBBBRBBRBRRBRR")),
    ],
)
def test_max_r_pinned_on_large_shapes(d, n, want):
    value, witness = max_r(random_point_config(n, d, seed=1))
    assert (value, witness.to_string()) == want


@given(configs(max_extra=6), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_max_r_sampled_matches_reference(config, samples, seed):
    assert max_r_sampled(config, samples, seed) == reference_max_r_sampled(config, samples, seed)


@given(configs(max_extra=3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kirchberger_check_matches_separating_functional(config, seed):
    # a point's signed ray is strictly separable from the others exactly
    # when flipping its color induces no partition
    for coloring in _colorings(config, seed, 2):
        rays = affine_projection(config, coloring)
        separable = []
        for i in range(1, config.n + 1):
            labels = list(coloring.labels)
            labels[i - 1] = "B" if labels[i - 1] == "R" else "R"
            flipped = Coloring(tuple(labels))
            lp = separating_functional(rays, i - 1) is not None
            assert (count_induced(config, flipped) == 0) == lp
            if lp:
                separable.append(i)
        if separable:
            _, lifted_coloring = lift_unbalanced(config, coloring)
            assert lifted_coloring.red == {separable[0]}
        else:
            with pytest.raises(LiftSeparationError):
                lift_unbalanced(config, coloring)


def test_lift_chooses_the_first_point_whose_flip_induces_nothing():
    # random colorings usually leave several separable points, the maximizing
    # coloring usually none; the reference recounts every flipped coloring
    rng = random.Random(406)
    several = none = 0
    for _ in range(12):
        d = rng.randint(1, 3)
        config = random_point_config(d + rng.randint(3, 4), d, seed=rng.randint(0, 10**6))
        random_coloring = Coloring(tuple(rng.choice("RB") for _ in range(config.n)))
        for coloring in (random_coloring, max_r(config)[1]):
            qualifying = []
            for i in range(config.n):
                labels = list(coloring.labels)
                labels[i] = "B" if labels[i] == "R" else "R"
                if reference_count_induced(config, Coloring(tuple(labels))) == 0:
                    qualifying.append(i + 1)
            if qualifying:
                _, lifted_coloring = lift_unbalanced(config, coloring)
                assert lifted_coloring.red == {qualifying[0]}
            else:
                with pytest.raises(LiftSeparationError):
                    lift_unbalanced(config, coloring)
            several += len(qualifying) > 1
            none += not qualifying
    assert several >= 5 and none >= 3


def test_lift_tries_only_the_members_of_the_first_induced_subset(monkeypatch):
    # flipping a point outside an induced subset leaves it induced, so the
    # lift tries only that subset's d + 2 members and picks the point the
    # scan over every point picks: 300 seeded configurations, d 1-4 and
    # n up to 10, with random and maximizing colorings
    calls = []
    induced = galerad._induced
    monkeypatch.setattr(galerad, "_induced", lambda *args: calls.append(args) or induced(*args))
    rng = random.Random(2702)
    lifted = refused = 0
    for case in range(300):
        d = rng.randint(1, 4)
        config = random_point_config(rng.randint(d + 2, 10), d, seed=rng.randint(0, 10**6))
        if case % 2:
            coloring = max_r(config)[1]
        else:
            coloring = Coloring(tuple(rng.choice((RED, BLUE)) for _ in range(config.n)))
        expected = reference_lift_choice(config, coloring)
        induces = count_induced(config, coloring)
        calls.clear()
        if expected is None:
            with pytest.raises(LiftSeparationError):
                lift_unbalanced(config, coloring)
            refused += 1
        else:
            assert lift_unbalanced(config, coloring)[1].red == {expected}, (config, coloring)
            lifted += 1
        if induces:  # one count, then at most d + 2 flips
            assert len(calls) <= d + 3, (config, coloring)
    assert lifted >= 50 and refused >= 50


def test_lift_runs_the_simplex_only_on_the_chosen_point(monkeypatch):
    calls = []

    def counting(vectors, index):
        calls.append(index)
        return separating_functional(vectors, index)

    monkeypatch.setattr(galerad, "separating_functional", counting)
    with pytest.raises(LiftSeparationError):
        lift_unbalanced(LINE5, max_r(LINE5)[1])
    assert calls == []
    line4 = PointConfig.from_rows(1, [(0,), (1,), (2,), (5,)])
    _, lifted_coloring = lift_unbalanced(line4, Coloring.from_string("RRRB"))
    assert calls == [min(lifted_coloring.red) - 1]


def test_count_induced_validates_its_inputs():
    with pytest.raises(ValueError):
        count_induced(SQUARE, Coloring.from_string("RBB"))
    with pytest.raises(ValueError):
        count_induced(SQUARE, Coloring.from_string("RBBRR"))
    triangle = PointConfig.from_rows(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        count_induced(triangle, Coloring.from_string("RBR"))
    with pytest.raises(ValueError):
        is_radon_pair(SQUARE, (1, 1, 2, 3), Coloring.from_string("RBBR"))


def test_fewer_than_d_plus_2_points_raise_one_error():
    triangle = PointConfig.from_rows(2, [(0, 0), (1, 0), (0, 1)])
    coloring = Coloring.from_string("RBR")
    calls = (
        lambda: gale_transform(triangle),
        lambda: count_induced(triangle, coloring),
        lambda: galerad.induced_flags(triangle, coloring),
        lambda: max_r(triangle),
        lambda: max_r_sampled(triangle, 5, 0),
        lambda: lift_unbalanced(triangle, coloring),
    )
    for call in calls:
        with pytest.raises(DegenerateSpanError, match=r"need n >= d \+ 2 .*, got n=3 d=2"):
            call()


# ---------------------------------------------------------------------------
# Separating functionals: the integer-row simplex must take the pivots of the
# Fraction tableau in oracles.py, so w must be equal, not just valid.


def _assert_same_separator(vectors, index):
    w = separating_functional(vectors, index)
    assert w == reference_separating_functional(vectors, index)
    if w is not None:
        for k, vec in enumerate(vectors):
            value = sum(w_i * c for w_i, c in zip(w, vec))
            assert value >= 1 if k == index else value <= -1
    return w


@given(configs(max_extra=3), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_separating_functional_matches_reference_on_signed_rays(config, seed):
    for coloring in _colorings(config, seed, 2):
        rays = affine_projection(config, coloring)
        for index in range(config.n):
            _assert_same_separator(rays, index)


@given(
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_separating_functional_matches_reference_on_fractional_vectors(dim, count, seed):
    # small fractional coordinates: both separable and infeasible instances
    rng = random.Random(seed)
    vectors = [[_coordinate(rng, True, 5) for _ in range(dim)] for _ in range(count)]
    _assert_same_separator(vectors, rng.randrange(count))


def _extreme_programs(dim):
    """Separator programs in dimension dim whose tableau entries come near
    the packed simplex's field bound (exactlp._field_bits): coordinates up
    to 2^60 in size, Fraction coordinates over large denominators,
    Sylvester-Hadamard rows scaled by 2^40 and signed so that the first
    tableau's rows (e_k v_k, 1) are orthogonal and meet Hadamard's bound,
    and one long point against copies of a short one, where the cost row's
    right-hand side reaches 0.7 of the bound at dim 1.  Each program is a
    (vectors, index) pair, with counts up to 16."""
    rng = random.Random(dim)
    big = 1 << 60
    denominators = [(1 << 40) - 87, (1 << 40) - 167, (1 << 39) - 7]
    programs = []
    for count in (1, dim + 1, 16):
        integers = [
            [rng.choice((-big, big, rng.randint(-big, big))) for _ in range(dim)]
            for _ in range(count)
        ]
        fractions = [
            [Fraction(rng.randint(-big, big), rng.choice(denominators)) for _ in range(dim)]
            for _ in range(count)
        ]
        for vectors in (integers, fractions):
            programs += [(vectors, index) for index in {0, rng.randrange(count)}]
    hadamard = [[v << 40 for v in row[1 : dim + 1]] for row in _sylvester(1 << dim.bit_length())]
    for index in {0, rng.randrange(len(hadamard))}:
        signed = [row if k == index else [-v for v in row] for k, row in enumerate(hadamard)]
        programs += [(hadamard, index), (signed, index)]
    for count in range(2, 17):
        for length in (20, big):
            short = [1] + [0] * (dim - 1)
            programs.append(([[length] + short[1:]] + [short] * (count - 1), 0))
    return programs


@pytest.mark.parametrize("dim", range(1, 9))
def test_separating_functional_matches_reference_at_the_field_bound(dim):
    for vectors, index in _extreme_programs(dim):
        _assert_same_separator(vectors, index)


def test_separating_functional_returns_none_when_infeasible():
    # <w, v> >= 1 and <w, v> <= -1 for the same v
    assert _assert_same_separator([[Fraction(1, 2)], [Fraction(3, 2)]], 0) is None
    # a point inside the hull of the negated others
    square = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)],
              [Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(-1)],
              [Fraction(0), Fraction(0)]]
    assert _assert_same_separator(square, 4) is None
    assert _assert_same_separator([[Fraction(2)], [Fraction(-3, 2)]], 0) == [Fraction(2, 3)]


def test_separating_functional_rejects_an_index_outside_the_vectors():
    vectors = [[Fraction(1)], [Fraction(-1)], [Fraction(-2)]]
    for index in (3, -1):
        with pytest.raises(ValueError, match="index"):
            separating_functional(vectors, index)


def test_separating_functional_rejects_float_coordinates():
    # 0.5 would otherwise become Fraction(1, 2) and decide the program
    with pytest.raises(TypeError, match="coordinates must be exact"):
        separating_functional([(0.5,), (-1.0,)], 0)
    assert separating_functional([("1/2",), (-1,)], 0) == [Fraction(2)]


def test_separating_functional_rejects_no_vectors():
    with pytest.raises(ValueError, match="at least one vector"):
        separating_functional([], 0)


def test_lift_matches_the_fraction_reference_on_rational_points():
    # the pool's points are integers, so here the integer cut meets
    # denominators: d 1-3, denominators up to 12, seeded colorings
    rng = random.Random(2023)
    lifted_runs = 0
    while lifted_runs < 40:
        d = rng.randint(1, 3)
        n = rng.randint(d + 2, d + 5)
        rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(d)] for _ in range(n)]
        try:
            config = PointConfig.from_rows(d, rows)
        except GeneralPositionError:
            continue
        coloring = Coloring(tuple(rng.choice((RED, BLUE)) for _ in range(n)))
        expected = reference_lift_points(config, coloring)
        if expected is None:
            with pytest.raises(LiftSeparationError):
                lift_unbalanced(config, coloring)
            continue
        lifted, lifted_coloring = lift_unbalanced(config, coloring)
        assert (lifted.points, lifted_coloring.labels) == expected, (config, coloring)
        assert count_induced(lifted, lifted_coloring) == count_induced(config, coloring)
        lifted_runs += 1


def test_lift_is_identical_with_the_reference_separator(monkeypatch):
    # the lifted points are built from w, so the lift must not move; the
    # second lift starts from fractional points, exercising row denominators
    config = random_point_config(9, 2, seed=7)
    coloring = Coloring.from_string("RRBRBBBBR")

    def lift_twice():
        first = lift_unbalanced(config, coloring)
        return first, lift_unbalanced(*first)

    fast = lift_twice()
    monkeypatch.setattr(galerad, "separating_functional", reference_separating_functional)
    slow = lift_twice()
    assert fast == slow
    assert any(c.denominator > 1 for p in fast[1][0].points for c in p)
