"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every check is exact; the stated runtimes are comfortable upper
bounds on a desktop machine.

Criterion 5 is expected to fail at r = 7: the named even-dimension
construction genuinely admits acyclic reorientation classes with only t
interior elements there (confirmed independently by the circuit-sign
oracle), so the faithful check reports it red rather than papering over it.
See the repository notes for the analysis.
"""

import random
import time

from lomlab.bounds import cyclic_facets, hd1_bound
from lomlab.galerad import (
    LiftSeparationError,
    count_induced,
    gale_transform,
    lift_unbalanced,
    max_r,
    random_point_config,
)
from lomlab.sign_matrix import reorient
from lomlab.travels import interior_elements, is_acyclic, reorientation_for_pt
from lomlab.verifier import (
    COUNTEREXAMPLES,
    exhaustive_rank3_scan,
    reproduce_counterexample,
    verify_lower,
)

from oracles import (
    all_sign_matrices,
    config_from_rays,
    gale_evenness_facets,
    matrix_interior,
    never_convex,
    random_sign_matrix,
)


def announce(number, name, start, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({time.perf_counter() - start:.1f}s){extra}")
    return ok


def run_lower(theorem, t_values, r_values=None):
    report = verify_lower(theorem, t_values=t_values, r_values=r_values, workers=1)
    failures = [w for w in report.witnesses if not w.ok]
    return report, failures


def describe(witness):
    params = " ".join(f"{k}={v}" for k, v in witness.params)
    return (
        f"{params}: observed {witness.observed} < required {witness.required}, "
        f"witness travel {witness.travel.to_text()} flips {witness.flips} "
        f"interior {witness.interior}"
    )


def test_criterion_01_rank3_one_black_per_column():
    start = time.perf_counter()
    report, failures = run_lower("dim2", range(0, 7))
    assert announce(1, "rank-3 construction t=0..6", start, report.passed), "; ".join(
        describe(w) for w in failures
    )


def test_criterion_02_rank4_construction():
    start = time.perf_counter()
    report, failures = run_lower("dim3", range(0, 5))
    assert announce(2, "rank-4 construction t=0..4", start, report.passed), "; ".join(
        describe(w) for w in failures
    )


def test_criterion_03_general_construction():
    start = time.perf_counter()
    report, failures = run_lower("general", t_values=[2, 3], r_values=[5, 6])
    assert announce(3, "general construction r=5,6 t=2,3", start, report.passed), "; ".join(
        describe(w) for w in failures
    )


def test_criterion_04_single_interior_family():
    start = time.perf_counter()
    report, failures = run_lower("t1", t_values=None, r_values=[5, 6])
    assert announce(4, "t=1 family r=5,6 needs two interior", start, report.passed), "; ".join(
        describe(w) for w in failures
    )


def test_criterion_05_even_dimension_family():
    # Expected red at r = 7: the construction admits classes with only t
    # interior elements there; the failing witnesses are genuine (they
    # revalidate against the circuit-sign oracle in the module tests).
    start = time.perf_counter()
    report, failures = run_lower("even-d", t_values=[2], r_values=[5, 7])
    assert announce(5, "even-dimension family r=5,7 t=2", start, report.passed), "; ".join(
        describe(w) for w in failures
    )


def test_criterion_06_counterexample_boards():
    start = time.perf_counter()
    details = []
    ok = True
    for which, (_, _, _, target) in sorted(COUNTEREXAMPLES.items()):
        report = reproduce_counterexample(which)
        good = (
            report.passed
            and report.witnesses
            and report.witnesses[0].interior == target
            and report.witnesses[0].observed == len(target)
        )
        ok = ok and good
        details.append(f"{which}:{'ok' if good else 'MISSING'}")
    assert announce(6, "counterexample boards a,b,c", start, ok, " ".join(details))


def test_criterion_07_exhaustive_rank3_scan():
    start = time.perf_counter()
    ok = True
    details = []
    for n in range(5, 9):
        report = exhaustive_rank3_scan(n, workers=1)
        good = report.passed and report.min_interior_observed <= n - 5
        if n >= 6:
            good = good and int(report.parameters["attain_bound"]) > 0
        ok = ok and good
        details.append(f"n={n}:max={report.min_interior_observed}")
    assert announce(7, "rank-3 boards n=5..8 stay within n-5", start, ok, " ".join(details))


def test_criterion_08_rank2_interior_counts():
    start = time.perf_counter()
    bad = []
    for n in range(3, 9):
        for matrix in all_sign_matrices(2, n):
            if is_acyclic(matrix):
                if len(interior_elements(matrix)) != n - 2:
                    bad.append((n, matrix.rows))
    assert announce(8, "acyclic 2xn matrices have n-2 interior", start, not bad), bad[:3]


def test_criterion_09_travel_circuit_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20250811)
    from lomlab.travels import enumerate_plain_travels, plain_travel

    bad = []
    for _ in range(200):
        n = rng.randint(3, 6)
        matrix = random_sign_matrix(rng, 3, n)
        shapes = [plain_travel(3, n, ())] + list(enumerate_plain_travels(3, n))
        pt = rng.choice(shapes)
        acyclic = reorient(matrix, reorientation_for_pt(matrix, pt))
        assert is_acyclic(acyclic)
        if interior_elements(acyclic) != matrix_interior(acyclic):
            bad.append(acyclic.rows)
    assert announce(9, "travel interior equals circuit oracle x200", start, not bad), bad[:2]


def test_criterion_10_cyclic_facets_against_gale_evenness():
    start = time.perf_counter()
    ok = cyclic_facets(6, 3) == 8 and cyclic_facets(7, 4) == 14
    mismatches = []
    for d in range(2, 7):
        for n in range(d + 1, 13):
            if cyclic_facets(n, d) != gale_evenness_facets(n, d):
                mismatches.append((n, d))
    ok = ok and not mismatches
    assert announce(10, "cyclic facet closed form vs Gale evenness", start, ok), mismatches


def test_criterion_11_duality_instance_five_points_on_a_line():
    start = time.perf_counter()
    table = hd1_bound(5, 2)
    ok = table.kind == "exact" and table.value == 5
    bad = []
    for seed in range(10):
        config = random_point_config(5, 1, seed=seed)
        value, witness = max_r(config)
        if value != 5 or count_induced(config, witness) != 5:
            bad.append(seed)
    ok = ok and not bad
    assert announce(11, "max_r of 5 collinear points equals facet table 5", start, ok), bad


def test_criterion_12_small_radon_values():
    start = time.perf_counter()
    bad = []
    for d in range(1, 5):
        for seed in range(4):
            config = random_point_config(d + 2, d, seed=31 * d + seed)
            if max_r(config)[0] != 1:
                bad.append(("d+2", d, seed))
    for d in range(1, 4):
        values = []
        for seed in range(4):
            config = random_point_config(d + 3, d, seed=97 * d + seed)
            values.append(max_r(config)[0])
        if not all(v >= 2 for v in values) or min(values) != 2:
            bad.append(("d+3", d, values))
    assert announce(12, "r(X)=1 at n=d+2; r(X)>=2 with 2 attained at n=d+3", start, not bad), bad


def test_criterion_13_unbalanced_lifting():
    start = time.perf_counter()
    applicable = 0
    bad = []
    # random configurations plus dual instances engineered to be liftable
    candidates = [random_point_config(n, d, seed=11 * n + d) for n, d in
                  ((5, 1), (6, 1), (6, 2), (7, 3))]
    for seed in range(10):
        planar = random_point_config(6, 2, seed=seed, spread=12)
        if never_convex(planar):
            candidates.append(config_from_rays(gale_transform(planar).vectors, seed=seed)[0])
    for config in candidates:
        value, witness = max_r(config)
        try:
            lifted, lifted_coloring = lift_unbalanced(config, witness)
        except LiftSeparationError:
            continue
        applicable += 1
        sizes = sorted(map(lifted_coloring.labels.count, "RB"))
        if sizes != [1, config.n - 1] or count_induced(lifted, lifted_coloring) != value:
            bad.append((config.n, config.dim, sizes))
    ok = not bad and applicable >= 3
    assert announce(
        13, "lifting keeps counts with classes (1, n-1)", start, ok,
        f"applicable={applicable}",
    ), bad


def test_criterion_14_bound_table_sandwich():
    start = time.perf_counter()
    bad = []
    for d in range(2, 7):
        for n in range(d + 2, 21):
            value = hd1_bound(n, d)
            if value.lower is not None and value.upper is not None:
                if value.lower > value.upper:
                    bad.append((n, d, value))
    assert announce(14, "facet table lower never exceeds upper", start, not bad), bad
