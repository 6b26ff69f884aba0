from itertools import islice

import pytest

from lomlab.chessboard import canonical_matrix, corners_for
from lomlab.sign_matrix import reorient
from lomlab.travels import interior_elements, min_interior, reorientation_for_pt
from lomlab.verifier import (
    COUNTEREXAMPLES,
    exhaustive_rank3_scan,
    reproduce_counterexample,
    search_small_topes,
    verify_lower,
)


def test_verify_dim2_small_range_passes():
    report = verify_lower("dim2", t_values=range(0, 4))
    assert report.passed
    assert report.instances_checked == 4
    assert report.min_interior_observed >= report.required_bound
    assert len(report.witnesses) == 4
    for witness in report.witnesses:
        assert witness.observed == witness.required  # construction is tight


def test_verify_witnesses_revalidate():
    report = verify_lower("dim3", t_values=[0, 1])
    for witness in report.witnesses:
        params = dict(witness.params)
        matrix = canonical_matrix(corners_for("dim3", params["r"], params["t"]))
        flips = reorientation_for_pt(matrix, witness.travel)
        assert tuple(sorted(flips)) == witness.flips
        interior = interior_elements(reorient(matrix, flips))
        assert tuple(sorted(interior)) == witness.interior
        assert len(interior) == witness.observed


def test_verify_parameter_validation(monkeypatch):
    from lomlab import verifier

    def no_scan(*args):
        raise AssertionError("scan started")

    # every refusal comes before any scan
    monkeypatch.setattr(verifier, "_map_instances", no_scan)
    with pytest.raises(ValueError, match="r = 3"):
        verify_lower("dim2", r_values=[4], t_values=[0])
    with pytest.raises(ValueError, match="r = 4"):
        verify_lower("dim3", r_values=[5], t_values=[0])
    with pytest.raises(ValueError):
        verify_lower("dim2", t_values=[-1, 0])
    with pytest.raises(ValueError, match="a t range"):
        verify_lower("dim2")
    with pytest.raises(ValueError, match="an r range"):
        verify_lower("general", t_values=[2])
    with pytest.raises(ValueError):
        verify_lower("general", t_values=[2], r_values=[4])
    with pytest.raises(ValueError):
        verify_lower("t1", r_values=[5], t_values=[2])
    with pytest.raises(ValueError):
        verify_lower("nope", t_values=[0])


def test_pool_size_is_clamped_to_tasks_and_affinity(monkeypatch):
    from lomlab import verifier

    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert verifier.available_cpus() == 4
    assert verifier._pool_size(5000, 100) == 4
    assert verifier._pool_size(5000, 3) == 3
    assert verifier._pool_size(2, 100) == 2
    assert verifier._pool_size(0, 100) == 1
    assert verifier._pool_size(-7, 0) == 1


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for the process pool: run the tasks in this process and
    record the pool size each pool is started with."""
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


def test_map_instances_starts_only_the_clamped_pool(monkeypatch, serial_pool):
    from lomlab import verifier

    started = serial_pool
    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert verifier._map_instances(abs, [-1, -2, -3], workers=5000) == [1, 2, 3]
    assert started == [2]
    assert verifier._map_instances(abs, [-4], workers=5000) == [4]
    assert started == [2]  # one task runs in this process


def test_verify_workers_agree_with_sequential():
    seq = verify_lower("dim2", t_values=range(0, 3), workers=1)
    par = verify_lower("dim2", t_values=range(0, 3), workers=2)
    assert seq.to_text() == par.to_text()


def test_report_serialization_is_deterministic():
    a = verify_lower("dim2", t_values=[0, 1]).to_text()
    b = verify_lower("dim2", t_values=[0, 1]).to_text()
    assert a == b
    assert "wall_time" not in a
    assert a.startswith("report: lomlab-verification-v1\n")
    assert "verdict: pass" in a


def test_even_d_r7_failure_is_confirmed_by_circuit_oracle():
    # The even-dimension family genuinely fails at r = 7, t = 2: the scan
    # finds acyclic reorientation classes with only 2 interior elements.
    # Recompute one such class from scratch with the circuit-sign oracle so
    # the red acceptance criterion stays a verified fact, not a travel bug.
    from oracles import matrix_interior, matrix_is_acyclic

    report = verify_lower("even-d", t_values=[2], r_values=[7])
    assert not report.passed
    witness = report.witnesses[0]
    assert witness.observed == 2 and witness.required == 3
    matrix = canonical_matrix(corners_for("even-d", 7, 2))
    violating = reorient(matrix, witness.flips)
    assert matrix_is_acyclic(violating)
    assert matrix_interior(violating) == frozenset(witness.interior)
    assert len(matrix_interior(violating)) == 2


def test_counterexamples_reproduce_exact_interior_sets():
    for which, (_, _, _, target) in COUNTEREXAMPLES.items():
        report = reproduce_counterexample(which)
        assert report.passed, which
        witness = report.witnesses[0]
        assert witness.interior == target
        assert witness.observed == len(target)
        assert report.min_interior_observed == len(target)


def test_counterexample_reports_match_the_reference_scan():
    # every class is checked, the least count is over every class, and the
    # witness is the first class, in lexicographic order, with the target set
    from lomlab.chessboard import board_from_sequence

    from oracles import reference_scan

    for which, (r, n, sequence, target) in COUNTEREXAMPLES.items():
        classes = list(reference_scan(canonical_matrix(board_from_sequence(r, n, sequence)), True))
        report = reproduce_counterexample(which)
        assert report.instances_checked == len(classes), which
        assert report.min_interior_observed == min(len(i) for _, _, i in classes), which
        first = next(drops for drops, _, interior in classes if interior == frozenset(target))
        assert report.witnesses[0].travel.drop_columns == first, which


@pytest.mark.parametrize("lanes", [1, 3, 64, 1 << 16])
def test_class_batches_change_no_result(monkeypatch, lanes):
    # the batches of the class-lane kernel, down to one class each, give the
    # same minimum and witness, and the same counterexample reports
    from lomlab import travels

    matrix = canonical_matrix(corners_for("even-d", 7, 2))
    expect = [min_interior(matrix)] + [reproduce_counterexample(w).to_text() for w in "abc"]
    monkeypatch.setattr(travels, "CLASS_LANES", lanes)
    assert [min_interior(matrix)] + [reproduce_counterexample(w).to_text() for w in "abc"] == expect


def test_counterexample_rejects_unknown_label():
    with pytest.raises(ValueError):
        reproduce_counterexample("d")


def test_rank3_scan_n5_all_boards_reach_zero():
    report = exhaustive_rank3_scan(5)
    assert report.passed
    assert report.min_interior_observed == 0
    assert report.instances_checked == 2 ** 8


def test_rank3_scan_n6_bound_attained():
    report = exhaustive_rank3_scan(6)
    assert report.passed
    assert report.min_interior_observed == 1
    assert int(report.parameters["attain_bound"]) > 0


def test_board_minimum_invariant_under_mirror_and_flip():
    from lomlab.travels import min_interior
    from lomlab.verifier import _board_from_code

    from oracles import reference_code_transforms

    for code in range(1 << 8):  # every 2 x 4 board
        value, *images = (
            min_interior(canonical_matrix(_board_from_code(5, image)))[0]
            for image in reference_code_transforms(5, code)
        )
        assert images == [value] * 3, code


def test_rank3_scan_symmetry_prune_matches_full_scan():
    for n in (5, 6):
        full = exhaustive_rank3_scan(n)
        pruned = exhaustive_rank3_scan(n, symmetry_prune=True)
        assert pruned.min_interior_observed == full.min_interior_observed
        assert pruned.parameters["attain_bound"] == full.parameters["attain_bound"]
        assert int(pruned.parameters["evaluated"]) < int(full.parameters["evaluated"])
        assert pruned.verdict == full.verdict


def test_rank3_scan_workers_match():
    seq = exhaustive_rank3_scan(6, workers=1)
    par = exhaustive_rank3_scan(6, workers=2)
    assert seq.min_interior_observed == par.min_interior_observed
    assert seq.parameters["attain_bound"] == par.parameters["attain_bound"]


def test_rank3_scan_report_is_the_same_for_every_worker_count(monkeypatch, serial_pool):
    # 16 tasks of 256 codes: each worker count gives the one-task report,
    # so no scan state crosses a chunk boundary
    from lomlab import verifier

    expected = {prune: exhaustive_rank3_scan(7, prune).to_text() for prune in (False, True)}
    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(verifier, "CHUNK_CODES", 256)
    for prune in (False, True):
        for workers in (1, 2, 3):
            report = exhaustive_rank3_scan(7, prune, workers=workers)
            assert report.to_text() == expected[prune], (prune, workers)
    assert serial_pool == [2, 3, 2, 3]


def test_rank3_scan_range_check():
    from lomlab.verifier import RANK3_MAX_N

    with pytest.raises(ValueError):
        exhaustive_rank3_scan(4)
    with pytest.raises(ValueError):
        exhaustive_rank3_scan(RANK3_MAX_N + 1)


def test_search_budget_zero_returns_theorem_board():
    result = search_small_topes(3, 8, budget=0)
    assert result.label == "exploration"
    assert result.best_value == 3  # the t = 2 construction is tight at t + 1
    assert result.best_board.sequence == (2, 5)


def test_search_budget_zero_without_theorem_board():
    result = search_small_topes(5, 9, budget=0)
    assert result.boards_tried == 1
    assert result.best_value == 0  # all-white board


def test_search_exhaustive_rank3():
    from oracles import reference_board_from_code, reference_board_minimum

    for n, best in ((6, 1), (7, 2)):
        result = search_small_topes(3, n, budget=None)
        assert result.best_value == best
        assert result.boards_tried == 4 ** (n - 1)
        values = [reference_board_minimum(n, code) for code in range(4 ** (n - 1))]
        first_best = values.index(max(values))
        assert result.best_board == reference_board_from_code(n, first_best)


def test_search_exhaustive_rank3_runs_the_pruned_chunk_tasks(monkeypatch, serial_pool):
    from lomlab import verifier
    from oracles import reference_board_from_code, reference_board_minimum

    # n = 8 in tasks of 4,096 codes is 4 tasks, so the search starts a pool
    # of the available CPUs
    monkeypatch.setattr(verifier, "CHUNK_CODES", 1 << 12)
    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tasks = []
    scan_chunk = verifier._scan_chunk
    monkeypatch.setattr(verifier, "_scan_chunk", lambda args: tasks.append(args) or scan_chunk(args))
    result = search_small_topes(3, 8, budget=None)
    assert serial_pool == [2]
    step = verifier.CHUNK_CODES
    assert tasks == [(8, lo, lo + step, 9, True) for lo in range(0, 4**7, step)]
    assert result.boards_tried == 4**7
    values = [reference_board_minimum(8, code) for code in range(4**7)]
    assert result.best_value == max(values) == 3
    assert result.best_board == reference_board_from_code(8, values.index(max(values)))


def test_search_is_seed_deterministic():
    a = search_small_topes(4, 8, budget=30, seed=5)
    b = search_small_topes(4, 8, budget=30, seed=5)
    assert a.best_board == b.best_board and a.best_value == b.best_value
    assert a.best_value >= 1  # dim3 t=0 board is among the candidates


def test_search_validation():
    with pytest.raises(ValueError):
        search_small_topes(2, 6)
    with pytest.raises(ValueError):
        search_small_topes(4, 8, budget=None)
    with pytest.raises(ValueError, match="budget must be >= 0, got -3"):
        search_small_topes(3, 6, budget=-3)
    from lomlab.verifier import RANK3_MAX_N

    # outside the rank-3 scan box, refused before any board
    for n in (4, RANK3_MAX_N + 1, RANK3_MAX_N + 2):
        with pytest.raises(ValueError, match=f"5 <= n <= {RANK3_MAX_N}"):
            search_small_topes(3, n, budget=None)


def test_exploration_report_text():
    result = search_small_topes(3, 6, budget=0, seed=1)
    text = result.to_text()
    assert "label: exploration" in text
    assert "best_value: 1" in text


def test_code_masks_match_canonical_matrix_rows():
    # every board's canonical matrix, and its lane of the canonical planes
    # of the chunk's code planes, on one range per n that starts off a
    # chunk boundary
    from lomlab.chessboard import canonical_planes
    from lomlab.verifier import _board_from_code, _code_planes

    from oracles import reference_board_from_code, reference_canonical_matrix

    for n in range(5, 9):
        width, total = n - 1, 1 << (2 * (n - 1))
        start, stop = total // 5, total // 5 + 300
        squares = _code_planes(start, stop, 2 * width)
        planes = canonical_planes([squares[:width], squares[width:]])
        for code in range(total):
            matrix = canonical_matrix(_board_from_code(n, code))
            assert matrix == reference_canonical_matrix(reference_board_from_code(n, code))
            if start <= code < stop:
                lane = code - start
                masks = [sum((plane >> lane & 1) << j for j, plane in enumerate(row)) for row in planes]
                assert tuple(masks) == matrix.minus_masks, (n, code)


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("prune", [False, True])
def test_scan_chunk_matches_public_path(n, prune):
    from lomlab.verifier import _scan_chunk

    from oracles import reference_scan_chunk

    # every bound from 0 to n: below n - 5 most boards exceed it, and above
    # the largest minimum none reaches it
    total = 1 << (2 * (n - 1))
    for start, stop in ((0, total), (total // 3, total // 2)):
        for bound in range(n + 1):
            args = (n, start, stop, bound, prune)
            assert _scan_chunk(args) == reference_scan_chunk(args), (start, bound)


def test_rank3_scan_keeps_the_first_8_violations(monkeypatch):
    # bound 0 is below most boards' minimum: the scan keeps only the first
    # 8 codes above it, also when they come from several tasks
    from lomlab import verifier

    from oracles import reference_board_minimum

    for n, chunk in ((8, verifier.CHUNK_CODES), (6, 4)):
        monkeypatch.setattr(verifier, "CHUNK_CODES", chunk)
        above = (c for c in range(1 << (2 * (n - 1))) if reference_board_minimum(n, c) > 0)
        assert verifier._rank3_scan(n, 0, False, 1)[4] == list(islice(above, 8)), n


def test_theorem_board_table_matches_hand_inversion():
    from lomlab.verifier import _theorem_board_for

    from oracles import reference_theorem_board_for

    for r in range(3, 10):
        for n in range(3, 61):
            board, reference = _theorem_board_for(r, n), reference_theorem_board_for(r, n)
            if reference is None:
                assert board is None, (r, n)
            else:
                assert board is not None, (r, n)
                assert (board.black, board.sequence, board.corners) == (
                    reference.black,
                    reference.sequence,
                    reference.corners,
                ), (r, n)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_scan_chunk_edges_match_public_path(n):
    # single codes, ranges across a power-of-two code boundary (among them
    # the one between the two board rows) and the tail of the code range,
    # in both prune modes and against every bound from 0 to n + 1
    from lomlab.verifier import _scan_chunk

    from oracles import reference_scan_chunk

    width = n - 1
    total = 1 << (2 * width)
    ranges = [(0, 1), (total // 2 + 7, total // 2 + 8), (total - 1, total)]
    ranges += [((1 << k) - 5, (1 << k) + 6) for k in (3, width, width + 2, 2 * width - 1)]
    ranges += [(total - 300, total), (max(total - 1365, 0), total)]
    for start, stop in ranges:
        for bound in range(n + 2):
            for prune in (False, True):
                args = (n, start, stop, bound, prune)
                assert _scan_chunk(args) == reference_scan_chunk(args), args


@pytest.mark.slow
def test_rank3_scan_n14_pruned_agrees_with_unpruned():
    # the evidence for RANK3_MAX_N = 14: both full n = 14 scans pass and
    # agree (about 7 s with two workers; deselected from the default run)
    full = exhaustive_rank3_scan(14, workers=2)
    pruned = exhaustive_rank3_scan(14, symmetry_prune=True, workers=2)
    assert full.passed and pruned.passed
    assert full.min_interior_observed == pruned.min_interior_observed == 9
    assert full.parameters["attain_bound"] == pruned.parameters["attain_bound"]
    assert int(pruned.parameters["evaluated"]) < int(full.parameters["evaluated"])


def test_verify_box_fills_in_the_parameter_corners_for_fixes():
    # dim2's r, dim3's r and t1's t live in one table, which both read
    from lomlab.chessboard import FIXED_PARAMETERS
    from lomlab.verifier import _instance_box

    for theorem_id, fixed in FIXED_PARAMETERS.items():
        box = _instance_box(theorem_id, None if "t" in fixed else [2], None if "r" in fixed else [5])
        for _, r, t in box:
            assert {"r": r, "t": t}.items() >= fixed.items()
            corners_for(theorem_id, r, t)
            for name, value in fixed.items():
                with pytest.raises(ValueError, match=f"requires {name} = {value}"):
                    corners_for(theorem_id, **{"r": r, "t": t, name: value + 1})
