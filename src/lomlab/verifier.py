"""Exhaustive verification engines over the named board constructions.

Each engine scans every acyclic reorientation class of the relevant
matrices through the plain-travel machinery and reports minima, witnesses
and a verdict.  Reports never claim anything beyond the parameter boxes
actually checked; a failed check carries the offending travel and matrix so
it can be replayed.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .chessboard import (
    FIXED_PARAMETERS,
    THEOREM_IDS,
    Chessboard,
    board_from_sequence,
    canonical_matrix,
    canonical_planes,
    corners_for,
)
from .sign_matrix import SignMatrix, reorient
from .travels import (
    Travel,
    board_minima,
    compare_lanes,
    count_plain_travels,
    enumerate_plain_travels,  # noqa: F401  (perfbench/spans.py wraps it here)
    find_interior_set,
    interior_elements,
    min_interior,
    reorientation_for_pt,
)

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Witness:
    """One checked instance: the extremal travel and what it showed."""

    params: tuple[tuple[str, int], ...]
    travel: Travel
    flips: tuple[int, ...]
    interior: tuple[int, ...]
    observed: int
    required: int
    ok: bool

    def to_line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        flips = ",".join(str(c) for c in self.flips) or "-"
        interior = ",".join(str(c) for c in self.interior) or "-"
        return (
            f"witness: {params} observed={self.observed} required={self.required} "
            f"ok={'true' if self.ok else 'false'} travel={self.travel.to_text()} "
            f"flips={flips} interior={interior}"
        )


@dataclass
class VerificationReport:
    """Outcome of one verification run over a finite parameter box."""

    theorem_id: str
    parameters: dict[str, str]
    instances_checked: int
    min_interior_observed: int | None
    required_bound: int | None
    witnesses: tuple[Witness, ...]
    verdict: str
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def summary(self) -> str:
        return (
            f"{self.theorem_id}: {self.verdict} "
            f"({self.instances_checked} instances, {self.wall_time:.2f}s)"
        )

    def to_text(self) -> str:
        """Stable-keyed block; timing is left out so identical runs
        serialize byte-identically."""
        lines = [
            "report: lomlab-verification-v1",
            f"theorem: {self.theorem_id}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"param {key}: {self.parameters[key]}")
        lines.append(f"instances_checked: {self.instances_checked}")
        lines.append(f"min_interior_observed: {_fmt_opt(self.min_interior_observed)}")
        lines.append(f"required_bound: {_fmt_opt(self.required_bound)}")
        lines.extend(w.to_line() for w in self.witnesses)
        lines.append(f"verdict: {self.verdict}")
        lines.append("end: lomlab-verification-v1")
        return "\n".join(lines) + "\n"


def _fmt_opt(value: int | None) -> str:
    return "-" if value is None else str(value)


def _witness(
    params: tuple[tuple[str, int], ...],
    matrix: SignMatrix,
    travel: Travel,
    observed: int,
    required: int,
    ok: bool,
) -> Witness:
    """Witness for the class of `travel`: its flips and interior set are
    recomputed through the public travel operations, so they replay."""
    flips = tuple(sorted(reorientation_for_pt(matrix, travel)))
    interior = tuple(sorted(interior_elements(reorient(matrix, flips))))
    return Witness(params, travel, flips, interior, observed, required, ok)


# ---------------------------------------------------------------------------
# Lower-bound theorem runs.


def _instance_box(
    theorem_id: str,
    t_values: Sequence[int] | None,
    r_values: Sequence[int] | None,
) -> list[tuple[str, int, int]]:
    """The r x t box of a construction, r-major, with the parameter a family
    fixes filled in; ``corners_for`` alone decides which (r, t) it accepts."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    fixed = {name: [value] for name, value in FIXED_PARAMETERS.get(theorem_id, {}).items()}
    r_values = r_values or fixed.get("r")
    t_values = t_values or fixed.get("t")
    for what, values in (("an r range", r_values), ("a t range", t_values)):
        if not values:
            raise ValueError(f"{theorem_id} needs {what}")
    return [(theorem_id, r, t) for r in r_values for t in t_values]


def _check_lower_instance(instance: tuple[int, int, Chessboard]) -> Witness:
    r, t, board = instance
    matrix = canonical_matrix(board)
    observed, travel = min_interior(matrix)
    params = (("r", r), ("t", t), ("n", matrix.n))
    return _witness(params, matrix, travel, observed, t + 1, observed >= t + 1)


def verify_lower(
    theorem_id: str,
    t_values: Sequence[int] | None = None,
    r_values: Sequence[int] | None = None,
    workers: int = 1,
) -> VerificationReport:
    """Scan a named construction over a parameter box.

    For every instance the construction matrix is built, every acyclic
    reorientation class is scanned via plain travels, and the minimum
    interior count is compared against the instance bound t + 1.  The
    reported pair (min_interior_observed, required_bound) belongs to the
    instance with the smallest margin, so the report passes exactly when
    that pair satisfies observed >= required.
    """
    start = time.perf_counter()
    box = _instance_box(theorem_id, t_values, r_values)
    # build every construction, which validates its parameters, before any scan
    boards = [(r, t, corners_for(theorem_id, r, t)) for _, r, t in box]
    witnesses = _map_instances(_check_lower_instance, boards, workers)
    worst = min(witnesses, key=lambda w: w.observed - w.required)
    report = VerificationReport(
        theorem_id=theorem_id,
        parameters=_box_params(t_values, r_values),
        instances_checked=len(box),
        min_interior_observed=worst.observed,
        required_bound=worst.required,
        witnesses=tuple(witnesses),
        verdict=PASS if all(w.ok for w in witnesses) else FAIL,
        wall_time=time.perf_counter() - start,
    )
    return report


def _box_params(t_values, r_values) -> dict[str, str]:
    params = {}
    if t_values:
        params["t"] = ",".join(str(t) for t in t_values)
    if r_values:
        params["r"] = ",".join(str(r) for r in r_values)
    return params


def available_cpus() -> int:
    """CPUs this process may run on, which can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes to start: never more than the tasks or the CPUs."""
    return max(1, min(requested, tasks, available_cpus()))


def _map_instances(fn, items, workers: int):
    workers = _pool_size(workers, len(items))
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Counterexample reproduction.

COUNTEREXAMPLES: dict[str, tuple[int, int, tuple[int, ...], tuple[int, ...]]] = {
    "a": (5, 11, (2, 4, 2, 2), (1,)),
    "b": (6, 15, (2, 5, 2, 3, 2), (13, 15)),
    "c": (5, 14, (2, 6, 2, 3), (11, 13, 14)),
}


def reproduce_counterexample(which: str) -> VerificationReport:
    """Search the named board for a travel with a prescribed interior set.

    The three boards demonstrate that some constructions cannot give more:
    each admits an acyclic reorientation class whose interior set is exactly
    the recorded target.  ``travels.find_interior_set`` scans every class
    in one pass, for the least interior count and the first class in
    lexicographic order whose interior set is the target; that class is
    the witness.
    """
    if which not in COUNTEREXAMPLES:
        raise ValueError(f"unknown counterexample {which!r}, want one of a, b, c")
    start = time.perf_counter()
    r, n, sequence, target = COUNTEREXAMPLES[which]
    matrix = canonical_matrix(board_from_sequence(r, n, sequence))
    best, travel = find_interior_set(matrix, target)
    witnesses = ()
    if travel is not None:
        params = (("r", r), ("n", n))
        witnesses = (_witness(params, matrix, travel, len(target), len(target), True),)
    return VerificationReport(
        theorem_id=f"counterexample-{which}",
        parameters={
            "sequence": ",".join(str(x) for x in sequence),
            "target": ",".join(str(c) for c in target),
        },
        instances_checked=count_plain_travels(r, n) + 1,
        min_interior_observed=best,
        required_bound=len(target),
        witnesses=witnesses,
        verdict=PASS if witnesses else FAIL,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Exhaustive rank-3 board scan.


RANK3_MAX_N = 14
# Codes per rank-3 scan task, whatever the worker count: a task's result
# depends only on its code range, so the report does not depend on
# --workers.  Each task is one batch of the lane kernel; at 2 ** 16 lanes
# its plane operations, not its Python steps, bound the cost.
CHUNK_CODES = 1 << 16


def check_rank3_n(n: int) -> None:
    """Refuse, before any work, an n outside the exhaustive rank-3 box."""
    if not (5 <= n <= RANK3_MAX_N):
        raise ValueError(f"rank-3 scan supports 5 <= n <= {RANK3_MAX_N}, got {n}")


def _board_rows(bits: Sequence, width: int) -> tuple[Sequence, Sequence]:
    """The two rows of the 2 x width board of a code, from the code's
    per-bit sequence: bit i * width + j of a code is row i, column j."""
    return bits[:width], bits[width:]


def _board_from_code(n: int, code: int) -> Chessboard:
    bits = tuple(bool(code >> b & 1) for b in range(2 * (n - 1)))
    return Chessboard(_board_rows(bits, n - 1))


def _code_planes(start: int, stop: int, bits: int) -> list[int]:
    """Lane planes of the codes in [start, stop): bit l of planes[b] is bit b
    of the code start + l.

    The lane numbers' bits are periodic patterns, each built by doubling
    its first period, and start is added to them with a ripple carry, so
    any range works, aligned or not.
    """
    lanes = stop - start
    full = (1 << lanes) - 1
    planes, carry = [], 0
    for b in range(bits):
        half = 1 << b
        lane_bit = 0
        if half < lanes:
            lane_bit, width = ((1 << half) - 1) << half, 2 * half
            while width < lanes:
                lane_bit |= lane_bit << width
                width *= 2
            lane_bit &= full
        start_bit = full if start >> b & 1 else 0
        planes.append(lane_bit ^ start_bit ^ carry)
        carry = (lane_bit & start_bit) | (carry & (lane_bit ^ start_bit))
    return planes


def _orbit_lanes(code: Sequence[int], width: int, full: int) -> tuple[int, int, int]:
    """(least, fixed_by_all, fixed_by_one) over the codes' symmetry orbits.

    The images of a board are its left-right mirror, its top-bottom flip
    and both.  `least` holds the lanes whose code is the least of its
    orbit, `fixed_by_all` those equal to all three images and
    `fixed_by_one` those equal to at least one.  The orbit has 4 boards
    when no image equals the code, 1 when all do and 2 otherwise.
    """
    top, bottom = _board_rows(code, width)
    least, fixed_by_all, fixed_by_one = full, full, 0
    for image in (top[::-1] + bottom[::-1], bottom + top, bottom[::-1] + top[::-1]):
        less, same = compare_lanes(code, image, full)
        least &= less | same
        fixed_by_all &= same
        fixed_by_one |= same
    return least, fixed_by_all, fixed_by_one


def _codes(lanes: int, start: int) -> Iterator[int]:
    """The codes of the lanes in the mask, in code order."""
    while lanes:
        low = lanes & -lanes
        yield start + low.bit_length() - 1
        lanes ^= low


def _scan_chunk(args: tuple[int, int, int, int, bool]) -> tuple:
    """Scan the boards with codes in [start, stop) against `bound`.

    Returns (worst, worst_code, attain, exemplars, violations, evaluated):
    the largest board minimum and the first code reaching it, the orbit
    weight of the boards whose minimum equals the bound and the first 8 of
    them, the first 8 boards above it, and the number of boards scanned.

    Every board of the range is a lane of ``travels.board_minima``, which
    gives the lanes at each minimum; the tuple is read off those masks, cut
    to the evaluated lanes.  With `prune` only the least code of each orbit
    counts, weighted by the orbit's size, but every lane is still computed.
    """
    n, start, stop, bound, prune = args
    width, full = n - 1, (1 << (stop - start)) - 1
    code = _code_planes(start, stop, 2 * width)
    minima = board_minima(canonical_planes(_board_rows(code, width)), n, full)
    evaluated, fixed_by_all, fixed_by_one = (
        _orbit_lanes(code, width, full) if prune else (full, full, full)
    )
    at = [lanes & evaluated for lanes in minima]  # at[v]: evaluated lanes at minimum v
    worst = max((v for v in range(n + 1) if at[v]), default=-1)
    worst_code = next(_codes(at[worst], start)) if worst >= 0 else -1
    attained = at[bound] if 0 <= bound <= n else 0
    above = 0
    for lanes in at[max(bound + 1, 0):]:
        above |= lanes
    attain = (
        attained.bit_count()
        + (attained ^ (attained & fixed_by_all)).bit_count()
        + 2 * (attained ^ (attained & fixed_by_one)).bit_count()
    )
    exemplars = list(islice(_codes(attained, start), 8))
    violations = list(islice(_codes(above, start), 8))
    return worst, worst_code, attain, exemplars, violations, evaluated.bit_count()


def _rank3_scan(n: int, bound: int, prune: bool, workers: int) -> tuple:
    """Every 2 x (n-1) board in tasks of CHUNK_CODES codes, merged in code
    order: the ``_scan_chunk`` tuple of the whole code range, with at most
    8 exemplars and 8 violations.  The result does not depend on `workers`."""
    total = 1 << (2 * (n - 1))
    tasks = [
        (n, lo, min(lo + CHUNK_CODES, total), bound, prune)
        for lo in range(0, total, CHUNK_CODES)
    ]
    worst, worst_code, attain, exemplars, violations, evaluated = -1, -1, 0, [], [], 0
    for w, wc, a, ex, vi, ev in _map_instances(_scan_chunk, tasks, workers):
        if w > worst:
            worst, worst_code = w, wc
        attain += a
        exemplars.extend(ex)
        violations.extend(vi)
        evaluated += ev
    return worst, worst_code, attain, exemplars[:8], violations[:8], evaluated


def exhaustive_rank3_scan(
    n: int, symmetry_prune: bool = False, workers: int = 1
) -> VerificationReport:
    """Scan every 2 x (n-1) board and check min interior <= n - 5.

    Supported for 5 <= n <= RANK3_MAX_N.  With symmetry_prune, only the
    smallest code of each orbit under left-right mirroring and top-bottom
    flipping is evaluated (both flips preserve the per-board minimum; the
    scan verdict and attainment counts are unchanged, which the tests
    cross-check).  The lane kernel computes every board either way, so
    pruning changes the `evaluated` count, not the cost.  The codes are
    cut into tasks of CHUNK_CODES codes, merged in code order, so the
    report is the same for every worker count.
    """
    check_rank3_n(n)
    start_time = time.perf_counter()
    total = 1 << (2 * (n - 1))
    bound = n - 5
    worst, worst_code, attain, exemplars, violations, evaluated = _rank3_scan(
        n, bound, symmetry_prune, workers
    )

    witnesses = []
    for code in ([worst_code] if worst_code >= 0 else []) + violations:
        matrix = canonical_matrix(_board_from_code(n, code))
        observed, travel = min_interior(matrix)
        params = (("n", n), ("board", code))
        witnesses.append(_witness(params, matrix, travel, observed, bound, observed <= bound))

    verdict = PASS if not violations and attain > 0 else FAIL
    return VerificationReport(
        theorem_id="rank3-scan",
        parameters={
            "n": str(n),
            "boards": str(total),
            "evaluated": str(evaluated),
            "attain_bound": str(attain),
            "attain_exemplars": ",".join(str(c) for c in exemplars) or "-",
            "symmetry_prune": "on" if symmetry_prune else "off",
        },
        instances_checked=total,
        min_interior_observed=worst,
        required_bound=bound,
        witnesses=tuple(witnesses),
        verdict=verdict,
        wall_time=time.perf_counter() - start_time,
    )


# ---------------------------------------------------------------------------
# Exploratory search for boards with large minimum interior count.


@dataclass
class ExplorationResult:
    """Best board found by search; exploration only, never a theorem claim."""

    label: str
    r: int
    n: int
    boards_tried: int
    best_board: Chessboard
    best_value: int
    seed: int

    def summary(self) -> str:
        return (
            f"exploration r={self.r} n={self.n}: best min-interior {self.best_value} "
            f"over {self.boards_tried} boards"
        )

    def to_text(self) -> str:
        lines = [
            "report: lomlab-exploration-v1",
            f"label: {self.label}",
            f"r: {self.r}",
            f"n: {self.n}",
            f"seed: {self.seed}",
            f"boards_tried: {self.boards_tried}",
            f"best_value: {self.best_value}",
            "best_board:",
        ]
        lines.extend("  " + line for line in self.best_board.to_text().splitlines())
        lines.append("end: lomlab-exploration-v1")
        return "\n".join(lines) + "\n"


def _theorem_board_for(r: int, n: int) -> Chessboard | None:
    """The named construction of rank r with n columns, if there is one:
    the first board ``corners_for`` builds in id and t order.  A family
    stops once its board is wider than n, since n grows with t."""
    for theorem_id in THEOREM_IDS:
        for t in range(n):  # every construction has n > t
            try:
                board = corners_for(theorem_id, r, t)
            except ValueError:  # (r, t) outside the construction's range
                continue
            if board.matrix_cols == n:
                return board
            if board.matrix_cols > n:
                break
    return None


def search_small_topes(
    r: int, n: int, budget: int | None = 0, seed: int = 0
) -> ExplorationResult:
    """Search boards maximizing the minimum interior count; exploration only.

    budget counts random boards tried beyond the default candidates (the
    matching named construction when one exists, otherwise the all-white
    board); a negative budget is refused.  budget=None scans every board of the exhaustive rank-3 box and
    is refused for r != 3 and for n outside 5 <= n <= RANK3_MAX_N; it runs
    the symmetry-pruned tasks of exhaustive_rank3_scan on every available
    CPU, and the best board is the first code reaching the maximum.
    """
    if r < 3:
        raise ValueError("search needs r >= 3")
    if n < r:
        raise ValueError("search needs n >= r")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget is None:
        if r != 3:
            raise ValueError("exhaustive board search is only feasible for r = 3")
        check_rank3_n(n)
        tried = 1 << (2 * (n - 1))
        # with a bound above n no board reaches it, and the scan's worst
        # value is the largest minimum; the first code with it is the
        # least of its orbit, since both flips keep the minimum, so the
        # pruned scan finds it
        best_value, best_code = _rank3_scan(n, n + 1, True, available_cpus())[:2]
        best_board = _board_from_code(n, best_code)
    else:
        default = _theorem_board_for(r, n) or Chessboard.all_white(r, n)
        rng = random.Random(seed)
        randoms = [
            Chessboard(
                tuple(
                    tuple(rng.random() < 0.5 for _ in range(n - 1))
                    for _ in range(r - 1)
                )
            )
            for _ in range(budget)
        ]
        tried = 1 + budget
        best_value = -1
        for board in [default] + randoms:
            value = min_interior(canonical_matrix(board))[0]
            if value > best_value:
                best_value, best_board = value, board
    return ExplorationResult(
        label="exploration",
        r=r,
        n=n,
        boards_tried=tried,
        best_board=best_board,
        best_value=best_value,
        seed=seed,
    )
