"""The benchmark's tracer patches lomlab names by getattr, so a name it
wraps that disappears from the program would only crash the benchmark.
The first test installs it on the program as it is and removes it again.
The next two run the benchmark's jobs and check their report blocks
against golden.json: the radon jobs on every pool entry, where a benchmark
run checks only the entry its seed picks, and the verify jobs of the
rank3-scan and families workloads.  The last two check the point that
lift picks on both colorings of every pool entry against the scan over
every point, and solve the pool's separator programs against the Fraction
simplex."""

import contextlib
import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

from lomlab import cli, exactlp, galerad, travels, verifier
from lomlab.chessboard import canonical_matrix, corners_for

from oracles import reference_lift_choice, reference_separating_functional

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_removes():
    owners = (cli, verifier, galerad, galerad.PointConfig)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load("spans").Tracer(
        SimpleNamespace(cli=cli, verifier=verifier, galerad=galerad, travels=travels)
    )
    tracer.install()
    try:
        assert verifier.min_interior is not travels.min_interior
        verifier.min_interior(canonical_matrix(corners_for("dim2", 3, 1)))
        assert tracer.counts["travels.min_interior.calls"] == 1
    finally:
        tracer.remove()
    assert [dict(vars(owner)) for owner in owners] == before
    assert verifier.min_interior is travels.min_interior


def _run_job(argv, reports, pattern):
    """(exit code, bytes the job appended to the report files matching
    `pattern`), as perfbench/run.py reads them."""
    before = {p.name: p.stat().st_size for p in reports.glob(pattern)}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    block = b""
    for path in sorted(reports.glob(pattern)):
        with open(path, "rb") as fh:
            fh.seek(before.get(path.name, 0))
            block += fh.read()
    return rc, block


def test_radon_pool_matches_golden(tmp_path, monkeypatch):
    # each job's exit code and appended report block, as perfbench/run.py
    # reads them, against golden.json; the seed picks the pool entry
    inputs, checks = _load("inputs"), _load("checks")
    golden = inputs.load_golden()
    monkeypatch.chdir(tmp_path)
    failed, ran = [], 0
    for seed in range(inputs.RADON_POOL):
        inputs.write_inputs("radon", seed, tmp_path)
        for job in inputs.jobs_for("radon", seed, golden):
            ran += 1
            rc, block = _run_job(job["argv"], tmp_path / "reports", "*")
            if not checks.matches_golden(rc, block, seed, golden["jobs"][job["key"]]):
                failed.append(" ".join(job["argv"]))
    assert not failed, failed
    assert ran == 8 * inputs.RADON_POOL


def test_verify_jobs_match_golden(tmp_path, monkeypatch):
    # the rank3-scan and families jobs, one seed: only the verify-* report
    # files hold report blocks (the failing even-d instance also writes
    # fixture files), as in perfbench/run.py's REPORT_PREFIXES
    inputs, checks = _load("inputs"), _load("checks")
    golden = inputs.load_golden()
    monkeypatch.chdir(tmp_path)
    seed = 5
    failed, ran = [], 0
    for workload in ("rank3-scan", "families"):
        inputs.write_inputs(workload, seed, tmp_path)
        for job in inputs.jobs_for(workload, seed, golden):
            ran += 1
            rc, block = _run_job(job["argv"], tmp_path / "reports", "verify-*")
            if not checks.matches_golden(rc, block, seed, golden["jobs"][job["key"]]):
                failed.append(" ".join(job["argv"]))
    assert not failed, failed
    assert ran == 9


def test_lift_matches_the_scan_over_every_point_on_the_pool(tmp_path):
    # the maximizing coloring of every entry lifts nowhere and the lifting
    # coloring lifts; either way the lift picks the scan's point
    inputs = _load("inputs")
    golden = inputs.load_golden()
    lifted = 0
    for seed in range(inputs.RADON_POOL):
        inputs.write_inputs("radon", seed, tmp_path)
        for d, n in inputs.RADON_SHAPES:
            config = galerad.PointConfig.from_text((tmp_path / inputs.points_name(d, n)).read_text())
            entry = golden["radon"][f"d{d}-n{n}"][seed]
            for name in ("witness", "lifting"):
                coloring = galerad.Coloring.from_string(entry[name])
                expected = reference_lift_choice(config, coloring)
                if expected is None:
                    with pytest.raises(galerad.LiftSeparationError):
                        galerad.lift_unbalanced(config, coloring)
                else:
                    assert galerad.lift_unbalanced(config, coloring)[1].red == {expected}
                    lifted += 1
    assert lifted == 2 * inputs.RADON_POOL


def test_separating_functional_matches_reference_on_pool_programs(tmp_path, monkeypatch):
    # the point that lift picks for every entry's lifting coloring, and
    # every point of both colorings of the first 4 entries; the simplex
    # stores only the x+ and artificial columns, and all four kinds of
    # variable (x+, x-, slack, artificial) must enter somewhere
    inputs = _load("inputs")
    golden = inputs.load_golden()
    kinds = set()
    entering = exactlp._entering

    def recording(cost, den, dim, count):
        enter = entering(cost, den, dim, count)
        if enter is not None:
            var = enter[0]
            kinds.add((var >= dim) + (var >= 2 * dim) + (var >= 2 * dim + count))
        return enter

    monkeypatch.setattr(exactlp, "_entering", recording)
    programs = feasible = 0
    for seed in range(inputs.RADON_POOL):
        inputs.write_inputs("radon", seed, tmp_path)
        for d, n in inputs.RADON_SHAPES:
            text = (tmp_path / inputs.points_name(d, n)).read_text()
            config = galerad.PointConfig.from_text(text)
            entry = golden["radon"][f"d{d}-n{n}"][seed]
            for name in ("lifting", "witness") if seed < 4 else ("lifting",):
                coloring = galerad.Coloring.from_string(entry[name])
                rays = galerad.affine_projection(config, coloring)
                if seed < 4:
                    indices = range(n)
                else:
                    _, lifted_coloring = galerad.lift_unbalanced(config, coloring)
                    indices = [min(lifted_coloring.red) - 1]
                for index in indices:
                    w = exactlp.separating_functional(rays, index)
                    assert w == reference_separating_functional(rays, index), (seed, d, name, index)
                    programs += 1
                    feasible += w is not None
    assert programs == 4 * 2 * (13 + 11) + 28 * 2
    assert 28 * 2 <= feasible < programs
    assert kinds == {0, 1, 2, 3}
