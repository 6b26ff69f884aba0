"""The benchmark's tracer patches lomlab names by getattr, so a name it
wraps that disappears from the program would only crash the benchmark.
The first test installs it on the program as it is and removes it again.
The second runs the benchmark's radon jobs on every pool entry, where a
benchmark run checks only the entry its seed picks."""

import contextlib
import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

from lomlab import cli, galerad, travels, verifier
from lomlab.chessboard import canonical_matrix, corners_for

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


def test_radon_pool_matches_golden(tmp_path, monkeypatch):
    # each job's exit code and appended report block, as perfbench/run.py
    # reads them, against golden.json; the seed picks the pool entry
    inputs, checks = _load("inputs"), _load("checks")
    golden = inputs.load_golden()
    monkeypatch.chdir(tmp_path)
    reports = tmp_path / "reports"
    failed, ran = [], 0
    for seed in range(inputs.RADON_POOL):
        inputs.write_inputs("radon", seed, tmp_path)
        for job in inputs.jobs_for("radon", seed, golden):
            ran += 1
            before = {p.name: p.stat().st_size for p in reports.glob("*")}
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(job["argv"]))
            block = b""
            for path in sorted(reports.glob("*")):
                with open(path, "rb") as fh:
                    fh.seek(before.get(path.name, 0))
                    block += fh.read()
            if not checks.matches_golden(rc, block, seed, golden["jobs"][job["key"]]):
                failed.append(" ".join(job["argv"]))
    assert not failed, failed
    assert ran == 8 * inputs.RADON_POOL
