import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import lomlab
from lomlab.cli import main
from lomlab.galerad import Coloring, PointConfig, is_radon_pair


INPUTS = {
    "line5.txt": "5 1\n0\n1\n2\n3\n4\n",
    "square.txt": "4 2\n0 0\n1 0\n0 1\n1 1\n",
    "triangle.txt": "3 2\n0 0\n1 0\n0 1\n",
    "collinear.txt": "3 2\n0 0\n1 1\n2 2\n",
    "no-points.txt": "0 2\n",
    "line23.txt": "23 1\n" + "".join(f"{i}\n" for i in range(23)),
    "m.txt": "2 3\n+-+\n+++\n",
    "bad-m.txt": "2 3\n+-+\n+*+\n",
}


@pytest.fixture()
def line5(tmp_path):
    path = tmp_path / "line5.txt"
    path.write_text(INPUTS["line5.txt"])
    return path


@pytest.fixture()
def square(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(INPUTS["square.txt"])
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_dim2_passes(tmp_path, capsys):
    out = tmp_path / "reports"
    code, stdout, _ = run(
        ["verify", "dim2", "--t", "0..4", "--workers", "1", "--out", str(out)], capsys
    )
    assert code == 0
    assert "dim2: pass" in stdout
    reports = list(out.glob("verify-dim2-*.txt"))
    assert len(reports) == 1
    body = reports[0].read_text()
    assert "verdict: pass" in body
    assert "seed: 0" in body


# modules that start-up leaves unloaded until a command runs them
LAZY_MODULES = (
    "lomlab.verifier",
    "lomlab.travels",
    "lomlab.bounds",
    "concurrent.futures.process",
    "multiprocessing",
    "lomlab.galerad",
    "lomlab.exactlp",
)


def _lazy_modules_loaded_by(code):
    """The LAZY_MODULES that running `code` in a fresh interpreter loads."""
    # one marked line carries the answer, so warnings or command output on
    # the child's streams cannot leak into it
    report = f"print('LAZY:', *(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    src = str(Path(lomlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n{report}"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    (line,) = (line for line in done.stdout.splitlines() if line.startswith("LAZY:"))
    return line.split()[1:]


def test_start_up_loads_only_the_engine_the_command_runs(square, tmp_path):
    assert _lazy_modules_loaded_by("import lomlab.cli") == []
    radon = ["radon", str(square), "count", "--coloring", "RBRB", "--out", str(tmp_path)]
    loaded = _lazy_modules_loaded_by(f"from lomlab.cli import main\nassert main({radon!r}) == 0")
    assert loaded == ["lomlab.galerad", "lomlab.exactlp"]
    # one worker runs in this process: the verifier, but no pool
    verify = ["verify", "rank3-scan", "--n", "5", "--workers", "1", "--out", str(tmp_path)]
    loaded = _lazy_modules_loaded_by(f"from lomlab.cli import main\nassert main({verify!r}) == 0")
    assert loaded == ["lomlab.verifier", "lomlab.travels"]


def test_verify_counterexamples(tmp_path, capsys):
    code, stdout, _ = run(
        ["verify", "counterexamples", "--out", str(tmp_path / "r")], capsys
    )
    assert code == 0
    assert stdout.count(": pass") == 3


def test_verify_default_workers_is_the_affinity_count(monkeypatch, tmp_path, capsys):
    # the default is resolved when the verify command runs, not when the
    # parser is built
    from lomlab import verifier

    seen = []
    verify_lower = verifier.verify_lower

    def spy(*args, workers):
        seen.append(workers)
        return verify_lower(*args, workers=workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(verifier, "verify_lower", spy)
    assert run(["verify", "dim2", "--t", "0", "--out", str(tmp_path)], capsys)[0] == 0
    assert seen == [1]


def test_verify_reports_are_append_only_and_deterministic(tmp_path, capsys):
    out = tmp_path / "reports"
    args = ["verify", "dim2", "--t", "0..1", "--workers", "1", "--out", str(out)]
    assert run(args, capsys)[0] == 0
    report = next(out.glob("verify-dim2-*.txt"))
    first = report.read_text()
    assert run(args, capsys)[0] == 0
    doubled = report.read_text()
    assert doubled == first + first


def test_verify_emit_fixtures(tmp_path, capsys):
    out = tmp_path / "reports"
    code, _, _ = run(
        [
            "verify", "dim2", "--t", "0..0", "--out", str(out),
            "--emit", "matrix", "--emit", "board", "--emit", "witness",
        ],
        capsys,
    )
    assert code == 0
    assert (out / "dim2-r3-t0.matrix.txt").read_text().startswith("3 6\n")
    assert (out / "dim2-r3-t0.board.txt").read_text().startswith("3 6\n")
    assert "travel=" in (out / "dim2-r3-t0.witness.txt").read_text()


def test_verify_failing_instance_exits_1_and_dumps_fixtures(tmp_path, capsys):
    # the even-dimension family genuinely fails at r = 7, t = 2; the CLI must
    # report it and leave a replayable fixture set behind
    out = tmp_path / "reports"
    code, stdout, _ = run(
        ["verify", "even-d", "--t", "2..2", "--r", "7..7", "--workers", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "even-d: fail" in stdout
    assert (out / "even-d-r7-t2.matrix.txt").exists()
    assert (out / "even-d-r7-t2.board.txt").exists()
    assert "ok=false" in (out / "even-d-r7-t2.witness.txt").read_text()


# The report blocks of two constructions whose classes run in several
# batches of the class-lane kernel (n = 35: 712 batches; n = 37), as written
# with batches of 4,096 classes: the batch width must not change a report.
LONG_BOX_REPORTS = {
    ("even-d", "9", "5"): (
        "seed: 0\n"
        "report: lomlab-verification-v1\n"
        "theorem: even-d\n"
        "param r: 9\n"
        "param t: 5\n"
        "instances_checked: 1\n"
        "min_interior_observed: 6\n"
        "required_bound: 6\n"
        "witness: r=9 t=5 n=35 observed=6 required=6 ok=true "
        "travel=1:1-2;2:2-3;3:3-4;4:4-5;5:5-6;6:6-7;7:7-28;8:28-30;9:30-35 "
        "flips=2,3,4,5,6,7,9,11,13,15,17,19,21,23,25,27,29,31,33,35 "
        "interior=29,31,32,33,34,35\n"
        "verdict: pass\n"
        "end: lomlab-verification-v1\n"
        "\n"
    ),
    ("general", "8", "5"): (
        "seed: 0\n"
        "report: lomlab-verification-v1\n"
        "theorem: general\n"
        "param r: 8\n"
        "param t: 5\n"
        "instances_checked: 1\n"
        "min_interior_observed: 7\n"
        "required_bound: 6\n"
        "witness: r=8 t=5 n=37 observed=7 required=6 ok=true "
        "travel=1:1-11;2:11-19;3:19-25;4:25-31;5:31-35;6:35-36;7:36-37;8:37-37 "
        "flips=11,12,13,14,15,16,17,18,25,26,27,28,29,30,35,37 "
        "interior=1,3,4,5,6,7,8\n"
        "verdict: pass\n"
        "end: lomlab-verification-v1\n"
        "\n"
    ),
}


@pytest.mark.parametrize("theorem, r, t", sorted(LONG_BOX_REPORTS))
def test_verify_long_boxes_match_the_pinned_reports(theorem, r, t, tmp_path, capsys):
    out = tmp_path / "reports"
    args = ["verify", theorem, "--r", r, "--t", t, "--workers", "1", "--out", str(out)]
    assert run(args, capsys)[0] == 0
    report = next(out.glob(f"verify-{theorem}-*.txt"))
    assert report.read_text() == LONG_BOX_REPORTS[theorem, r, t]


def test_verify_rank3_scan(tmp_path, capsys):
    code, stdout, _ = run(
        ["verify", "rank3-scan", "--n", "5..5", "--workers", "1", "--out", str(tmp_path / "r")],
        capsys,
    )
    assert code == 0
    assert "rank3-scan: pass" in stdout


def test_bounds_h0_column(capsys):
    code, stdout, _ = run(["bounds", "h0", "--d", "2", "--n", "5..9"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
    assert all(row[2] == "exact" and row[3] == "5" for row in rows)


def test_bounds_cyclic_single_query(capsys):
    code, stdout, _ = run(["bounds", "cyclic", "--d", "3", "--n", "6"], capsys)
    assert code == 0
    assert "\t8\t" in stdout


def test_bounds_h0_d1(capsys):
    code, stdout, _ = run(["bounds", "h0", "--d", "1", "--n", "3"], capsys)
    assert code == 0
    assert "exact\t2" in stdout


def test_bounds_writes_table_file(tmp_path, capsys):
    out = tmp_path / "table.tsv"
    code, stdout, _ = run(
        ["bounds", "hd1", "--d", "3..4", "--n", "7..8", "--out", str(out)], capsys
    )
    assert code == 0
    assert out.read_text() == stdout


def test_radon_maximize_line5(line5, tmp_path, capsys):
    code, stdout, _ = run(
        ["radon", str(line5), "maximize", "--out", str(tmp_path / "r")], capsys
    )
    assert code == 0
    assert "max = 5" in stdout
    assert "RBRBR" in stdout


def test_radon_count_square(square, tmp_path, capsys):
    code, stdout, _ = run(
        ["radon", str(square), "count", "--coloring", "RBBR", "--out", str(tmp_path / "r")],
        capsys,
    )
    assert code == 0
    assert "count = 1" in stdout


@pytest.mark.parametrize(
    "points, coloring",
    [
        # integer coordinates, d = 2
        ("7 2\n0 0\n5 1\n2 6\n-3 4\n-4 -2\n1 -5\n3 3\n", "RBBRBRB"),
        # fractional coordinates, d = 3
        ("6 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1/2 1/3 1/4\n-3/2 2/5 7/3\n", "RBBRRB"),
        # two-digit labels and 5-member subsets: the moment curve, d = 3
        ("12 3\n" + "".join(f"{t} {t * t} {t ** 3}\n" for t in range(-5, 7)), "RBBRBRRBRBBR"),
    ],
)
def test_radon_count_trace_lines_match_is_radon_pair(points, coloring, tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text(points)
    out = tmp_path / "r"
    code, _, _ = run(
        ["radon", str(path), "count", "--coloring", coloring, "--trace", "--out", str(out)],
        capsys,
    )
    assert code == 0
    config = PointConfig.from_text(points)
    color = Coloring.from_string(coloring)
    (report,) = out.glob("radon-count-*.txt")
    lines = report.read_text().splitlines()
    traced = [line for line in lines if line.startswith("subset ")]
    subsets = list(combinations(range(1, config.n + 1), config.dim + 2))
    assert len(traced) == len(subsets)
    for line, sub in zip(traced, subsets):
        hit = is_radon_pair(config, sub, color)
        assert line == f"subset {','.join(map(str, sub))}: {'induced' if hit else 'no'}"
    induced = sum(line.endswith(": induced") for line in traced)
    assert 0 < induced < len(subsets)
    assert f"count: {induced}" in lines


def test_radon_gale(square, tmp_path, capsys):
    code, stdout, _ = run(["radon", str(square), "gale", "--out", str(tmp_path / "r")], capsys)
    assert code == 0
    assert "dual_dim: 1" in stdout or "gale transform into dimension 1" in stdout


def test_matrix_inspect(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 3\n+-+\n+++\n")
    code, stdout, _ = run(["matrix", str(path)], capsys)
    assert code == 0
    assert "top travel: 1:1-2;2:2-3" in stdout
    assert "acyclic: yes" in stdout


def test_scan_smoke(tmp_path, capsys):
    code, stdout, _ = run(
        ["scan", "--r", "3", "--n", "6", "--budget", "10", "--out", str(tmp_path / "r")],
        capsys,
    )
    assert code == 0
    assert "exploration r=3 n=6" in stdout


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_rank3_scan_refuses_bad_range_before_scanning(tmp_path, capsys, monkeypatch):
    from lomlab import verifier

    def scan_chunk(args):
        raise AssertionError("a board was scanned before the whole range was checked")

    monkeypatch.setattr(verifier, "_scan_chunk", scan_chunk)
    out = tmp_path / "r"
    beyond = verifier.RANK3_MAX_N + 1
    code, _, stderr = run(
        ["verify", "rank3-scan", "--n", f"7..{beyond}", "--symmetry-prune", "--workers", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "usage error" in stderr and f"got {beyond}" in stderr
    assert not out.exists() or not any(out.iterdir())


def test_scan_exhaustive_refuses_n_outside_rank3_box(tmp_path, capsys):
    from lomlab.verifier import RANK3_MAX_N

    out = tmp_path / "r"
    code, _, stderr = run(
        ["scan", "--r", "3", "--n", str(RANK3_MAX_N + 1), "--exhaustive", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert f"5 <= n <= {RANK3_MAX_N}" in stderr
    assert not out.exists()


# (argv, exit code, stderr prefix): every error path ends in one stderr line
# from main and writes no report.  {tmp} is the directory holding INPUTS.
EXIT_CASES = [
    pytest.param(
        ["radon", "{tmp}/nope.txt", "maximize"], 3, "data error: no such file {tmp}/nope.txt\n",
        id="radon-missing-file",
    ),
    pytest.param(
        ["radon", "{tmp}", "maximize"], 3, "data error: {tmp}: Is a directory\n",
        id="radon-directory",
    ),
    pytest.param(
        ["radon", "{tmp}/no-points.txt", "maximize"], 3,
        "data error: header '0 2' needs n >= 1 and d >= 1", id="radon-no-points",
    ),
    pytest.param(
        ["radon", "{tmp}/collinear.txt", "maximize"], 3,
        "data error: points (1, 2, 3) are affinely dependent", id="radon-collinear",
    ),
    pytest.param(
        ["radon", "{tmp}/triangle.txt", "gale"], 3,
        "data error: need n >= d + 2 for a Gale transform", id="radon-gale-too-few-points",
    ),
    pytest.param(
        ["radon", "{tmp}/triangle.txt", "count", "--coloring", "RBR"], 3,
        "data error: need n >= d + 2 to count", id="radon-count-too-few-points",
    ),
    pytest.param(
        ["radon", "{tmp}/triangle.txt", "lift", "--coloring", "RBR"], 3,
        "data error: need n >= d + 2 to count", id="radon-lift-too-few-points",
    ),
    pytest.param(
        ["radon", "{tmp}/triangle.txt", "lift"], 3,
        "data error: need n >= d + 2 to maximize", id="radon-lift-uncolored-too-few-points",
    ),
    pytest.param(
        ["radon", "{tmp}/triangle.txt", "maximize"], 3,
        "data error: need n >= d + 2 to maximize", id="radon-maximize-too-few-points",
    ),
    pytest.param(
        ["radon", "{tmp}/line5.txt", "lift"], 1, "lift not applicable: ", id="radon-lift-line5"
    ),
    pytest.param(
        ["radon", "{tmp}/square.txt", "count"], 2, "usage error: count needs --coloring\n",
        id="radon-count-needs-coloring",
    ),
    pytest.param(
        ["radon", "{tmp}/square.txt", "count", "--coloring", "RBR"], 2,
        "usage error: coloring length must match", id="radon-coloring-length",
    ),
    pytest.param(
        ["radon", "{tmp}/line23.txt", "maximize"], 2,
        "usage error: exhaustive search is capped at 22 points", id="radon-maximize-n23",
    ),
    pytest.param(["matrix", "{tmp}"], 3, "data error: {tmp}: Is a directory\n", id="matrix-directory"),
    pytest.param(["matrix", "{tmp}/bad-m.txt"], 3, "data error: bad row", id="matrix-bad-file"),
    pytest.param(
        ["matrix", "{tmp}/m.txt", "--reorient", "9"], 2, "usage error: column 9 outside [1, 3]\n",
        id="matrix-reorient-9",
    ),
    pytest.param(
        ["matrix", "{tmp}/m.txt", "--reorient", "x"], 2, "usage error: invalid literal for int()",
        id="matrix-reorient-x",
    ),
    pytest.param(
        ["verify", "dim2", "--t=-1..0"], 2, "usage error: dim2 construction requires t >= 0\n",
        id="verify-negative-t",
    ),
    pytest.param(
        ["verify", "dim2", "--t", "0", "--workers", "0"], 2,
        "usage error: --workers must be >= 1, got 0\n", id="verify-workers-0",
    ),
    pytest.param(
        ["verify", "dim2", "--t", "0", "--workers", "-2"], 2,
        "usage error: --workers must be >= 1, got -2\n", id="verify-workers-negative",
    ),
    pytest.param(
        ["scan", "--r", "3", "--n", "6", "--budget", "-1"], 2,
        "usage error: budget must be >= 0, got -1\n", id="scan-negative-budget",
    ),
]


@pytest.mark.parametrize("argv, code, prefix", EXIT_CASES)
def test_error_exit_codes(argv, code, prefix, tmp_path, capsys):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] != "matrix":
        argv += ["--out", str(out)]
    got, stdout, stderr = run(argv, capsys)
    assert (got, stdout) == (code, "")
    assert stderr.startswith(prefix.format(tmp=tmp_path))
    assert stderr.count("\n") == 1
    assert not out.exists()
