"""Workload definitions and input generation for the lomlab benchmark.

Run as a script, this is the set-up step whose wall time the benchmark
reports as ``setup_s``: a fresh interpreter imports ``lomlab.cli`` and writes
one workload's input files (for ``radon``, its two point files) into a work
directory.

    python3 perfbench/inputs.py --workload radon --seed 3 --workdir DIR

Every input is derived from the seed.  The verify workloads scan fixed
theorem boxes, so there the seed only reaches the program as its own
``--seed`` flag.  The ``radon`` point files come from a pool of
``RADON_POOL`` seeded configurations, ``seed % RADON_POOL`` picking one, so
that every configuration has a stored expected report (``golden.json``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

WORKLOADS = ("rank3-scan", "families", "radon")
RADON_POOL = 32
# (d, n) of the two point files of the radon workload
RADON_SHAPES = ((2, 13), (3, 11))

# n = 7, not 8: an n = 8 pass takes 11-18 s on a shared two-CPU machine,
# too few samples per run for a steady figure (see README.md)
RANK3_JOBS = (
    ["verify", "rank3-scan", "--n", "7"],
    ["verify", "rank3-scan", "--n", "7", "--symmetry-prune"],
)
FAMILY_JOBS = (
    ["verify", "dim2", "--t", "0..6"],
    ["verify", "dim3", "--t", "0..4"],
    ["verify", "t1", "--r", "5..7"],
    ["verify", "general", "--r", "5..6", "--t", "2..3"],
    # the CLI takes ranges, not lists, so r = 5 and r = 7 are two jobs;
    # r = 7 is the known counterexample and exits 1
    ["verify", "even-d", "--r", "5", "--t", "2"],
    ["verify", "even-d", "--r", "7", "--t", "2"],
    ["verify", "counterexamples"],
)


def points_name(d: int, n: int) -> str:
    return f"points-d{d}-n{n}.txt"


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss elimination."""
    mat = [row[:] for row in rows]
    size = len(mat)
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1]


def radon_points(d: int, n: int, index: int) -> str:
    """Point file text of pool entry `index`: n integer points in general
    position in dimension d, coordinates in [-8n, 8n]."""
    rng = random.Random(f"lomlab-radon-d{d}-n{n}-{index}")
    bound = 8 * n
    while True:
        points = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
        if all(
            _det([[1] + points[i] for i in subset]) != 0
            for subset in combinations(range(n), d + 1)
        ):
            break
    lines = [f"{n} {d}"] + [" ".join(map(str, p)) for p in points]
    return "\n".join(lines) + "\n"


def radon_argvs(d: int, n: int, witness: str, lifting: str) -> list[list[str]]:
    """The four jobs on one point file.  `witness` is the maximizing
    coloring the reference commit reports for it; `lifting` is a coloring
    of it that does lift (see make_golden.lifting_coloring), so that both
    outcomes of `lift` are run and checked."""
    name = points_name(d, n)
    return [
        ["radon", name, "maximize"],
        ["radon", name, "count", "--coloring", witness, "--trace"],
        ["radon", name, "lift", "--coloring", witness],
        ["radon", name, "lift", "--coloring", lifting],
    ]


def job(workload: str, argv: list[str], seed: int) -> dict:
    """A job's full argv and the key of its expected outcome in golden.json
    (radon keys name the pool entry, since the point file text varies)."""
    key = " ".join(argv)
    if workload == "radon":
        key += f" #pool {seed % RADON_POOL}"
    if argv[0] == "verify":
        argv = argv + ["--workers", "1"]
    return {"argv": argv + ["--seed", str(seed)], "key": key}


def jobs_for(workload: str, seed: int, golden: dict) -> list[dict]:
    """The workload's jobs in run order."""
    if workload == "rank3-scan":
        specs = list(RANK3_JOBS)
    elif workload == "families":
        specs = list(FAMILY_JOBS)
    else:
        specs = []
        for d, n in RADON_SHAPES:
            entry = golden["radon"][f"d{d}-n{n}"][seed % RADON_POOL]
            specs += radon_argvs(d, n, entry["witness"], entry["lifting"])
    return [job(workload, argv, seed) for argv in specs]


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "radon":
        for d, n in RADON_SHAPES:
            text = radon_points(d, n, seed % RADON_POOL)
            (workdir / points_name(d, n)).write_text(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import lomlab.cli  # noqa: F401  (import cost is part of set-up)

    write_inputs(args.workload, args.seed, args.workdir)
    # the parent reads this clock (system-wide CLOCK_MONOTONIC) to time the
    # set-up without its own wake-up delay after the child exits
    print(time.perf_counter())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
