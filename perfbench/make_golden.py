"""Write golden.json: the expected exit code and report block of every job.

Run from the root of a checkout of the reference commit:

    python3 perfbench/make_golden.py

Blocks are stored as a SHA-256 of their text with the ``seed:`` line
normalized (see checks.normalized_digest), together with the work each job
does: boards evaluated (rank3-scan), reorientation classes scanned
(families) and (d+2)-subset partition tests (radon).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from math import comb
from pathlib import Path

import checks
import inputs
from run import ROOT, WORK, Lomlab, run_job


def verify_work(lom: Lomlab, block: str) -> int:
    work = 0
    for lines in checks.report_blocks(block):
        fields = checks.block_fields(lines)
        if fields["theorem"] == "rank3-scan":
            work += int(fields["param evaluated"])
        elif fields["theorem"].startswith("counterexample-"):
            work += int(fields["instances_checked"])
        else:
            for line in lines:
                if line.startswith("witness: "):
                    params = checks.parse_witness(line)["params"]
                    # the plain travels plus the one-segment shape
                    work += lom.travels.count_plain_travels(int(params["r"]), int(params["n"])) + 1
    return work


def radon_work(d: int, n: int, mode: str, rc: int) -> int:
    subsets = comb(n, d + 2)
    if mode == "maximize":
        return subsets << (n - 1)
    if mode == "count":  # the count plus the --trace listing
        return 2 * subsets
    return 2 * subsets if rc == 0 else subsets  # lift: counts before and after


def lifting_coloring(lom: Lomlab, d: int, n: int, index: int, text: str) -> str:
    """The first coloring with n // 3 red points, in a seeded order, that
    `lift` accepts.  The maximizing coloring never lifts on the pool, so
    this one makes the benchmark run and check the exact-simplex success
    path too."""
    galerad = lom.galerad
    config = galerad.PointConfig.from_text(text)
    rng = random.Random(f"lomlab-lift-d{d}-n{n}-{index}")
    while True:
        reds = set(rng.sample(range(n), n // 3))
        coloring = "".join("R" if i in reds else "B" for i in range(n))
        try:
            galerad.lift_unbalanced(config, galerad.Coloring.from_string(coloring))
        except galerad.LiftSeparationError:
            continue
        return coloring


def record(lom: Lomlab, jobs: dict, job: dict, seed: int, work_of) -> bytes:
    rc, block, _ = run_job(lom, job["argv"], Path("reports"))
    jobs[job["key"]] = {
        "rc": rc,
        "sha256": checks.normalized_digest(block, seed),
        "work": work_of(rc, block),
    }
    return block


def main() -> int:
    lom = Lomlab()
    workdir = WORK / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    golden: dict = {"jobs": {}, "radon": {}}
    for workload, specs in (("rank3-scan", inputs.RANK3_JOBS), ("families", inputs.FAMILY_JOBS)):
        for argv in specs:
            record(lom, golden["jobs"], inputs.job(workload, argv, 0), 0,
                   lambda rc, block: verify_work(lom, block.decode()))
    for d, n in inputs.RADON_SHAPES:
        entries = golden["radon"][f"d{d}-n{n}"] = []
        name = inputs.points_name(d, n)
        for index in range(inputs.RADON_POOL):
            text = inputs.radon_points(d, n, index)
            (workdir / name).write_text(text)
            # pool entry `index` is what seed `index` selects
            maximize = inputs.radon_argvs(d, n, "-", "-")[0]
            block = record(lom, golden["jobs"], inputs.job("radon", maximize, index), index,
                           lambda rc, _: radon_work(d, n, "maximize", rc))
            witness = next(line.split()[1] for line in block.decode().splitlines()
                           if line.startswith("witness: "))
            lifting = lifting_coloring(lom, d, n, index, text)
            entries.append({
                "points_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "witness": witness,
                "lifting": lifting,
            })
            for argv in inputs.radon_argvs(d, n, witness, lifting)[1:]:
                record(lom, golden["jobs"], inputs.job("radon", argv, index), index,
                       lambda rc, _, mode=argv[2]: radon_work(d, n, mode, rc))
        print(f"radon d={d} n={n}: {inputs.RADON_POOL} pool entries")
    os.chdir(ROOT)
    path = inputs.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(golden['jobs'])} jobs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
