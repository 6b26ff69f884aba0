"""lomlab benchmark: closed-loop passes over public CLI jobs, in-process.

    python3 perfbench/run.py --workload rank3-scan --seed 1 --seconds 40 --trace 0

Run from the root of a lomlab checkout; the program is imported from
``src/``.  One pass runs the workload's jobs one after another through
``lomlab.cli.main(argv)`` with ``--workers 1``; passes repeat until the next
one would overrun ``--seconds``.  Every job's exit code and appended report
block must equal the reference commit's (``golden.json``), and every verify
witness is replayed through the test suite's circuit-sign oracle.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed.
The last line of standard output is one JSON object; the lines before it
are a human-readable summary.  Work files go to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from probe import REFERENCE_S, probe_seconds  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
# set-ups timed before the first pass; one more is timed after every pass,
# so that the samples span the run as the passes do
SETUP_REPEATS = 3
REPORT_PREFIXES = ("verify-", "radon-")


class Lomlab:
    """The program's modules, imported from the checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(1, str(ROOT / "tests"))
        import lomlab.chessboard
        import lomlab.cli
        import lomlab.galerad
        import lomlab.sign_matrix
        import lomlab.travels
        import lomlab.verifier
        import oracles

        self.chessboard = lomlab.chessboard
        self.cli = lomlab.cli
        self.galerad = lomlab.galerad
        self.sign_matrix = lomlab.sign_matrix
        self.travels = lomlab.travels
        self.verifier = lomlab.verifier
        self.oracles = oracles


# ---------------------------------------------------------------------------
# Set-up, machine record.


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(seconds, probe seconds) of one set-up: from starting a fresh
    interpreter to the end of its set-up, importing lomlab.cli and writing
    the input files.  The probe is timed just before it, as before every
    job, and the set-up is scaled by it as a pass is."""
    cmd = [
        sys.executable, str(HERE / "inputs.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
    ]
    probe = probe_seconds()
    start = time.perf_counter()
    child = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
    return float(child.stdout.split()[-1]) - start, probe


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lomlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Passes.


def report_sizes(out: Path) -> dict[str, int]:
    if not out.is_dir():
        return {}
    return {
        p.name: p.stat().st_size
        for p in out.iterdir()
        if p.name.startswith(REPORT_PREFIXES)
    }


def run_job(lom: Lomlab, argv: list[str], out: Path) -> tuple[int, bytes, float]:
    """(exit code, bytes appended to report files, seconds in cli.main)."""
    before = report_sizes(out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        rc = lom.cli.main(list(argv))
        seconds = time.perf_counter() - start
    block = b""
    for name, size in sorted(report_sizes(out).items()):
        if size != before.get(name, 0):
            with open(out / name, "rb") as fh:
                fh.seek(before.get(name, 0))
                block += fh.read()
    return rc, block, seconds


def run_pass(lom: Lomlab, jobs: list[dict], tracer: Tracer | None) -> dict:
    gc.collect()
    if tracer is not None:
        tracer.install()
    probes, results = [], []
    try:
        for job in jobs:
            probes.append(probe_seconds())
            results.append(run_job(lom, job["argv"], Path("reports")))
    finally:
        if tracer is not None:
            tracer.remove()
    seconds = sum(r[2] for r in results)
    summary = {
        "traced": tracer is not None,
        "seconds": seconds,
        # the pass at the reference machine speed, measured around its jobs
        "scaled": seconds * REFERENCE_S / statistics.fmean(probes),
        "probes": probes,
        "results": results,
    }
    if tracer is not None:
        tracer.counts["cli.report_bytes"] += sum(len(r[1]) for r in results)
        inclusive, self_time, covered = tracer.layer_times()
        summary.update(
            inclusive=inclusive,
            self=self_time,
            counts=dict(tracer.counts),
            uncovered=1.0 - covered / seconds,
        )
    return summary


def run_passes(lom: Lomlab, jobs: list[dict], seconds: float, trace: bool,
               after_pass) -> tuple[list[dict], Tracer | None]:
    """Closed loop: one pass after another, each followed by `after_pass()`,
    until the next would overrun `seconds`.  Traced runs alternate untraced
    and traced passes, at least two of each, so both kinds are measured
    under the same conditions."""
    passes: list[dict] = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        tracer = None
        if trace and index % 2 == 1:
            tracer = last_tracer = Tracer(lom)
        begun = time.perf_counter()
        passes.append(run_pass(lom, jobs, tracer))
        after_pass()
        passes[-1]["wall"] = time.perf_counter() - begun
        if trace and len(passes) < 4:
            continue
        typical = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    return passes, last_tracer


# ---------------------------------------------------------------------------
# Correctness.


def check_run(lom: Lomlab, workload: str, seed: int, jobs: list[dict], passes: list[dict],
              golden: dict, log: list[str]) -> int:
    """Number of failed jobs over all passes."""
    bad_jobs: set[tuple[int, int]] = set()
    for p_index, p in enumerate(passes):
        for j_index, (job, (rc, block, _)) in enumerate(zip(jobs, p["results"])):
            expected = golden["jobs"].get(job["key"])
            if expected is None or not checks.matches_golden(rc, block, seed, expected):
                bad_jobs.add((p_index, j_index))
                log.append(f"MISMATCH pass {p_index} job {' '.join(job['argv'])}: exit {rc}, "
                           f"{len(block)} report bytes")
        if workload == "rank3-scan":
            unpruned, pruned = (r[1].decode() for r in p["results"])
            if not checks.rank3_agreement(unpruned, pruned):
                bad_jobs.add((p_index, 1))
                log.append(f"DISAGREE pass {p_index}: pruned and unpruned rank3 reports")
    # every pass appends the same blocks, so the first pass's witnesses are
    # the ones to replay
    replayed = 0
    for j_index, (job, (_, block, _)) in enumerate(zip(jobs, passes[0]["results"])):
        if job["argv"][0] != "verify":
            continue
        count, mismatched = checks.replay_witnesses(lom, lom.oracles, block.decode())
        replayed += count
        if mismatched:
            bad_jobs.add((0, j_index))
            log.append(f"REPLAY {mismatched} witness(es) of {' '.join(job['argv'])} disagree "
                       "with the circuit-sign oracle")
    log.append(f"witnesses replayed through the oracle: {replayed}")
    return len(bad_jobs)


def check_inputs(workload: str, seed: int, workdir: Path, golden: dict, log: list[str]) -> bool:
    if workload != "radon":
        return True
    ok = True
    for d, n in inputs.RADON_SHAPES:
        text = (workdir / inputs.points_name(d, n)).read_bytes()
        entry = golden["radon"][f"d{d}-n{n}"][seed % inputs.RADON_POOL]
        if hashlib.sha256(text).hexdigest() != entry["points_sha256"]:
            log.append(f"INPUT {inputs.points_name(d, n)} differs from the golden pool entry")
            ok = False
    return ok


def check_counts(workload: str, seed: int, traced: list[dict], log: list[str]) -> bool:
    """Deterministic counts must repeat across the traced passes of this run
    and across runs of the same source, workload and seed."""
    ok = all(p["counts"] == traced[0]["counts"] for p in traced)
    if not ok:
        log.append("COUNTS differ between traced passes of this run")
    record = WORK / "counts" / f"{workload}-s{seed}-{source_digest()}.json"
    counts = {k: v for k, v in sorted(traced[0]["counts"].items())}
    if record.is_file():
        if json.loads(record.read_text()) != counts:
            log.append(f"COUNTS differ from the earlier run recorded in {record.relative_to(ROOT)}")
            ok = False
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, indent=1) + "\n")
    return ok


# ---------------------------------------------------------------------------
# Main.


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "lomlab" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from the root "
                  "of a lomlab checkout", file=sys.stderr)
            return 2

    machine = machine_record()
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    # the first set-up may compile bytecode, so it is not counted; later
    # ones rewrite the same inputs
    time_setup(args.workload, args.seed, workdir)
    setups = [time_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]

    lom = Lomlab()
    golden = inputs.load_golden()
    jobs = inputs.jobs_for(args.workload, args.seed, golden)
    log: list[str] = []
    inputs_ok = check_inputs(args.workload, args.seed, workdir, golden, log)

    os.chdir(workdir)
    passes, tracer = run_passes(
        lom, jobs, args.seconds, bool(args.trace),
        lambda: setups.append(time_setup(args.workload, args.seed, workdir)),
    )
    os.chdir(ROOT)
    setup_times = [t for t, _ in setups]
    setup_scaled = [t * REFERENCE_S / probe for t, probe in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = check_run(lom, args.workload, args.seed, jobs, passes, golden, log)
    if not inputs_ok:
        failed = len(jobs) * len(passes)
    attempted = len(jobs) * len(passes)
    untraced = [p for p in passes if not p["traced"]]
    verdict_s = statistics.median(p["scaled"] for p in untraced)
    work = sum(golden["jobs"][j["key"]]["work"] for j in jobs if j["key"] in golden["jobs"])
    correct = failed == 0

    machine["loadavg_end"] = list(os.getloadavg())
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             "machine " + json.dumps(machine)]
    for key in ("seconds", "scaled"):
        values = [p[key] for p in untraced]
        q1, q3 = quartiles(values)
        lines.append(f"untraced pass {key}: median {statistics.median(values):.4f} q1 {q1:.4f} "
                     f"q3 {q3:.4f} samples {len(values)}")
    for key, values in (("seconds", setup_times), ("scaled", setup_scaled)):
        q1, q3 = quartiles(values)
        lines.append(f"setup {key}: median {statistics.median(values):.4f} q1 {q1:.4f} "
                     f"q3 {q3:.4f} samples {len(values)}")
    lines.append(f"jobs attempted {attempted} failed {failed} failed_frac {failed / attempted:.4f}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        correct = check_counts(args.workload, args.seed, traced, log) and correct
        metrics = layer_metrics(traced)
        traced_s = statistics.median(p["scaled"] for p in traced)
        metrics["trace.overhead_s"] = (traced_s - verdict_s, "s")
        metrics["trace.uncovered_frac"] = (statistics.median(p["uncovered"] for p in traced), "ratio")
        lines.append(f"traced pass scaled: median {traced_s:.4f} samples {len(traced)}; "
                     f"tracing overhead {traced_s - verdict_s:+.4f} s")
        tracer.write(workdir / "spans.tsv")
        lines.append(f"spans of the last traced pass: {workdir.relative_to(ROOT)}/spans.tsv")
    else:
        metrics = {
            "verdict_s": (verdict_s, "s"),
            "work_rate": (work / verdict_s, "1/s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    lines.extend(log)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {
        "setups": setups,
        "passes": [{k: p[k] for k in ("traced", "seconds", "scaled", "probes")} for p in passes],
    }
    (workdir / "run.json").write_text(
        json.dumps({"machine": machine, "log": log, **result, "samples": samples}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
