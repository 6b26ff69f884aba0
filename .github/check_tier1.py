"""Run the tier-1 suite and check that it fails exactly where expected.

The one known failure is the even-dimension counterexample at r = 7, which
stays red on purpose.  The check fails unless the failed (and errored) set
is exactly that test, and unless no test is xfailed or xpassed; the suite
runs with no deselection beyond the `slow` marker in pyproject.toml, so
the known failure cannot pass by being skipped.

Run from the repository root:

    python .github/check_tier1.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = {"tests/test_acceptance.py::test_criterion_05_even_dimension_family"}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(run.stdout + run.stderr)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE))
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    problems = []
    if failed != EXPECTED:
        problems.append(f"failed set {sorted(failed)} != {sorted(EXPECTED)}")
    if re.search(r"\bx(failed|passed)\b", summary):
        problems.append(f"xfail outcomes in {summary!r}")
    for problem in problems:
        print(f"tier-1 check: {problem}")
    if not problems:
        print("tier-1 check: ok, the only failure is the known even-dimension counterexample")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
