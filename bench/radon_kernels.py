"""Time the radon engine's two exact kernels in-process on the benchmark pool.

The inputs are the ``radon`` workload's pool (``perfbench/inputs.py``): for
each of the ``RADON_POOL`` entries and each shape (d, n), the seeded point
file and the lifting colouring that ``perfbench/golden.json`` stores for it.

* ``galerad._packed_minors`` on the lifted rows (1, x) of the pool
  configuration (``source: input``) and of the configuration that
  ``lift_unbalanced`` builds from the lifting colouring (``source: lifted``);
* ``exactlp.separating_functional`` on each entry's lift program: the signed
  rays of the lifting colouring and the point that ``lift_unbalanced`` makes
  the single red one.

Every call runs once untimed (so per-width tables are built first) and then
``REPEATS`` times.  One JSON line per kernel and shape goes to stdout, with
the median and the best time of one call in microseconds over all entries
and repeats; nothing is written.

Run from the repository root:

    python bench/radon_kernels.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from lomlab.exactlp import separating_functional  # noqa: E402
from lomlab.galerad import (  # noqa: E402
    Coloring,
    PointConfig,
    _lifted_rows,
    _packed_minors,
    affine_projection,
    lift_unbalanced,
)

REPEATS = 5


def timings(call, args: list[tuple]) -> list[float]:
    """Seconds per call of call(*a) for every a in args, REPEATS each,
    after one untimed call."""
    samples = []
    for a in args:
        call(*a)
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call(*a)
            samples.append(time.perf_counter() - t0)
    return samples


def line(kernel: str, d: int, n: int, samples: list[float], **extra) -> str:
    return json.dumps(
        {
            "kernel": kernel,
            "d": d,
            "n": n,
            **extra,
            "calls": len(samples),
            "median_us": round(statistics.median(samples) * 1e6, 1),
            "best_us": round(min(samples) * 1e6, 1),
        }
    )


def main() -> None:
    golden = inputs.load_golden()
    for d, n in inputs.RADON_SHAPES:
        inputs_rows, lifted_rows, programs = [], [], []
        for index in range(inputs.RADON_POOL):
            config = PointConfig.from_text(inputs.radon_points(d, n, index))
            lifting = Coloring.from_string(golden["radon"][f"d{d}-n{n}"][index]["lifting"])
            lifted, single = lift_unbalanced(config, lifting)
            inputs_rows.append((_lifted_rows(config.points),))
            lifted_rows.append((_lifted_rows(lifted.points),))
            programs.append((affine_projection(config, lifting), min(single.red) - 1))
        for source, args in (("input", inputs_rows), ("lifted", lifted_rows)):
            samples = timings(_packed_minors, args)
            print(line("galerad._packed_minors", d, n, samples, source=source))
        samples = timings(separating_functional, programs)
        print(line("exactlp.separating_functional", d, n, samples))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
