"""Layer spans recorded from outside the program.

The tracer replaces public lomlab functions, where their consumer modules
bind them, with wrappers that record one span per call: name, start, end
and the index of the enclosing span.  Spans stay in memory and are written
out once, at the end of the run.  Deterministic counts (calls, scanned
classes, subset tests, determinants) are kept next to the spans.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from math import comb
from time import perf_counter

# span names whose self time is reported
SELF_TIMED = (
    "cli.main",
    "verifier.exhaustive_rank3_scan",
    "verifier.verify_lower",
    "verifier.reproduce_counterexample",
)
# spans below the entry points; the share of job time outside all of them
# is reported as trace.uncovered_frac
KERNEL_SPANS = (
    "travels.min_interior",
    "travels.interior_elements",
    "travels.reorientation_for_pt",
    "travels.enumerate_plain_travels",
    "sign_matrix.reorient",
    "chessboard.canonical_matrix",
    "galerad.PointConfig",
    "galerad.max_r",
    "galerad.count_induced",
    "galerad.is_radon_pair",
    "galerad.lift_unbalanced",
    "exactlp.separating_functional",
)
# counts reported as they are; cli.report_bytes is counted by the harness
PLAIN_COUNTS = (
    "galerad.max_r.tests",
    "galerad.dets",
    "exactlp.separating_functional.feasible",
    "cli.report_bytes",
)


class Tracer:
    """Installs span-recording wrappers into the lomlab modules."""

    def __init__(self, modules):
        self.m = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)

    def _wrap(self, name: str, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per step of the generator, so the spans nest inside the
        caller's loop; `calls` counts the generators made."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return steps()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- per-layer counts ----------------------------------------------------

    def _after_min_interior(self, result, matrix, include_trivial=True):
        # a full scan visits the plain travels plus the one-segment shape
        classes = self.m.travels.count_plain_travels(matrix.r, matrix.n) + 1
        self.counts["travels.min_interior.classes_max"] += classes - (not include_trivial)
        self.counts["travels.min_interior.zeros"] += result[0] == 0

    def _after_point_config(self, _result, config):
        self.counts["galerad.dets"] += comb(config.n, config.dim + 1)

    def _after_max_r(self, _result, config):
        subsets = comb(config.n, config.dim + 2)
        self.counts["galerad.max_r.tests"] += subsets << (config.n - 1)
        self.counts["galerad.dets"] += subsets * (config.dim + 2)

    def _after_is_radon_pair(self, _result, config, *_rest):
        self.counts["galerad.dets"] += config.dim + 2

    def _after_separating(self, result, *_args):
        self.counts["exactlp.separating_functional.feasible"] += result is not None

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        m = self.m
        verifier, galerad, cli = m.verifier, m.galerad, m.cli
        wrap = self._wrap
        self._patch(cli, "main", wrap("cli.main", cli.main))
        for attr in ("exhaustive_rank3_scan", "verify_lower", "reproduce_counterexample"):
            self._patch(verifier, attr, wrap(f"verifier.{attr}", getattr(verifier, attr)))
        self._patch(
            verifier,
            "min_interior",
            wrap("travels.min_interior", verifier.min_interior, self._after_min_interior),
        )
        for attr in ("interior_elements", "reorientation_for_pt"):
            self._patch(verifier, attr, wrap(f"travels.{attr}", getattr(verifier, attr)))
        self._patch(
            verifier,
            "enumerate_plain_travels",
            self._wrap_generator("travels.enumerate_plain_travels", verifier.enumerate_plain_travels),
        )
        self._patch(verifier, "reorient", wrap("sign_matrix.reorient", verifier.reorient))
        self._patch(
            verifier, "canonical_matrix", wrap("chessboard.canonical_matrix", verifier.canonical_matrix)
        )
        # the dataclass __init__ looks __post_init__ up on the class, so this
        # times the general-position check of every PointConfig built
        self._patch(
            galerad.PointConfig,
            "__post_init__",
            wrap("galerad.PointConfig", galerad.PointConfig.__post_init__, self._after_point_config),
        )
        self._patch(galerad, "max_r", wrap("galerad.max_r", galerad.max_r, self._after_max_r))
        self._patch(galerad, "count_induced", wrap("galerad.count_induced", galerad.count_induced))
        self._patch(
            galerad,
            "is_radon_pair",
            wrap("galerad.is_radon_pair", galerad.is_radon_pair, self._after_is_radon_pair),
        )
        self._patch(galerad, "lift_unbalanced", wrap("galerad.lift_unbalanced", galerad.lift_unbalanced))
        self._patch(
            galerad,
            "separating_functional",
            wrap("exactlp.separating_functional", galerad.separating_functional, self._after_separating),
        )

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(inclusive seconds per name, self seconds per name, seconds inside
        outermost kernel spans)."""
        inclusive: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        kernel = set(KERNEL_SPANS)
        covered = 0.0
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
            if name in kernel and (parent < 0 or self.spans[parent][0] not in kernel):
                covered += end - start
        return inclusive, self_time, covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the summaries of several traced passes: times
    are medians over the passes, counts come from the last pass (the caller
    checks that they repeat)."""
    last = passes[-1]
    counts = last["counts"]
    out: dict[str, tuple[float, str]] = {}

    def median_of(key: str, name: str) -> float:
        return statistics.median(p[key].get(name, 0.0) for p in passes)

    for name in KERNEL_SPANS:
        out[f"{name}.s"] = (median_of("inclusive", name), "s")
        out[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
    calls = counts.get("travels.min_interior.calls", 0)
    out["travels.min_interior.classes_max"] = (counts.get("travels.min_interior.classes_max", 0), "count")
    out["travels.min_interior.zero_frac"] = (
        counts.get("travels.min_interior.zeros", 0) / calls if calls else 0.0,
        "ratio",
    )
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (median_of("self", name), "s")
    for name in PLAIN_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    return out
