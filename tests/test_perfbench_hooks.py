"""The benchmark's tracer patches lomlab names by getattr, so a name it
wraps that disappears from the program would only crash the benchmark.
This test installs it on the program as it is and removes it again."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from lomlab import cli, galerad, travels, verifier
from lomlab.chessboard import canonical_matrix, corners_for

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_removes():
    owners = (cli, verifier, galerad, galerad.PointConfig)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_spans().Tracer(
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
