"""Command-line front end.

Subcommands: verify, bounds, radon, matrix, scan.  Exit codes: 0 pass,
1 a check found a violating instance, 2 usage error, 3 bad input data.
The handlers raise and ``main`` alone maps what they raise to an exit code
and a one-line message on stderr; internal invariants (AssertionError,
ArithmeticError) stay tracebacks.
Reports append to files named by subcommand and parameter hash so long runs
stay diffable; identical invocations (including seed) append byte-identical
blocks.  Wall time goes to stdout only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from itertools import combinations, repeat
from operator import add
from pathlib import Path

from .chessboard import THEOREM_IDS, board_of, canonical_matrix, corners_for
from .sign_matrix import MatrixFormatError, SignMatrix, reorient

USAGE_ERROR = 2
DATA_ERROR = 3

VERIFY_IDS = THEOREM_IDS + ("counterexamples", "rank3-scan")


def _parse_range(text: str) -> list[int]:
    """'0..4' -> [0, 1, 2, 3, 4]; '3' -> [3]."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _range_arg(text: str) -> list[int]:
    try:
        return _parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process:
    parsing never changes it, and building it costs more than a small run."""
    parser = argparse.ArgumentParser(
        prog="lomlab",
        description="Lawrence oriented matroid workbench: travel scans, bound tables, Radon experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification engine")
    p_verify.add_argument("theorem", choices=VERIFY_IDS)
    p_verify.add_argument("--t", type=_range_arg, default=None, help="t range, e.g. 0..4")
    p_verify.add_argument("--r", type=_range_arg, default=None, help="r range, e.g. 5..6")
    p_verify.add_argument("--n", type=_range_arg, default=None, help="n range (rank3-scan)")
    p_verify.add_argument("--workers", type=int, default=None, help="default: available CPUs")
    p_verify.add_argument("--out", type=Path, default=Path("reports"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--symmetry-prune", action="store_true")
    p_verify.add_argument(
        "--emit",
        choices=("matrix", "board", "witness"),
        action="append",
        default=[],
        help="dump instance fixtures next to the report",
    )

    p_bounds = sub.add_parser("bounds", help="emit bound tables")
    p_bounds.add_argument("table", choices=("h0", "hd1", "r", "cyclic", "stacked"))
    p_bounds.add_argument("--d", type=_range_arg, required=True)
    p_bounds.add_argument("--n", type=_range_arg, required=True)
    p_bounds.add_argument("--out", type=Path, default=None, help="also write the table here")

    p_radon = sub.add_parser("radon", help="Radon partition experiments on a point file")
    p_radon.add_argument("points", type=Path)
    p_radon.add_argument("mode", choices=("count", "maximize", "lift", "gale"))
    p_radon.add_argument("--coloring", default=None, help="R/B string (count, lift)")
    p_radon.add_argument("--out", type=Path, default=Path("reports"))
    p_radon.add_argument("--seed", type=int, default=0)
    p_radon.add_argument("--trace", action="store_true", help="per-subset trace (count)")

    p_matrix = sub.add_parser("matrix", help="inspect a matrix file")
    p_matrix.add_argument("matrix", type=Path)
    p_matrix.add_argument("--reorient", default=None, help="comma list of columns to flip first")

    p_scan = sub.add_parser("scan", help="search boards maximizing min interior count")
    p_scan.add_argument("--r", type=int, required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--budget", type=int, default=0)
    p_scan.add_argument("--exhaustive", action="store_true")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", type=Path, default=Path("reports"))
    return parser


def _param_hash(parts: list[str]) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _append_report(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("a", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return path


def _emit_fixtures(args, report, out_dir: Path) -> None:
    if args.theorem not in THEOREM_IDS:
        return
    for witness in report.witnesses:
        # a failed instance always dumps its fixtures: the report plus these
        # files replay the offending travel exactly
        wanted = set(args.emit) if witness.ok else {"matrix", "board", "witness"}
        if not wanted:
            continue
        params = dict(witness.params)
        board = corners_for(args.theorem, params["r"], params["t"])
        matrix = canonical_matrix(board)
        stem = f"{args.theorem}-r{params['r']}-t{params['t']}"
        if "matrix" in wanted:
            (out_dir / f"{stem}.matrix.txt").write_text(matrix.to_text())
        if "board" in wanted:
            (out_dir / f"{stem}.board.txt").write_text(board.to_text())
        if "witness" in wanted:
            (out_dir / f"{stem}.witness.txt").write_text(witness.to_line() + "\n")


def _cmd_verify(args) -> int:
    from . import verifier

    workers = verifier.available_cpus() if args.workers is None else args.workers
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    reports: list[verifier.VerificationReport] = []
    hash_parts = ["verify", args.theorem, str(args.t), str(args.r), str(args.n), str(args.seed)]
    if args.theorem in THEOREM_IDS:
        reports.append(verifier.verify_lower(args.theorem, args.t, args.r, workers=workers))
    elif args.theorem == "counterexamples":
        for which in sorted(verifier.COUNTEREXAMPLES):
            reports.append(verifier.reproduce_counterexample(which))
    else:
        ns = args.n or [5]
        for n in ns:
            verifier.check_rank3_n(n)  # refuse the whole range before scanning
        for n in ns:
            reports.append(
                verifier.exhaustive_rank3_scan(
                    n, symmetry_prune=args.symmetry_prune, workers=workers
                )
            )

    name = f"verify-{args.theorem}-{_param_hash(hash_parts)}.txt"
    body = f"seed: {args.seed}\n" + "".join(r.to_text() for r in reports)
    path = _append_report(args.out, name, body)
    for report in reports:
        _emit_fixtures(args, report, args.out)
        print(report.summary())
    print(f"report appended to {path}")
    return 0 if all(r.passed for r in reports) else 1


def _bound_cell(table: str, n: int, d: int) -> tuple[str, str, str]:
    from . import bounds as bounds_mod

    if table == "cyclic":
        return ("exact", str(bounds_mod.cyclic_facets(n, d)), "closed-form")
    if table == "stacked":
        return ("exact", str(bounds_mod.stacked_facets(n, d)), "closed-form")
    if table == "h0":
        value = bounds_mod.h0_bound(n, d)
    elif table == "hd1":
        value = bounds_mod.hd1_bound(n, d)
    else:
        value = bounds_mod.r_bound(d, n)
    if value.kind == "range":
        shown = f"{value.lower}..{value.upper}"
    elif value.kind == "open":
        shown = "-"
    else:
        shown = str(value.value)
    clause = value.clause + (f" [{value.note}]" if value.note else "")
    return (value.kind, shown, clause)


def _cmd_bounds(args) -> int:
    lines = ["n\td\tkind\tvalue\tclause"]
    for d in args.d:
        for n in args.n:
            try:
                kind, shown, clause = _bound_cell(args.table, n, d)
            except ValueError as exc:
                kind, shown, clause = ("error", "-", str(exc))
            lines.append(f"{n}\t{d}\t{kind}\t{shown}\t{clause}")
    table_text = "\n".join(lines) + "\n"
    sys.stdout.write(table_text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table_text)
    return 0


def _cmd_radon(args) -> int:
    from . import galerad

    config = galerad.PointConfig.from_text(args.points.read_text())
    lines = [f"points: {args.points}", f"n: {config.n}", f"d: {config.dim}", f"seed: {args.seed}"]
    rc = 0
    if args.mode == "count":
        if not args.coloring:
            raise ValueError("count needs --coloring")
        coloring = galerad.Coloring.from_string(args.coloring)
        value = galerad.count_induced(config, coloring)
        lines.append(f"coloring: {coloring.to_string()}")
        lines.append(f"count: {value}")
        if args.trace:
            labels = list(map(str, range(1, config.n + 1)))
            subsets = map(",".join, combinations(labels, config.dim + 2))
            flags = galerad.induced_flags(config, coloring)
            verdicts = map(add, subsets, map((": no", ": induced").__getitem__, flags))
            lines.extend(map(add, repeat("subset "), verdicts))
        summary = f"count = {value}"
    elif args.mode == "maximize":
        value, witness = galerad.max_r(config)
        lines.append(f"max_count: {value}")
        lines.append(f"witness: {witness.to_string()}")
        summary = f"max = {value} witness {witness.to_string()}"
    elif args.mode == "lift":
        if args.coloring:
            coloring = galerad.Coloring.from_string(args.coloring)
        else:
            _, coloring = galerad.max_r(config)
        before = galerad.count_induced(config, coloring)
        lifted, lifted_coloring = galerad.lift_unbalanced(config, coloring)
        after = galerad.count_induced(lifted, lifted_coloring)
        lines.append(f"coloring: {coloring.to_string()}")
        lines.append(f"count_before: {before}")
        lines.append(f"count_after: {after}")
        lines.append(f"lifted_coloring: {lifted_coloring.to_string()}")
        lines.append("lifted_points:")
        lines.extend("  " + line for line in lifted.to_text().splitlines())
        if before != after:
            rc = 1
            lines.append("verdict: fail")
            summary = f"lift count mismatch {before} != {after}"
        else:
            lines.append("verdict: pass")
            summary = f"lift ok, count {after}, sizes (1, {config.n - 1})"
    else:  # gale
        transform = galerad.gale_transform(config)
        lines.append(f"dual_dim: {config.n - config.dim - 1}")
        lines.append("vectors:")
        for i, vec in enumerate(transform.vectors, start=1):
            lines.append(f"  {i}: " + " ".join(str(c) for c in vec))
        summary = f"gale transform into dimension {config.n - config.dim - 1}"

    path = _append_report(args.out, _radon_report_name(args), "\n".join(lines) + "\n")
    print(summary)
    print(f"report appended to {path}")
    return rc


def _radon_report_name(args) -> str:
    parts = ["radon", str(args.points), args.mode, str(args.coloring), str(args.seed)]
    return f"radon-{args.mode}-{_param_hash(parts)}.txt"


def _cmd_matrix(args) -> int:
    from .travels import bottom_travel, interior_elements, is_acyclic, top_travel

    matrix = SignMatrix.from_text(args.matrix.read_text())
    if args.reorient:
        matrix = reorient(matrix, [int(c) for c in args.reorient.split(",") if c])
    print(f"matrix: {matrix.r} x {matrix.n}")
    print(f"top travel: {top_travel(matrix).to_text()}")
    print(f"bottom travel: {bottom_travel(matrix).to_text()}")
    acyclic = is_acyclic(matrix)
    print(f"acyclic: {'yes' if acyclic else 'no'}")
    if acyclic:
        interior = sorted(interior_elements(matrix))
        print("interior: " + (",".join(map(str, interior)) if interior else "-"))
    if matrix.r >= 2 and matrix.n >= 2:
        print("chessboard:")
        for line in board_of(matrix).to_text().splitlines()[1:]:
            print("  " + line)
    return 0


def _cmd_scan(args) -> int:
    from . import verifier

    budget = None if args.exhaustive else args.budget
    result = verifier.search_small_topes(args.r, args.n, budget=budget, seed=args.seed)
    parts = ["scan", str(args.r), str(args.n), str(budget), str(args.seed)]
    path = _append_report(args.out, f"scan-{_param_hash(parts)}.txt", result.to_text())
    print(result.summary())
    print(f"report appended to {path}")
    return 0


COMMANDS = {
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "radon": _cmd_radon,
    "matrix": _cmd_matrix,
    "scan": _cmd_scan,
}


def _value_error_kind(exc: ValueError) -> tuple[int, str]:
    """(exit code, message prefix) for a ValueError a handler raised.  The
    data errors are the ones about the input files' contents.  The galerad
    classes are read from sys.modules, so that a verify run never loads the
    Radon engine: a class that was never imported cannot have been raised."""
    galerad = sys.modules.get(f"{__package__}.galerad")
    if galerad is not None:
        if isinstance(exc, galerad.LiftSeparationError):
            return 1, "lift not applicable"
        if isinstance(
            exc, (galerad.PointFormatError, galerad.GeneralPositionError, galerad.DegenerateSpanError)
        ):
            return DATA_ERROR, "data error"
    if isinstance(exc, MatrixFormatError):
        return DATA_ERROR, "data error"
    return USAGE_ERROR, "usage error"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except OSError as exc:
        if exc.filename is None:
            raise
        if isinstance(exc, FileNotFoundError):
            print(f"data error: no such file {exc.filename}", file=sys.stderr)
        else:
            print(f"data error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        code, what = _value_error_kind(exc)
        print(f"{what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
