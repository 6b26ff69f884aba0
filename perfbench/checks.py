"""Correctness gates for the benchmark's jobs.

Each job's exit code and appended report block are compared with what the
reference commit produced for the same argv (``golden.json``).  Report
blocks carry the run's ``--seed`` in one ``seed:`` line; it is replaced by
``seed: *`` before hashing, which is the only way the seed reaches a report.
Every ``witness:`` line of a verify report is replayed through the
circuit-sign oracle of the test suite.
"""

from __future__ import annotations

import hashlib


def normalized_digest(block: bytes, seed: int) -> str:
    text = ("\n" + block.decode("utf-8")).replace(f"\nseed: {seed}\n", "\nseed: *\n", 1)
    return hashlib.sha256(text[1:].encode("utf-8")).hexdigest()


def matches_golden(rc: int, block: bytes, seed: int, expected: dict) -> bool:
    return rc == expected["rc"] and normalized_digest(block, seed) == expected["sha256"]


# ---------------------------------------------------------------------------
# Report parsing.


def report_blocks(text: str) -> list[list[str]]:
    """Lines of each `report: ... end:` block of a verify report."""
    blocks, current = [], None
    for line in text.splitlines():
        if line.startswith("report: "):
            current = []
        if current is not None:
            current.append(line)
            if line.startswith("end: "):
                blocks.append(current)
                current = None
    return blocks


def block_fields(block: list[str]) -> dict[str, str]:
    fields = {}
    for line in block:
        key, sep, value = line.partition(": ")
        if sep and key != "witness":
            fields[key] = value
    return fields


def parse_witness(line: str) -> dict:
    """`witness: k=v ... observed=.. required=.. ok=.. travel=.. flips=..
    interior=..` as a dict of strings, with the instance params apart."""
    params, fields = {}, {}
    for token in line[len("witness: "):].split():
        key, _, value = token.partition("=")
        if key in ("observed", "required", "ok", "travel", "flips", "interior"):
            fields[key] = value
        else:
            params[key] = value
    fields["params"] = params
    return fields


def _columns(text: str) -> list[int]:
    return [] if text == "-" else [int(c) for c in text.split(",")]


# ---------------------------------------------------------------------------
# Witness replay.


def witness_matrix(lomlab, theorem: str, fields: dict[str, str], params: dict[str, str]):
    """The matrix a witness line refers to, rebuilt through the public API."""
    chessboard = lomlab.chessboard
    if theorem == "rank3-scan":
        n, code = int(params["n"]), int(params["board"])
        width = n - 1
        rows = tuple(
            tuple(bool((code >> (i * width + j)) & 1) for j in range(width)) for i in range(2)
        )
        board = chessboard.Chessboard(rows)
    elif theorem.startswith("counterexample-"):
        sequence = [int(x) for x in fields["param sequence"].split(",")]
        board = chessboard.board_from_sequence(int(params["r"]), int(params["n"]), sequence)
    else:
        board = chessboard.corners_for(theorem, int(params["r"]), int(params["t"]))
    return chessboard.canonical_matrix(board)


def replay_witnesses(lomlab, oracles, report_text: str) -> tuple[int, int]:
    """(witnesses replayed, mismatches).  The flips are applied here and the
    reoriented matrix goes to the oracle, which must find it acyclic with
    exactly the reported interior set."""
    replayed = mismatched = 0
    for block in report_blocks(report_text):
        fields = block_fields(block)
        for line in block:
            if not line.startswith("witness: "):
                continue
            replayed += 1
            witness = parse_witness(line)
            matrix = witness_matrix(lomlab, fields["theorem"], fields, witness["params"])
            flips = {c - 1 for c in _columns(witness["flips"])}
            rows = tuple(
                tuple(-v if j in flips else v for j, v in enumerate(row)) for row in matrix.rows
            )
            flipped = lomlab.sign_matrix.SignMatrix(rows)
            interior = frozenset(_columns(witness["interior"]))
            ok = (
                oracles.matrix_is_acyclic(flipped)
                and oracles.matrix_interior(flipped) == interior
                and int(witness["observed"]) == len(interior)
            )
            mismatched += not ok
    return replayed, mismatched


def rank3_agreement(unpruned: str, pruned: str) -> bool:
    """The pruned and unpruned scans agree on verdict, worst value and
    attain_bound."""

    def key(text: str):
        blocks = report_blocks(text)
        if len(blocks) != 1:
            return None
        f = block_fields(blocks[0])
        return (f.get("verdict"), f.get("min_interior_observed"), f.get("param attain_bound"))

    a, b = key(unpruned), key(pruned)
    return a is not None and a == b
