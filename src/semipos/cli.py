"""Command-line front end.

Subcommands: classify, witness, build, key1, preserver, falsify, fuzz, basis.
Reports are emitted as a single JSON document on stdout (``--pretty`` switches
to an aligned human-readable rendering); every rational is printed as an exact
``p/q`` string, so reports round-trip losslessly through the text formats.

Exit codes: 0 for a yes/true verdict, 1 for no/false, 2 for unknown, 64 for
malformed input (bad files, dimension mismatches, violated preconditions, a
malformed command line), with a diagnostic on stderr naming the offending file
and line or the usage, and 141 when the reader of stdout closed it before the
report was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from . import classify, construct, genfuzz, preserver
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    MatrixParseError,
    SingularMatrixError,
    Vector,
    parse_matrix_text,
    parse_vector_text,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 64

_INPUT_ERRORS = (
    MatrixParseError,
    DimensionError,
    InvalidInputError,
    SingularMatrixError,
    OSError,
)


def _load_matrix(path: str) -> tuple[Matrix, dict[str, Any]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    matrix = parse_matrix_text(text, source=path)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    meta = {"path": path, "sha256": digest, "shape": list(matrix.shape)}
    return matrix, meta


def _vec(v: Vector | None) -> list[str] | None:
    return v.to_strings() if v is not None else None


def _mat(m: Matrix | None) -> list[list[str]] | None:
    return m.to_strings() if m is not None else None


def _certificate_dict(cert: preserver.FalsifyCertificate | None) -> dict[str, Any] | None:
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "class": cert.class_name,
        "x": _mat(cert.x),
        "y": _mat(cert.y),
        "a": _mat(cert.a),
        "image": _mat(cert.image),
        "probe": _vec(cert.probe),
        "probe_image": _vec(cert.probe_image),
        "note": cert.note,
        "verified": cert.verified or cert.verify(),
    }


def _verdict_dict(verdict: preserver.PreserverVerdict) -> dict[str, Any]:
    return {
        "status": verdict.status.value,
        "reason": verdict.reason,
        "certificate": _certificate_dict(verdict.certificate),
    }


def _report_dict(report: classify.ClassReport) -> dict[str, Any]:
    return {
        "shape": list(report.shape),
        "verdicts": {
            "nonnegative": report.nonnegative,
            "positive": report.positive,
            "row_positive": report.row_positive,
            "monomial": report.monomial,
            "inverse_nonnegative": report.inverse_nonnegative,
            "semipositive": report.semipositive,
            "minimally_semipositive": report.minimally_semipositive,
        },
        "witnesses": {
            "semipositivity_vector": _vec(report.sp_witness),
            "inverse": _mat(report.inv),
            "left_inverse": _mat(report.left_inv),
        },
    }


def _trace_dict(trace: construct.NpCaseTrace) -> dict[str, Any]:
    return {
        "step1": trace.step1_case,
        "step2": list(trace.step2_cases),
        "step3": trace.step3_case,
        "v_permutation": list(trace.v_permutation),
        "w_permutation": list(trace.w_permutation),
    }


def _pretty_lines(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(sub)}")
    elif isinstance(value, list):
        if value and all(isinstance(row, list) for row in value):
            widths = [
                max(len(str(row[j])) for row in value) for j in range(len(value[0]))
            ]
            for row in value:
                cells = "  ".join(str(x).rjust(widths[j]) for j, x in enumerate(row))
                lines.append(f"{pad}[ {cells} ]")
        else:
            for item in value:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(report: dict[str, Any], pretty: bool) -> None:
    if pretty:
        print("\n".join(_pretty_lines(report)))
    else:
        print(json.dumps(report, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipos",
        description="Exact tools for semipositive matrix classes, constructive "
        "witnesses, and preserver checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full class report for one matrix file")
    p.add_argument("matrix")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("witness", help="produce a class witness")
    p.add_argument("kind", choices=["sp"])
    p.add_argument("matrix")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("build", help="construct a matrix with a prescribed image")
    p.add_argument("kind", choices=["np", "pos", "rect"])
    p.add_argument("--v", required=True, help="source vector, e.g. \"1 0 -5 -1\"")
    p.add_argument("--w", required=True, help="target vector")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser(
        "key1", help="vector with both signs mapped to a nonnegative vector"
    )
    p.add_argument("matrix")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("preserver", help="decide a preserver question for X, Y")
    p.add_argument("kind", choices=["into-sp", "onto-sp", "into-msp", "onto-msp"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("falsify", help="construct a counterexample certificate")
    p.add_argument("kind", choices=["into-sp", "into-msp"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("fuzz", help="run a seeded verification campaign")
    p.add_argument("campaign", choices=sorted(genfuzz.CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser(
        "basis", help="linearly independent minimally semipositive matrices"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=None)
    p.add_argument("--pretty", action="store_true")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        # argparse exits 2 after printing a usage error to stderr, 0 after --help
        if exc.code == 2:
            return EXIT_INPUT_ERROR
        raise
    started = time.perf_counter()
    report: dict[str, Any] = {"command": args.command}
    inputs: dict[str, Any] = {}
    report["inputs"] = inputs

    try:
        if args.command == "classify":
            matrix, meta = _load_matrix(args.matrix)
            inputs["matrix"] = meta
            report["result"] = _report_dict(classify.classify_all(matrix))
            code = EXIT_YES

        elif args.command == "witness":
            matrix, meta = _load_matrix(args.matrix)
            inputs["matrix"] = meta
            found, witness = classify.is_semipositive(matrix)
            report["result"] = {"semipositive": found, "witness": _vec(witness)}
            code = EXIT_YES if found else EXIT_NO

        elif args.command == "build":
            v = parse_vector_text(args.v, source="--v")
            w = parse_vector_text(args.w, source="--w")
            inputs["v"] = v.to_strings()
            inputs["w"] = w.to_strings()
            if args.kind == "np":
                b, trace = construct.build_np(v, w)
                report["result"] = {"matrix": _mat(b), "trace": _trace_dict(trace)}
            elif args.kind == "pos":
                b = construct.build_pos(v, w)
                report["result"] = {"matrix": _mat(b)}
            else:
                b = construct.build_rect(v, w)
                report["result"] = {"matrix": _mat(b), "rank": b.rank()}
            code = EXIT_YES

        elif args.command == "key1":
            matrix, meta = _load_matrix(args.matrix)
            inputs["matrix"] = meta
            vec, path_taken = construct.mixed_sign_vector_with_path(matrix)
            report["result"] = {
                "vector": _vec(vec),
                "path": path_taken,
                "image": _vec(matrix @ vec),
            }
            code = EXIT_YES

        elif args.command == "preserver":
            x, meta_x = _load_matrix(args.x)
            y, meta_y = _load_matrix(args.y)
            inputs["x"] = meta_x
            inputs["y"] = meta_y
            lmap = preserver.PreserverMap(x, y)
            if args.kind == "into-sp":
                verdict = preserver.into_sp_preserver(lmap)
            elif args.kind == "onto-sp":
                verdict = preserver.onto_sp_preserver(lmap)
            elif args.kind == "into-msp":
                verdict = preserver.into_msp_preserver(lmap)
            else:
                verdict = preserver.onto_msp_preserver(lmap)
            report["result"] = _verdict_dict(verdict)
            code = {
                preserver.Verdict.YES: EXIT_YES,
                preserver.Verdict.NO: EXIT_NO,
                preserver.Verdict.UNKNOWN: EXIT_UNKNOWN,
            }[verdict.status]

        elif args.command == "falsify":
            x, meta_x = _load_matrix(args.x)
            y, meta_y = _load_matrix(args.y)
            inputs["x"] = meta_x
            inputs["y"] = meta_y
            lmap = preserver.PreserverMap(x, y)
            if args.kind == "into-sp":
                cert = preserver.falsify_into_sp(lmap)
            else:
                cert = preserver.falsify_into_msp(lmap)
            report["result"] = {"certificate": _certificate_dict(cert)}
            code = EXIT_YES

        elif args.command == "fuzz":
            result = genfuzz.run_campaign(args.campaign, args.seed, args.trials)
            report["result"] = dataclasses.asdict(result)
            report["result"]["passed"] = result.passed
            code = EXIT_YES if result.passed else EXIT_NO

        else:  # basis
            max_trials = (
                args.max_trials if args.max_trials is not None else 10 * args.m * args.n
            )
            inputs["m"] = args.m
            inputs["n"] = args.n
            inputs["seed"] = args.seed
            try:
                found = genfuzz.msp_basis_search(
                    args.m, args.n, genfuzz.GenConfig(args.seed), max_trials
                )
            except genfuzz.SearchExhaustedError as exc:
                report["result"] = {"error": str(exc), "count": 0}
                code = EXIT_NO
            else:
                report["result"] = {
                    "count": len(found),
                    "matrices": [_mat(b) for b in found],
                }
                code = EXIT_YES

    except _INPUT_ERRORS as exc:
        print(f"semipos: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    _emit(report, args.pretty)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. "| head"); point stdout at devnull so
        # the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, what a shell reports for a pipe closed early
    raise SystemExit(code)
