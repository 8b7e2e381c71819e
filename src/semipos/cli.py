"""Command-line front end.

Subcommands: classify, witness, build, key1, preserver, falsify, fuzz, basis.
Each has one handler that fills the report's ``inputs`` (a matrix file as its
path, the first 16 hex digits of the sha256 of its bytes, and its shape) and
returns the report's ``result`` with the exit code.  Reports are emitted as a
single JSON document on stdout (``--pretty`` switches to an aligned
human-readable rendering); every rational is printed as an exact ``p/q``
string, so reports round-trip losslessly through the text formats.

Each handler imports the library modules it calls when it runs, so a command
loads only those: ``classify`` and ``witness`` load ``classify`` (with ``lp``),
``build`` and ``key1`` load ``construct``, ``preserver`` and ``falsify`` load
``preserver`` (with ``classify`` and ``construct``), and ``genfuzz`` and ``lp``
load there only for the tall into-msp search, whose draws are decided by an
LP; ``genfuzz`` loads otherwise only for ``fuzz`` and ``basis``.  ``falsify``
works on any shape: it prints the certificate of the matching ``preserver``
into verdict and exits 64 when that verdict is yes or unknown.
Each is imported as a module and its functions are looked up on it at call
time, so a wrapper installed on a module attribute is seen.  Only
``preserver`` uses ``@dataclass``, so the stdlib ``dataclasses``, and the
modules it brings (``inspect``, ``ast``, ``dis``, ``tokenize``, ``linecache``,
``copy``, ...), load exactly when ``preserver`` does: never for
``classify``, ``witness``, ``build``, ``key1`` or ``basis``, and for ``fuzz``
only on a campaign whose trials call ``preserver``.  ``fuzz`` reports its
``NamedTuple`` result through ``_asdict()``.

Exit codes: 0 for a yes/true verdict, 1 for no/false, 2 for unknown, 64 for
malformed input (bad files, dimension mismatches, violated preconditions, a
malformed command line), with a diagnostic on stderr naming the offending file
and line or the usage, and 141 when the reader of stdout closed it before the
report was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .ratmat import (
    MAX_FILE_BYTES,
    DimensionError,
    InvalidInputError,
    Matrix,
    MatrixParseError,
    SingularMatrixError,
    Vector,
    parse_matrix_text,
    parse_vector_text,
)

if TYPE_CHECKING:
    from . import classify, construct, preserver

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

# keyed by the verdict's status value, so this table needs no ``preserver``
_VERDICT_EXIT = {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}

# A subcommand handler takes the parsed arguments and the report's "inputs",
# which it fills, and returns the report's "result" and the exit code.
Inputs = dict[str, Any]
Handled = tuple[Any, int]


def _load_matrix(path: str, inputs: Inputs, key: str) -> Matrix:
    """Parse the matrix file at ``path`` and record it as ``inputs[key]``: its
    path, the first 16 hex digits of the sha256 of its bytes, and its shape.
    A file longer than ``MAX_FILE_BYTES`` is refused after reading one byte
    more, so no file, ``/dev/zero`` included, is read without end."""
    with open(path, "rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise MatrixParseError(f"{path}: longer than the cap of {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    matrix = parse_matrix_text(text, source=path)
    digest = hashlib.sha256(data).hexdigest()[:16]
    inputs[key] = {"path": path, "sha256": digest, "shape": list(matrix.shape)}
    return matrix


def _strings(value: Vector | Matrix | None) -> list[Any] | None:
    return value.to_strings() if value is not None else None


def _certificate_dict(cert: preserver.FalsifyCertificate | None) -> dict[str, Any] | None:
    if cert is None:
        return None
    # verify() first: it stores the image of a certificate built without one
    verified = cert.verified or cert.verify()
    return {
        "kind": cert.kind,
        "class": cert.class_name,
        "x": _strings(cert.x),
        "y": _strings(cert.y),
        "a": _strings(cert.a),
        "image": _strings(cert.image),
        "probe": _strings(cert.probe),
        "probe_image": _strings(cert.probe_image),
        "note": cert.note,
        "verified": verified,
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
            "semipositivity_vector": _strings(report.sp_witness),
            "inverse": _strings(report.inv),
            "left_inverse": _strings(report.left_inv),
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
        if _is_matrix(value):
            widths = [
                max(len(str(row[j])) for row in value) for j in range(len(value[0]))
            ]
            for row in value:
                cells = "  ".join(str(x).rjust(widths[j]) for j, x in enumerate(row))
                lines.append(f"{pad}[ {cells} ]")
        else:
            for item in value:
                if _is_matrix(item):
                    # a list of matrices: each an aligned block, its first row marked "- "
                    block = _pretty_lines(item, indent + 1)
                    lines.append(f"{pad}- {block[0].lstrip()}")
                    lines.extend(block[1:])
                else:
                    lines.append(f"{pad}- {_scalar(item)}")
    return lines


def _is_matrix(value: Any) -> bool:
    """A nonempty list of rows, each a list of scalars."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(row, list) and not any(isinstance(x, list) for x in row)
            for row in value
        )
    )


def _scalar(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(report: dict[str, Any], pretty: bool) -> None:
    print("\n".join(_pretty_lines(report)) if pretty else json.dumps(report, indent=2))


def _classify(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import classify

    matrix = _load_matrix(args.matrix, inputs, "matrix")
    return _report_dict(classify.classify_all(matrix)), EXIT_YES


def _witness(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import classify

    found, witness = classify.is_semipositive(_load_matrix(args.matrix, inputs, "matrix"))
    return {"semipositive": found, "witness": _strings(witness)}, EXIT_YES if found else EXIT_NO


def _build(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import construct

    v = parse_vector_text(args.v, source="--v")
    w = parse_vector_text(args.w, source="--w")
    inputs["v"], inputs["w"] = v.to_strings(), w.to_strings()
    if args.kind == "np":
        b, trace = construct.build_np(v, w)
        return {"matrix": _strings(b), "trace": _trace_dict(trace)}, EXIT_YES
    if args.kind == "pos":
        b, _ = construct.build_pos(v, w)
        return {"matrix": _strings(b)}, EXIT_YES
    b = construct.build_rect(v, w)
    return {"matrix": _strings(b), "rank": b.rank()}, EXIT_YES


def _key1(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import construct

    matrix = _load_matrix(args.matrix, inputs, "matrix")
    vec, path_taken = construct.mixed_sign_vector_with_path(matrix)
    return {"vector": _strings(vec), "path": path_taken, "image": _strings(matrix @ vec)}, EXIT_YES


def _load_map(args: argparse.Namespace, inputs: Inputs) -> preserver.PreserverMap:
    from . import preserver

    x = _load_matrix(args.x, inputs, "x")
    return preserver.PreserverMap(x, _load_matrix(args.y, inputs, "y"))


def _preserver(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import preserver

    decide = getattr(preserver, args.kind.replace("-", "_") + "_preserver")
    verdict = decide(_load_map(args, inputs))
    return _verdict_dict(verdict), _VERDICT_EXIT[verdict.status.value]


def _falsify(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import preserver

    falsify = getattr(preserver, "falsify_" + args.kind.replace("-", "_"))
    return {"certificate": _certificate_dict(falsify(_load_map(args, inputs)))}, EXIT_YES


def _fuzz(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import genfuzz

    result = genfuzz.run_campaign(args.campaign, args.seed, args.trials)
    # notes is a tuple, which --pretty would print as its repr
    report = {**result._asdict(), "notes": list(result.notes), "passed": result.passed}
    return report, EXIT_YES if result.passed else EXIT_NO


def _basis(args: argparse.Namespace, inputs: Inputs) -> Handled:
    from . import genfuzz

    inputs.update(m=args.m, n=args.n)
    found = genfuzz.msp_basis_search(args.m, args.n)
    return {"count": len(found), "matrices": [_strings(b) for b in found]}, EXIT_YES


def _campaign(name: str) -> str:
    """``fuzz``'s campaign argument: argparse builds every subparser on every
    call, so ``genfuzz`` is imported here, when a campaign is parsed, and not
    for a ``choices`` list."""
    from . import genfuzz

    if name not in genfuzz.CAMPAIGNS:
        names = ", ".join(map(repr, sorted(genfuzz.CAMPAIGNS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {names})")
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipos",
        description="Exact tools for semipositive matrix classes, constructive "
        "witnesses, and preserver checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[..., Handled], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    command("classify", _classify, "full class report for one matrix file").add_argument("matrix")

    p = command("witness", _witness, "produce a class witness")
    p.add_argument("kind", choices=["sp"])
    p.add_argument("matrix")

    p = command("build", _build, "construct a matrix with a prescribed image")
    p.add_argument("kind", choices=["np", "pos", "rect"])
    p.add_argument("--v", required=True, help="source vector, e.g. \"1 0 -5 -1\"")
    p.add_argument("--w", required=True, help="target vector")

    p = command("key1", _key1, "vector with both signs mapped to a nonnegative vector")
    p.add_argument("matrix")

    p = command("preserver", _preserver, "decide a preserver question for X, Y")
    p.add_argument("kind", choices=["into-sp", "onto-sp", "into-msp", "onto-msp"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("falsify", _falsify, "construct a counterexample certificate")
    p.add_argument("kind", choices=["into-sp", "into-msp"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("fuzz", _fuzz, "run a seeded verification campaign")
    p.add_argument("campaign", type=_campaign, help="an unknown name lists every campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)

    p = command("basis", _basis, "linearly independent minimally semipositive matrices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    # last, so each usage line ends with it
    for p in sub.choices.values():
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
    inputs: Inputs = {}
    try:
        result, code = args.handler(args, inputs)
    except _INPUT_ERRORS as exc:
        print(f"semipos: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = {"command": args.command, "inputs": inputs, "result": result}
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
