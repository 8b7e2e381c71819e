"""CLI reports and refusals pinned byte for byte.

``golden_cli.json`` holds, for a seeded set of ``witness sp``, ``build
np/pos/rect``, ``key1``, ``falsify into-sp/into-msp`` and ``basis`` commands
on inputs of size 2..5, and then for each kind of input the CLI refuses with a
diagnostic (all but the byte cap and argparse usage errors, which
``test_cli.py`` checks), the argument list, the exit code, the report printed
on stdout (with ``elapsed_seconds`` masked) and the text on stderr.  A refusal
exits 64 with no report and one ``semipos: `` line naming what is wrong.  Each
command runs in-process through ``cli.run`` in a scratch directory, so the
matrix paths in the reports and diagnostics are the bare file names.  The
report is stored parsed; rendering checks that it prints back to the exact
stdout bytes.  Regenerate the file only when a report is meant to change, with
the one writer of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import golden
from examples import I2, I3, NEAR_IDENTITY
from semipos import cli, genfuzz
from semipos.ratmat import Matrix

GOLDEN = golden.path("cli")
SIZES = (2, 3, 4, 5)
_ELAPSED = re.compile(r'"elapsed_seconds": [0-9.e+-]+')


def _entry(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 7)))


def _matrix(rng: random.Random, m: int, n: int, lo: int = -5, hi: int = 5) -> Matrix:
    return Matrix([[_entry(rng, lo, hi) for _ in range(n)] for _ in range(m)])


def _vector(rng: random.Random, n: int, lo: int, hi: int) -> str:
    return " ".join(str(_entry(rng, lo, hi)) for _ in range(n))


def _mixed(rng: random.Random, n: int) -> str:
    """A vector with both signs: entry 0 positive, entry 1 negative."""
    rest = _vector(rng, n - 2, -5, 5)
    return " ".join(filter(None, (str(_entry(rng, 1, 5)), str(_entry(rng, -5, -1)), rest)))


def _key1_input(rng: random.Random, n: int) -> Matrix:
    """First draw that is invertible with neither inverse sign nonnegative."""
    while True:
        x = _matrix(rng, n, n)
        if x.rank() == n:
            inv = x.inverse()
            if not inv.is_nonneg() and not (-inv).is_nonneg():
                return x


def _key1_column_w(n: int) -> Matrix:
    """X whose inverse has a one-signed column at its first negative entry and
    a mixed column at its first positive one."""
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    inv[0][:2], inv[1][:2] = [1, -1], [-1, 0]
    return Matrix(inv).inverse()


def _sign_diagonal(rng: random.Random, n: int) -> Matrix:
    """Diagonal of alternating signs: every inverse column is one-signed."""
    return Matrix([[_entry(rng, 1, 5) * (-1) ** i if i == j else 0 for j in range(n)]
                   for i in range(n)])


def _cases(n: int, cfg: genfuzz.GenConfig):
    """(label, argv, files) for size n; files maps a file name to its text
    and is the same for every case of the size."""
    rng = random.Random(f"golden:cli:{n}")
    z = genfuzz.gen_inverse_nonneg(n, cfg, ("cli", n))
    matrices = {
        f"sp-{n}.mat": genfuzz.gen_sp(n + 1, n, cfg, ("cli", n)),
        f"random-{n}.mat": _matrix(rng, n, n),
        f"negative-{n}.mat": _matrix(rng, n, n, -5, 0),
        f"key1-{n}.mat": _key1_input(rng, n),
        f"flipped-{n}.mat": golden.flip_columns(rng, z),
        f"z-{n}.mat": z,
        f"neg-z-{n}.mat": -z,
        f"z-singular-{n}.mat": genfuzz.singular(z),
        f"positive-{n}.mat": _matrix(rng, n, n, 1, 5),
        f"zero-row-{n}.mat": genfuzz.with_zero_row(rng, _matrix(rng, n, n, 0, 5)),
        f"id-{n}.mat": Matrix.identity(n),
        f"column-w-{n}.mat": _key1_column_w(n),
        f"diagonal-{n}.mat": _sign_diagonal(rng, n),
    }
    files = {name: f"{matrix}\n" for name, matrix in matrices.items()}
    yield f"witness-sp-{n}", ["witness", "sp", f"sp-{n}.mat"], files
    yield f"witness-sp-random-{n}", ["witness", "sp", f"random-{n}.mat"], files
    yield f"witness-sp-negative-{n}", ["witness", "sp", f"negative-{n}.mat"], files
    yield f"build-np-{n}", ["build", "np", "--v", _mixed(rng, n), "--w", _vector(rng, n, -5, 5)], files
    yield f"build-pos-{n}", ["build", "pos", "--v", _vector(rng, n, 0, 5) + " 1",
                             "--w", _vector(rng, n + 1, 1, 5)], files
    yield f"build-rect-np-{n}", ["build", "rect", "--v", _mixed(rng, n),
                                 "--w", _vector(rng, n - 1, -5, 5)], files
    yield f"build-rect-pos-{n}", ["build", "rect", "--v", _vector(rng, n, 1, 5),
                                  "--w", _vector(rng, n - 1, 1, 5)], files
    yield f"key1-{n}", ["key1", f"key1-{n}.mat"], files
    for name in ("flipped", "column-w", "diagonal"):
        yield f"key1-{name}-{n}", ["key1", f"{name}-{n}.mat"], files
    for kind, x, y in (
        ("into-sp", f"random-{n}.mat", f"z-{n}.mat"),
        ("into-sp", f"zero-row-{n}.mat", f"z-{n}.mat"),
        ("into-sp", f"positive-{n}.mat", f"neg-z-{n}.mat"),
        ("into-sp", f"positive-{n}.mat", f"z-singular-{n}.mat"),
        ("into-sp", f"positive-{n}.mat", f"z-{n}.mat"),
        ("into-msp", f"flipped-{n}.mat", f"z-{n}.mat"),
        ("into-msp", f"z-{n}.mat", f"neg-z-{n}.mat"),
        ("into-msp", f"z-singular-{n}.mat", f"z-{n}.mat"),
        ("into-msp", f"z-{n}.mat", f"z-singular-{n}.mat"),
        ("into-msp", f"random-{n}.mat", f"random-{n}.mat"),
        ("into-msp", f"id-{n}.mat", f"z-{n}.mat"),
    ):
        yield f"falsify-{kind}-{x[:-4]}-{y[:-4]}", ["falsify", kind, "--x", x, "--y", y], files
    yield f"basis-{n}x{n}", ["basis", "--m", str(n), "--n", str(n)], files
    yield f"basis-{n + 1}x{n - 1}", ["basis", "--m", str(n + 1), "--n", str(n - 1)], files


def _refusals():
    """(label, argv, files) for each input the CLI refuses with exit 64; files
    maps a file name to its text or bytes, and a path not in it is absent.
    ``classify`` reads each refused file, named by its label, and one that is
    absent; then come the refused vectors, maps and arguments."""
    refused = {
        "exponent": "1 0\n0 1e1000000\n",
        "underscore": "1 0\n0 1_0\n",
        "arabic-digit": "1 0\n0 \u0663\n",
        "letter": "1 2\n3 x\n",
        "one-over-zero": "1 1/0\n",
        "zero-over-zero": "1 0/0\n",
        "double-zero": "1 -3/00\n",
        "65-columns": "1\n" + " ".join(["1"] * 65) + "\n",
        "65-rows": "1\n" * 65,
        "1025-bit-entry": f"1 0\n0 {2**1024}\n",
        "ragged": "1 2\n3\n",
        "no-rows": "# no rows here\n\n   \n# nor here\n",
        "not-utf8": b"\xff\xfe1 2\n",
    }
    files = {f"{label}.mat": data for label, data in refused.items()}
    files.update({"id2.mat": f"{I2}\n", "id3.mat": f"{I3}\n", "rect.mat": "1 0 0\n0 1 0\n",
                  "near.mat": f"{NEAR_IDENTITY}\n"})
    for label in [*refused, "missing-file"]:
        yield f"refuse-{label}", ["classify", f"{label}.mat"], files
    for label, argv in (
        ("exponent-in-v", ["build", "pos", "--v", "1 1e2", "--w", "1 1"]),
        ("65-entry-v", ["build", "pos", "--v", " ".join(["1"] * 65), "--w", "1"]),
        ("build-np-one-sign", ["build", "np", "--v", "1 1", "--w", "1 0"]),
        ("x-not-square", ["preserver", "into-sp", "--x", "rect.mat", "--y", "id3.mat"]),
        ("onto-msp-tall", ["preserver", "onto-msp", "--x", "id3.mat", "--y", "id2.mat"]),
        ("falsify-into-msp-wide", ["falsify", "into-msp", "--x", "id2.mat", "--y", "id3.mat"]),
        ("falsify-into-msp-unknown", ["falsify", "into-msp", "--x", "near.mat", "--y", "id2.mat"]),
        ("zero-trials", ["fuzz", "build-np", "--trials", "0"]),
        ("negative-trials", ["fuzz", "build-np", "--trials", "-3"]),
        ("basis-2x0", ["basis", "--m", "2", "--n", "0"]),
        ("basis-minus1x1", ["basis", "--m", "-1", "--n", "1"]),
        ("basis-17x16", ["basis", "--m", "17", "--n", "16"]),
    ):
        yield f"refuse-{label}", argv, files


def cases():
    """(label, argv, files) for the whole set: the sized cases, then the refusals."""
    cfg = genfuzz.GenConfig(2024)
    for n in SIZES:
        yield from _cases(n, cfg)
    yield from _refusals()


def _run(argv: list[str], files: dict[str, str | bytes]) -> dict:
    """Run argv in the working directory, first writing each of files that is
    not there, byte for byte."""
    for name, data in files.items():
        if not Path(name).exists():
            Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    stdout = _ELAPSED.sub('"elapsed_seconds": 0', out.getvalue())
    report = json.loads(stdout) if stdout else None
    if stdout != ("" if report is None else json.dumps(report, indent=2) + "\n"):
        raise ValueError(f"{argv}: stdout does not print back from its parsed report")
    return {"argv": argv, "exit": code, "report": report, "stderr": err.getvalue()}


def render() -> str:
    """Every case's run, one case a line, in a scratch working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return golden.dump((label, _run(argv, files)) for label, argv, files in cases())
        finally:
            os.chdir(cwd)


def test_cli_reports_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_covers_every_pinned_command_and_exit():
    pinned = json.loads(GOLDEN.read_text())
    commands = {tuple(case["argv"][:2]) for case in pinned.values()}
    assert {c if c[0] not in ("classify", "key1", "basis") else c[:1] for c in commands} == {
        ("classify",), ("witness", "sp"), ("build", "np"), ("build", "pos"), ("build", "rect"),
        ("key1",), ("preserver", "into-sp"), ("preserver", "onto-msp"),
        ("falsify", "into-sp"), ("falsify", "into-msp"), ("fuzz", "build-np"), ("basis",),
    }
    assert {case["exit"] for case in pinned.values()} == {0, 1, 64}
    # a refusal prints no report and one diagnostic line, never a traceback
    for label, case in pinned.items():
        if case["exit"] == 64:
            assert case["report"] is None and re.fullmatch(r"semipos: [^\n]*\n", case["stderr"]), label
    paths = {case["report"]["result"]["path"] for case in pinned.values() if case["argv"][0] == "key1"}
    assert paths == {"column-u", "column-w", "combination"}
