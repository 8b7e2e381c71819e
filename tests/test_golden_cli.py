"""CLI reports pinned byte for byte.

``golden_cli.json`` holds, for a seeded set of ``witness sp``, ``build
np/pos/rect``, ``key1``, ``falsify into-sp/into-msp`` and ``basis`` commands
on inputs of size 2..5, the argument list, the exit code, the report printed
on stdout (with ``elapsed_seconds`` masked) and the text on stderr.  Each
command runs in-process through ``cli.run`` in a scratch directory, so the
matrix paths in the reports are the bare file names.  The report is stored
parsed; rendering checks that it prints back to the exact stdout bytes.
Regenerate the file only when a report is meant to change, with the one
writer of every golden file:

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
    """(label, argv, files) for size n; files maps a file name to its matrix
    and is the same for every case of the size."""
    rng = random.Random(f"golden:cli:{n}")
    z = genfuzz.gen_inverse_nonneg(n, cfg, ("cli", n))
    files = {
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


def cases():
    """(label, argv, files) for the whole set."""
    cfg = genfuzz.GenConfig(2024)
    for n in SIZES:
        yield from _cases(n, cfg)


def _run(argv: list[str], files: dict[str, Matrix]) -> dict:
    """Run argv in the working directory, first writing each of files that is not there."""
    for name, matrix in files.items():
        if not Path(name).exists():
            Path(name).write_text(str(matrix) + "\n")
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
    assert {c if c[0] not in ("key1", "basis") else c[:1] for c in commands} == {
        ("witness", "sp"), ("build", "np"), ("build", "pos"), ("build", "rect"),
        ("key1",), ("falsify", "into-sp"), ("falsify", "into-msp"), ("basis",),
    }
    assert {case["exit"] for case in pinned.values()} == {0, 1, 64}
    paths = {case["report"]["result"]["path"] for case in pinned.values() if case["argv"][0] == "key1"}
    assert paths == {"column-u", "column-w", "combination"}
