"""CLI reports pinned byte for byte.

``golden_cli.json`` holds, for a seeded set of ``witness sp``, ``build
np/pos/rect``, ``key1``, ``falsify into-sp/into-msp`` and ``basis`` commands
on inputs of size 2..5, the argument list, the exit code, the report printed
on stdout (with ``elapsed_seconds`` masked) and the text on stderr.  Each
command runs in-process through ``cli.run`` in a scratch directory, so the
matrix paths in the reports are the bare file names.  The report is stored
parsed; rendering checks that it prints back to the exact stdout bytes.
Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from semipos import cli, genfuzz
from semipos.ratmat import Matrix

GOLDEN = Path(__file__).with_name("golden_cli.json")
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


def _flip_columns(rng: random.Random, m: Matrix) -> Matrix:
    """M D for a sign diagonal D of both signs: neither inverse sign is nonnegative."""
    n = m.rows
    flips = set(rng.sample(range(n), rng.randint(1, n - 1)))
    return Matrix([[-v if j in flips else v for j, v in enumerate(row)] for row in m.entries])


def _with_zero_row(rng: random.Random, m: Matrix) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[rng.randrange(m.rows)] = [0] * m.cols
    return Matrix(rows)


def _singular(m: Matrix) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[-1] = list(rows[0])
    return Matrix(rows)


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
        f"flipped-{n}.mat": _flip_columns(rng, z),
        f"z-{n}.mat": z,
        f"neg-z-{n}.mat": -z,
        f"z-singular-{n}.mat": _singular(z),
        f"positive-{n}.mat": _matrix(rng, n, n, 1, 5),
        f"zero-row-{n}.mat": _with_zero_row(rng, _matrix(rng, n, n, 0, 5)),
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


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    stdout = _ELAPSED.sub('"elapsed_seconds": 0', out.getvalue())
    report = json.loads(stdout) if stdout else None
    if stdout != ("" if report is None else json.dumps(report, indent=2) + "\n"):
        raise ValueError(f"{argv}: stdout does not print back from its parsed report")
    return {"argv": argv, "exit": code, "report": report, "stderr": err.getvalue()}


def render() -> str:
    """Every case's run as one JSON object, one case a line."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for label, argv, files in cases():
                for name, matrix in files.items():
                    if not Path(name).exists():
                        Path(name).write_text(str(matrix) + "\n")
                lines.append(f"{json.dumps(label)}: {json.dumps(_run(argv))}")
        finally:
            os.chdir(cwd)
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_cli_reports_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_covers_every_pinned_command_and_exit():
    golden = json.loads(GOLDEN.read_text())
    commands = {tuple(case["argv"][:2]) for case in golden.values()}
    assert {c if c[0] not in ("key1", "basis") else c[:1] for c in commands} == {
        ("witness", "sp"), ("build", "np"), ("build", "pos"), ("build", "rect"),
        ("key1",), ("falsify", "into-sp"), ("falsify", "into-msp"), ("basis",),
    }
    assert {case["exit"] for case in golden.values()} == {0, 1, 64}
    paths = {case["report"]["result"]["path"] for case in golden.values() if case["argv"][0] == "key1"}
    assert paths == {"column-u", "column-w", "combination"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    GOLDEN.write_text(render())
