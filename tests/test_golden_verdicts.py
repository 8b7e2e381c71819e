"""Preserver reports pinned byte for byte.

``golden_verdicts.json`` holds the JSON the CLI prints for the verdict of a
seeded set of (X, Y) pairs on spaces of size
2..5.  The set reaches every verdict function, every reason and every
falsifier note.  Regenerate it only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_verdicts.py --write
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from semipos import cli, construct, genfuzz, lp, preserver
from semipos.ratmat import Matrix

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
SIZES = (2, 3, 4, 5)
TALL = ((3, 2), (4, 3), (5, 2), (5, 4))
WIDE = ((2, 3), (3, 5))


def _ints(rng: random.Random, m: int, n: int, lo: int, hi: int) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _row_positive(rng: random.Random, n: int) -> Matrix:
    """Nonnegative, no zero row, and not monomial (row 0 has two positive entries)."""
    rows = _ints(rng, n, n, 0, 3)
    for row in rows:
        row[rng.randrange(n)] = rng.randint(1, 3)
    rows[0][0], rows[0][1] = rng.randint(1, 3), rng.randint(1, 3)
    return Matrix(rows)


def _mixed_row(rng: random.Random, n: int) -> Matrix:
    rows = _ints(rng, n, n, -3, 3)
    rows[0][0], rows[0][1] = rng.randint(1, 3), -rng.randint(1, 3)
    return Matrix(rows)


def _uniform_rows(rng: random.Random, n: int) -> Matrix:
    """Every row of one sign and nonzero, row 0 nonnegative and row 1 nonpositive."""
    rows = _row_positive(rng, n).entries
    return Matrix([[-v for v in row] if i == 1 else list(row) for i, row in enumerate(rows)])


def _zero_row(rng: random.Random, n: int, lo: int = -3) -> Matrix:
    rows = _ints(rng, n, n, lo, 3)
    rows[rng.randrange(n)] = [0] * n
    return Matrix(rows)


def _singular(x: Matrix) -> Matrix:
    rows = [list(r) for r in x.entries]
    rows[-1] = list(rows[0])
    return Matrix(rows)


def _flip_columns(rng: random.Random, m: Matrix) -> Matrix:
    """M D for a sign diagonal D of both signs: neither inverse sign is nonnegative."""
    n = m.rows
    flips = set(rng.sample(range(n), rng.randint(1, n - 1)))
    return Matrix([[-v if j in flips else v for j, v in enumerate(row)] for row in m.entries])


def _square_cases(n: int, cfg: genfuzz.GenConfig):
    rng = random.Random(f"golden:square:{n}")
    z1 = genfuzz.gen_inverse_nonneg(n, cfg, ("z1", n))
    z2 = genfuzz.gen_inverse_nonneg(n, cfg, ("z2", n))
    p = genfuzz.gen_monomial(n, cfg, ("p", n))
    q = genfuzz.gen_monomial(n, cfg, ("q", n))
    r = _row_positive(rng, n)
    mixed = _mixed_row(rng, n)
    neither = _flip_columns(rng, z1)
    rand_x, rand_y = Matrix(_ints(rng, n, n, -3, 3)), Matrix(_ints(rng, n, n, -3, 3))
    pairs = {
        "into_sp": {
            "yes": (r, z2),
            "yes-singular-x": (_singular(r), z2),
            "yes-negated": (-r, -z2),
            "zero-row": (_zero_row(rng, n), z2),
            "mixed-row": (mixed, z2),
            "uniform-rows": (_uniform_rows(rng, n), z2),
            "y-negated": (r, -z2),
            "y-negated-sign": (-r, z2),
            "y-singular": (r, _singular(z2)),
            "y-singular-sign": (-r, -_singular(z2)),
            "random": (rand_x, rand_y),
        },
        "onto_sp": {
            "yes": (p, q),
            "yes-negated": (-p, -q),
            "mixed-row": (mixed, z2),
            "y-negated": (r, -z2),
            "x-singular": (_singular(r), z2),
            "inverse-not-into": (r, z2),
            "inverse-not-into-sign": (-r, -z2),
            "random": (rand_x, rand_y),
        },
        "into_msp": {
            "yes": (z1, z2),
            "yes-negated": (-z1, -z2),
            "neither-sign-x": (neither, z2),
            "y-negated": (z1, -z2),
            "y-negated-sign": (-z1, z2),
            "x-singular": (_singular(z1), z2),
            "y-singular": (z1, _singular(z2)),
            "random": (rand_x, rand_y),
        },
        "onto_msp": {
            "yes": (p, q),
            "yes-negated": (-p, -q),
            "neither-sign-x": (neither, z2),
            "y-negated": (z1, -z2),
            "x-singular": (_singular(z1), z2),
            "inverse-not-into": (z1, z2),
            "inverse-not-into-sign": (-z1, -z2),
            "random": (rand_x, rand_y),
        },
    }
    for kind, cells in pairs.items():
        for cell, (x, y) in cells.items():
            yield f"{kind}-{cell}-{n}", kind, x, y


def _rectangular_cases(cfg: genfuzz.GenConfig):
    for m in SIZES:
        rng = random.Random(f"golden:column:{m}")
        r, mixed = _row_positive(rng, m), _mixed_row(rng, m)
        cells = {
            "yes": (r, Matrix([[2]])),
            "yes-negated": (-r, Matrix([[-1]])),
            "y-zero": (r, Matrix([[0]])),
            "x-zero-row": (_zero_row(rng, m, lo=0), Matrix([[1]])),
            "x-negative-entry": (mixed, Matrix([[3]])),
            "x-negative-entry-sign": (mixed, Matrix([[-1]])),
        }
        for cell, (x, y) in cells.items():
            yield f"into_msp-column-{cell}-{m}x1", "into_msp", x, y
        # the onto question on a single column is the onto-SP one
        mono = genfuzz.gen_monomial(m, cfg, ("column", m))
        cells = {
            "yes": (mono, Matrix([[2]])),
            "yes-negated": (-mono, Matrix([[-1]])),
            "row-positive": (r, Matrix([[2]])),
            "y-zero": (r, Matrix([[0]])),
            "x-negative-entry": (mixed, Matrix([[3]])),
        }
        for cell, (x, y) in cells.items():
            yield f"onto_msp-column-{cell}-{m}x1", "onto_msp", x, y
    for m, n in TALL:
        rng = random.Random(f"golden:tall:{m}x{n}")
        z = genfuzz.gen_inverse_nonneg(n, cfg, ("tall", m, n))
        mono = genfuzz.gen_monomial(m, cfg, ("tall", m, n))
        cells = {
            "yes": (mono, z),
            "yes-negated": (-mono, -z),
            "y-singular": (Matrix(_ints(rng, m, m, -3, 3)), _singular(z)),
            "search": (_zero_row(rng, m), z),
            "search-y-negated": (mono, -z),
            "random": (Matrix(_ints(rng, m, m, -3, 3)), Matrix(_ints(rng, n, n, -3, 3))),
        }
        for cell, (x, y) in cells.items():
            yield f"into_msp-tall-{cell}-{m}x{n}", "into_msp", x, y
    # not a preserver, yet the fixed search finds no counterexample
    near_identity = Matrix([[1, Fraction(-1, 10), 0], [0, 1, 0], [0, 0, 1]])
    yield "into_msp-tall-unknown-3x2", "into_msp", near_identity, Matrix.identity(2)
    # the class is empty on a wide space: both questions are a vacuous yes
    for m, n in WIDE:
        yield f"onto_msp-wide-{m}x{n}", "onto_msp", -Matrix.identity(m), Matrix.identity(n)
        yield f"into_msp-wide-{m}x{n}", "into_msp", Matrix.identity(m), Matrix.identity(n)


def cases():
    """(label, verdict function name, X, Y) for the whole set."""
    cfg = genfuzz.GenConfig(2024)
    for n in SIZES:
        yield from _square_cases(n, cfg)
    yield from _rectangular_cases(cfg)


def render() -> str:
    """Every case's ``cli._verdict_dict`` as one JSON object, one case a line."""
    lines = []
    for label, kind, x, y in cases():
        verdict = getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))
        lines.append(f"{json.dumps(label)}: {json.dumps(cli._verdict_dict(verdict))}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_verdict_reports_match_golden():
    assert render() == GOLDEN.read_text()


def _certificates():
    for _, kind, x, y in cases():
        verdict = getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))
        if verdict.certificate is not None:
            yield verdict.certificate


def test_every_golden_certificate_verifies_without_an_inverse(monkeypatch):
    certs = list(_certificates())

    def no_inverse(m):
        raise AssertionError("verify inverted a matrix")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    for cert in certs:
        assert cert.verify(), cert.note
        # without its evidence, a minimally semipositive A goes to the
        # classify decider; a semipositive A needs its witness
        stripped = dataclasses.replace(cert, witness=None, left_inverse=None)
        assert stripped.verify() is (cert.class_name == preserver.CLASS_MSP), cert.note


def test_only_the_search_draws_reach_an_lp_in_verify(monkeypatch):
    """Every constructed certificate is checked by products and sign tests;
    only the tall search's draws, which carry no member evidence, have A
    decided by an LP."""
    certs = list(_certificates())
    calls = []
    for name in ("feasible_nonneg", "equality_feasible_nonneg"):
        solve = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *args, solve=solve: calls.append(args) or solve(*args))
    with_lp = set()
    for cert in certs:
        calls.clear()
        assert cert.verify(), cert.note
        if calls:
            with_lp.add(cert.note)
    assert with_lp == {"randomized-counterexample"}


def test_every_golden_verdict_inverts_each_matrix_at_most_once(monkeypatch):
    """No verdict inverts a matrix twice, or inverts an inverse it already has."""
    inverse = Matrix.inverse
    inverted, returned = set(), set()
    broken = []

    def tracked(m):
        if m in inverted or m in returned:
            broken.append(label)
        inverted.add(m)
        inv = inverse(m)
        returned.add(inv)
        return inv

    monkeypatch.setattr(Matrix, "inverse", tracked)
    for label, kind, x, y in cases():
        inverted.clear()
        returned.clear()
        getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))
    assert broken == []


def test_every_golden_verdict_forms_its_image_once(monkeypatch):
    """X A Y is formed only in ``verify()``, which each "no" verdict runs
    once, so the product X A of its certificate is taken exactly once."""
    matmul = Matrix.__matmul__
    products = []
    monkeypatch.setattr(Matrix, "__matmul__", lambda m, other: products.append((m, other)) or matmul(m, other))
    formed = {}
    for label, kind, x, y in cases():
        products.clear()
        cert = getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y)).certificate
        if cert is not None and cert.kind == "image-leaves-class":
            formed[label] = products.count((cert.x, cert.a))
    assert formed and set(formed.values()) == {1}, formed


def test_no_golden_verdict_eliminates_a_builders_matrix(monkeypatch):
    """The square builders return B^{-1} with B, read off its block form and
    proved by B B^{-1} = I, so no verdict calls ``rank()`` or ``inverse()``
    on a matrix a builder checked."""
    built, eliminated = [], []
    checked = construct._checked
    monkeypatch.setattr(construct, "_checked", lambda b, *rest: built.append(b) or checked(b, *rest))
    for name in ("rank", "inverse"):
        method = getattr(Matrix, name)
        monkeypatch.setattr(
            Matrix, name, lambda m, name=name, method=method: eliminated.append((name, m)) or method(m)
        )
    for label, kind, x, y in cases():
        getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))
    on_built = Counter(name for name, m in eliminated if any(m is b for b in built))
    assert built and eliminated
    assert on_built == Counter(), on_built


def test_a_golden_certificate_without_its_image_verifies_alike_and_stores_it():
    """A certificate built with ``image=None`` verifies exactly when the
    original does, its evidence stripped or not, and then holds X A Y."""
    checked = 0
    for cert in _certificates():
        if cert.kind != "image-leaves-class":
            continue
        for held in (cert, dataclasses.replace(cert, witness=None, left_inverse=None)):
            bare = dataclasses.replace(held, image=None)
            assert bare.verify() is held.verify(), cert.note
            assert bare.image == held.x @ held.a @ held.y, cert.note
            checked += 1
    assert checked


def test_a_verdict_without_the_tall_search_never_reads_the_fraction_grid(
    monkeypatch, entries_reads
):
    """Verdicts run on integer rows; only the tall search's draws
    (``genfuzz.iter_msp_mixture``) build a ``Fraction`` grid."""
    searched = []
    draws = genfuzz.iter_msp_mixture
    monkeypatch.setattr(
        genfuzz, "iter_msp_mixture", lambda *args: searched.append(args) or draws(*args)
    )
    read = []
    for label, kind, x, y in cases():
        searched.clear()
        entries_reads.clear()
        getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))
        if entries_reads and not searched:
            read.append(label)
    assert read == []


def test_golden_covers_every_reason_and_note():
    golden = json.loads(GOLDEN.read_text())
    reasons = {r["reason"] for r in golden.values()}
    assert reasons == {
        getattr(preserver, name) for name in dir(preserver) if name.startswith("REASON_")
    }
    notes = {r["certificate"]["note"] for r in golden.values() if r["certificate"]}
    assert notes == {
        "zero-row",
        "mixed-row",
        "uniform-sign-rows",
        "y-singular",
        "y-inverse-negative-entry",
        "x-or-y-singular",
        "x-not-inverse-nonnegative-either-sign",
        "y-not-inverse-nonnegative",
        "x-singular-no-preimage",
        "y-singular-image-rank-deficient",
        "randomized-counterexample",
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_verdicts.py --write")
    GOLDEN.write_text(render())
