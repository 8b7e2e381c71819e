"""Preserver reports pinned byte for byte.

``golden_verdicts.json`` holds the JSON the CLI prints for the verdict of a
seeded set of (X, Y) pairs on spaces of size
2..5.  The set reaches every verdict function, every reason and every
falsifier note.  Regenerate it only when a report is meant to change, with
the one writer of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

import golden
from examples import NEAR_IDENTITY
from semipos import cli, construct, genfuzz, preserver
from semipos.ratmat import Matrix

GOLDEN = golden.path("verdicts")
SIZES = (2, 3, 4, 5)
TALL = ((3, 2), (4, 3), (5, 2), (5, 4))
WIDE = ((2, 3), (3, 5))


def _uniform_rows(rng: random.Random, n: int) -> Matrix:
    """Every row of one sign and nonzero, row 0 nonnegative and row 1 nonpositive."""
    rows = genfuzz.non_monomial_row_positive_matrix(rng, n).entries
    return Matrix([[-v for v in row] if i == 1 else list(row) for i, row in enumerate(rows)])


def _square_cases(n: int, cfg: genfuzz.GenConfig):
    rng = random.Random(f"golden:square:{n}")
    z1 = genfuzz.gen_inverse_nonneg(n, cfg, ("z1", n))
    z2 = genfuzz.gen_inverse_nonneg(n, cfg, ("z2", n))
    p = genfuzz.gen_monomial(n, cfg, ("p", n))
    q = genfuzz.gen_monomial(n, cfg, ("q", n))
    r = genfuzz.non_monomial_row_positive_matrix(rng, n)
    mixed = genfuzz.mixed_row_matrix(rng, n)
    neither = golden.flip_columns(rng, z1)
    rand_x, rand_y = genfuzz.int_matrix(rng, n, n), genfuzz.int_matrix(rng, n, n)
    pairs = {
        "into_sp": {
            "yes": (r, z2),
            "yes-singular-x": (genfuzz.singular(r), z2),
            "yes-negated": (-r, -z2),
            "zero-row": (genfuzz.with_zero_row(rng, genfuzz.int_matrix(rng, n, n)), z2),
            "mixed-row": (mixed, z2),
            "uniform-rows": (_uniform_rows(rng, n), z2),
            "y-negated": (r, -z2),
            "y-negated-sign": (-r, z2),
            "y-singular": (r, genfuzz.singular(z2)),
            "y-singular-sign": (-r, -genfuzz.singular(z2)),
            "random": (rand_x, rand_y),
        },
        "onto_sp": {
            "yes": (p, q),
            "yes-negated": (-p, -q),
            "mixed-row": (mixed, z2),
            "y-negated": (r, -z2),
            "x-singular": (genfuzz.singular(r), z2),
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
            "x-singular": (genfuzz.singular(z1), z2),
            "y-singular": (z1, genfuzz.singular(z2)),
            "random": (rand_x, rand_y),
        },
        "onto_msp": {
            "yes": (p, q),
            "yes-negated": (-p, -q),
            "neither-sign-x": (neither, z2),
            "y-negated": (z1, -z2),
            "x-singular": (genfuzz.singular(z1), z2),
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
        r, mixed = genfuzz.non_monomial_row_positive_matrix(rng, m), genfuzz.mixed_row_matrix(rng, m)
        cells = {
            "yes": (r, Matrix([[2]])),
            "yes-negated": (-r, Matrix([[-1]])),
            "y-zero": (r, Matrix([[0]])),
            "x-zero-row": (genfuzz.with_zero_row(rng, genfuzz.int_matrix(rng, m, m, 0, 3)), Matrix([[1]])),
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
            "y-singular": (genfuzz.int_matrix(rng, m, m), genfuzz.singular(z)),
            "search": (genfuzz.with_zero_row(rng, genfuzz.int_matrix(rng, m, m)), z),
            "search-y-negated": (mono, -z),
            "random": (genfuzz.int_matrix(rng, m, m), genfuzz.int_matrix(rng, n, n)),
        }
        for cell, (x, y) in cells.items():
            yield f"into_msp-tall-{cell}-{m}x{n}", "into_msp", x, y
    # not a preserver, yet the fixed search finds no counterexample
    yield "into_msp-tall-unknown-3x2", "into_msp", NEAR_IDENTITY, Matrix.identity(2)
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


def _verdict(kind: str, x: Matrix, y: Matrix) -> preserver.PreserverVerdict:
    return getattr(preserver, kind + "_preserver")(preserver.PreserverMap(x, y))


def render() -> str:
    """Every case's ``cli._verdict_dict``, one case a line."""
    return golden.dump((label, cli._verdict_dict(_verdict(kind, x, y))) for label, kind, x, y in cases())


def test_verdict_reports_match_golden():
    assert render() == GOLDEN.read_text()


def _certificates():
    for _, kind, x, y in cases():
        verdict = _verdict(kind, x, y)
        if verdict.certificate is not None:
            yield verdict.certificate


def test_every_golden_certificate_verifies_without_an_inverse(monkeypatch):
    """A certificate with its evidence inverts nothing.  Without it, a
    minimally semipositive A goes to the classify decider, which may invert
    that A (a square A's only left inverse is A^-1) and nothing else; a
    semipositive A needs its witness."""
    certs = list(_certificates())
    inverse = Matrix.inverse
    invertible = []

    def member_inverse(m):
        if m not in invertible:
            raise AssertionError("verify inverted a matrix other than its member")
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", member_inverse)
    for cert in certs:
        invertible.clear()
        assert cert.verify(), cert.note
        stripped = dataclasses.replace(cert, witness=None, left_inverse=None)
        invertible.append(stripped.a)
        assert stripped.verify() is (cert.class_name == preserver.CLASS_MSP), cert.note


def test_only_the_search_draws_reach_an_lp_in_verify(lp_calls):
    """Every constructed certificate is checked by products and sign tests;
    only the tall search's draws, which carry no member evidence, have A
    decided by an LP."""
    certs = list(_certificates())
    with_lp = set()
    for cert in certs:
        lp_calls.clear()
        assert cert.verify(), cert.note
        if lp_calls:
            with_lp.add(cert.note)
    assert with_lp == {preserver.NOTE_RANDOMIZED_COUNTEREXAMPLE}


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
        _verdict(kind, x, y)
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
        cert = _verdict(kind, x, y).certificate
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
        _verdict(kind, x, y)
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
        _verdict(kind, x, y)
        if entries_reads and not searched:
            read.append(label)
    assert read == []


def test_golden_covers_every_reason_and_note():
    pinned = json.loads(GOLDEN.read_text())
    reasons = {r["reason"] for r in pinned.values()}
    assert reasons == {
        getattr(preserver, name) for name in dir(preserver) if name.startswith("REASON_")
    }
    notes = {r["certificate"]["note"] for r in pinned.values() if r["certificate"]}
    assert notes == {getattr(preserver, name) for name in dir(preserver) if name.startswith("NOTE_")}
