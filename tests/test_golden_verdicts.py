"""Preserver reports pinned byte for byte.

``golden_verdicts.json`` holds the JSON the CLI prints for the verdict of a
seeded set of (X, Y) pairs on spaces of size
2..5.  The set reaches every verdict function, every reason and every
falsifier note.  Regenerate it only when a report is meant to change, with
the one writer of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write

``render()`` runs the cases once for the golden file; the module fixture
``records`` runs them once more, recording each verdict with the inverses,
products, eliminations and ``entries`` reads it made, and the tests below
check each property on every record and every certificate.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import golden
from examples import NEAR_IDENTITY
from semipos import cli, construct, genfuzz, preserver
from semipos.ratmat import Matrix, Vector

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


@pytest.fixture(scope="module")
def records():
    """The one recorded pass over ``cases()``, one record a case: its verdict
    and what the verdict did.  ``eliminated`` holds each ``rank`` and
    ``inverse`` call as (name, matrix, inverse), the inverse None for a rank or
    a singular matrix; ``products`` each ``Matrix.__matmul__`` operand pair;
    ``built`` each matrix passed to ``construct._checked``; ``searched`` each
    entry into ``genfuzz.iter_msp_mixture``; and ``reads`` each ``Matrix`` or
    ``Vector`` whose ``entries`` were read.  The cases are drawn before the
    pass, so their generators are not recorded."""
    drawn = list(cases())
    records = []
    inverse, rank, matmul = Matrix.inverse, Matrix.rank, Matrix.__matmul__
    checked, draws = construct._checked, genfuzz.iter_msp_mixture

    def inverted(m):
        inv = None
        try:
            inv = inverse(m)
            return inv
        finally:
            records[-1].eliminated.append(("inverse", m, inv))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "inverse", inverted)
        patch.setattr(Matrix, "rank", lambda m: records[-1].eliminated.append(("rank", m, None)) or rank(m))
        patch.setattr(Matrix, "__matmul__", lambda m, other: records[-1].products.append((m, other)) or matmul(m, other))
        patch.setattr(construct, "_checked", lambda b, *rest: records[-1].built.append(b) or checked(b, *rest))
        patch.setattr(genfuzz, "iter_msp_mixture", lambda *args: records[-1].searched.append(args) or draws(*args))
        for cls in (Matrix, Vector):
            patch.setattr(cls, "entries", property(lambda v, get=cls.entries.fget: records[-1].reads.append(v) or get(v)))
        for label, kind, x, y in drawn:
            records.append(SimpleNamespace(label=label, eliminated=[], products=[], built=[], searched=[], reads=[]))
            records[-1].verdict = _verdict(kind, x, y)
    return records


@pytest.fixture(scope="module")
def certificates(records):
    """The certificate of every recorded verdict that holds one."""
    return [r.verdict.certificate for r in records if r.verdict.certificate is not None]


def test_every_golden_certificate_verifies_without_an_inverse(monkeypatch, certificates):
    """A certificate with its evidence inverts nothing.  Without it, a
    minimally semipositive A goes to the classify decider, which may invert
    that A (a square A's only left inverse is A^-1) and nothing else; a
    semipositive A needs its witness."""
    inverse = Matrix.inverse
    invertible = []

    def member_inverse(m):
        if m not in invertible:
            raise AssertionError("verify inverted a matrix other than its member")
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", member_inverse)
    for cert in certificates:
        invertible.clear()
        assert cert.verify(), cert.note
        stripped = dataclasses.replace(cert, witness=None, left_inverse=None)
        invertible.append(stripped.a)
        assert stripped.verify() is (cert.class_name == preserver.CLASS_MSP), cert.note


def test_only_the_search_draws_reach_an_lp_in_verify(lp_calls, certificates):
    """Every constructed certificate is checked by products and sign tests;
    only the tall search's draws, which carry no member evidence, have A
    decided by an LP."""
    with_lp = set()
    for cert in certificates:
        lp_calls.clear()
        assert cert.verify(), cert.note
        if lp_calls:
            with_lp.add(cert.note)
    assert with_lp == {preserver.NOTE_RANDOMIZED_COUNTEREXAMPLE}


def test_every_golden_verdict_inverts_each_matrix_at_most_once(records):
    """No verdict inverts a matrix twice, or inverts an inverse it already has."""
    broken = []
    for r in records:
        seen = set()
        for name, m, inv in r.eliminated:
            if name == "inverse":
                if m in seen:
                    broken.append(r.label)
                seen.update([m] if inv is None else [m, inv])
    assert broken == []


def test_every_golden_verdict_forms_its_image_once(records):
    """X A Y is formed only in ``verify()``, which each "no" verdict runs
    once, so the product X A of its certificate is taken exactly once."""
    formed = {}
    for r in records:
        cert = r.verdict.certificate
        if cert is not None and cert.kind == "image-leaves-class":
            formed[r.label] = r.products.count((cert.x, cert.a))
    assert formed and set(formed.values()) == {1}, formed


def test_no_golden_verdict_eliminates_a_builders_matrix(records):
    """The square builders return B^{-1} with B, read off its block form and
    proved by B B^{-1} = I, so no verdict calls ``rank()`` or ``inverse()``
    on a matrix a builder checked."""
    # every recorded matrix is alive, so its id is its own
    built = {id(b) for r in records for b in r.built}
    eliminated = [(name, m) for r in records for name, m, _ in r.eliminated]
    on_built = Counter(name for name, m in eliminated if id(m) in built)
    assert built and eliminated
    assert on_built == Counter(), on_built


def test_a_golden_certificate_without_its_image_verifies_alike_and_stores_it(certificates):
    """A certificate built with ``image=None`` verifies exactly when the
    original does, its evidence stripped or not, and then holds X A Y."""
    checked = 0
    for cert in certificates:
        if cert.kind != "image-leaves-class":
            continue
        for held in (cert, dataclasses.replace(cert, witness=None, left_inverse=None)):
            bare = dataclasses.replace(held, image=None)
            assert bare.verify() is held.verify(), cert.note
            assert bare.image == held.x @ held.a @ held.y, cert.note
            checked += 1
    assert checked


def test_a_verdict_without_the_tall_search_never_reads_the_fraction_grid(records):
    """Verdicts run on integer rows; only the tall search's draws
    (``genfuzz.iter_msp_mixture``) build a ``Fraction`` grid."""
    read = [r.label for r in records if r.reads and not r.searched]
    assert read == []


def test_golden_covers_every_reason_and_note():
    pinned = json.loads(GOLDEN.read_text())
    reasons = {r["reason"] for r in pinned.values()}
    assert reasons == {
        getattr(preserver, name) for name in dir(preserver) if name.startswith("REASON_")
    }
    notes = {r["certificate"]["note"] for r in pinned.values() if r["certificate"]}
    assert notes == {getattr(preserver, name) for name in dir(preserver) if name.startswith("NOTE_")}
