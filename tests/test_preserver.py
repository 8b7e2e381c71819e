"""Tests of the preserver verdicts, their certificates and the falsifiers.

Two tables hold the hand-picked cases, and every tier-1 test that needs one
reads it rather than restating it:

* ``EXAMPLES`` is the one list of hand-picked preserver maps, rows
  (verdict, X, Y, status, reason, note).  ``test_example`` checks each row's
  verdict, certificate and falsifier against the oracles,
  ``test_onto_msp_on_a_single_column_is_onto_sp`` and
  ``test_the_tall_search_decides_its_image_once`` pick their maps from it, and
  ``tests/test_cli.py::test_preserver_exit_codes`` runs every row through
  ``semipos preserver``.
* ``_forgeries()`` is the one list of forged certificates, pairs (label,
  certificate), each a sound certificate with a field tampered or one built
  by hand that proves nothing; ``test_bad_certificate_is_rejected`` requires
  ``verify()`` to refuse each, and four named tests pick their forgeries from
  it by label.
"""

import dataclasses
import functools
import itertools
import random
from collections import Counter

import pytest

from examples import I2, I3, LIFT, LOWER, M_2, NEAR_IDENTITY, ONES_2, SIGNED_X, SWAP, UPPER, ZERO_ROW
from semipos import classify, cli, genfuzz, lp, preserver
from semipos.preserver import (
    FalsifyCertificate,
    PreserverMap,
    PreserverVerdict,
    Verdict,
)
from semipos.ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    Vector,
    basis_vector,
    ones_vector,
    permutation_matrix,
)

VERDICTS = {
    "into-sp": preserver.into_sp_preserver,
    "onto-sp": preserver.onto_sp_preserver,
    "into-msp": preserver.into_msp_preserver,
    "onto-msp": preserver.onto_msp_preserver,
}

SP_PAIR, MSP_PAIR = preserver.REASON_SP_PAIR, preserver.REASON_MSP_PAIR
MONOMIAL, NEGATED = preserver.REASON_MONOMIAL_PAIR, preserver.REASON_NEGATED_PAIR
FALSIFIED, EMPTY = preserver.REASON_FALSIFIED, preserver.REASON_EMPTY_CLASS
X_SINGULAR, NOT_INTO = preserver.REASON_X_SINGULAR, preserver.REASON_INVERSE_NOT_INTO

# (verdict, X, Y, status, reason, note): note is the certificate's, None
# when the verdict carries none
EXAMPLES = [
    ("into-sp", I2, I2, "yes", SP_PAIR, None),
    ("into-sp", -I2, -I2, "yes", NEGATED, None),
    ("into-sp", SIGNED_X, I3, "no", FALSIFIED, "uniform-sign-rows"),
    # X >= 0 whose only zero row is its last is not row positive
    ("into-sp", Matrix([[1, 2, 0], [0, 1, 1], [0, 0, 0]]), I3, "no", FALSIFIED, "zero-row"),
    ("into-sp", Matrix([[1, -1], [2, 3]]), I2, "no", FALSIFIED, "mixed-row"),
    ("into-sp", I2, LOWER, "no", FALSIFIED, "y-inverse-negative-entry"),
    ("into-sp", I2, ONES_2, "no", FALSIFIED, "y-singular"),
    ("onto-sp", SWAP, Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), "yes", MONOMIAL, None),
    ("onto-sp", Matrix([[0, 2], [3, 0]]), Matrix([[5]]), "yes", MONOMIAL, None),
    ("onto-sp", ONES_2, I2, "no", X_SINGULAR, "x-singular-no-preimage"),
    ("onto-sp", ONES_2, M_2, "no", X_SINGULAR, "x-singular-no-preimage"),
    ("onto-sp", -ONES_2, -M_2, "no", X_SINGULAR, "x-singular-no-preimage"),
    # row positive and invertible, not monomial
    ("onto-sp", UPPER, I2, "no", NOT_INTO, "mixed-row"),
    ("into-msp", M_2, I2, "yes", MSP_PAIR, None),
    ("into-msp", -M_2, -I2, "yes", NEGATED, None),
    ("into-msp", LOWER, I2, "no", FALSIFIED, "x-not-inverse-nonnegative-either-sign"),
    ("into-msp", I2, LOWER, "no", FALSIFIED, "y-not-inverse-nonnegative"),
    ("into-msp", I2, ONES_2, "no", FALSIFIED, "x-or-y-singular"),
    # on a single column the class is the semipositive one: into-SP's verdict
    ("into-msp", ONES_2, Matrix([[1]]), "yes", SP_PAIR, None),
    ("into-msp", -ONES_2, Matrix([[-1]]), "yes", NEGATED, None),
    ("into-msp", ONES_2, Matrix([[0]]), "no", FALSIFIED, "y-singular"),
    ("into-msp", Matrix([[1, -2], [1, 1]]), Matrix([[1]]), "no", FALSIFIED, "mixed-row"),
    ("into-msp", Matrix([[2, 0, 0], [0, 0, 1], [0, 3, 0]]), M_2, "yes", preserver.REASON_TALL_PAIR, None),
    ("into-msp", I3, ONES_2, "no", preserver.REASON_Y_SINGULAR, "y-singular-image-rank-deficient"),
    ("into-msp", Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), I2, "no", FALSIFIED, "randomized-counterexample"),
    # no preserver ([[1, 0], [10, 0], [0, 1]] maps to a zero row), but the search misses
    ("into-msp", NEAR_IDENTITY, I2, "unknown", preserver.REASON_OUTSIDE_REGIME, None),
    # no m x n matrix with m < n is minimally semipositive
    ("into-msp", I2, I3, "yes", EMPTY, None),
    ("into-msp", Matrix([[1, -2], [0, 0]]), -I3, "yes", EMPTY, None),
    ("into-msp", Matrix([[0]]), ONES_2, "yes", EMPTY, None),
    ("onto-msp", I3, I3, "yes", MONOMIAL, None),
    ("onto-msp", -SWAP, -I2, "yes", NEGATED, None),
    ("onto-msp", M_2, I2, "no", NOT_INTO, "x-not-inverse-nonnegative-either-sign"),
    ("onto-msp", I2, M_2, "no", NOT_INTO, "y-not-inverse-nonnegative"),
    ("onto-msp", LOWER, I2, "no", FALSIFIED, "x-not-inverse-nonnegative-either-sign"),
    ("onto-msp", Matrix([[1, -2], [0, 0]]), -I3, "yes", EMPTY, None),
    ("onto-msp", Matrix([[0, 2], [3, 0]]), Matrix([[1]]), "yes", MONOMIAL, None),
    ("onto-msp", Matrix([[-1, 0, 0], [0, 0, -2], [0, -1, 0]]), Matrix([[-5]]), "yes", NEGATED, None),
    ("onto-msp", UPPER, Matrix([[2]]), "no", NOT_INTO, "mixed-row"),
    ("onto-msp", ONES_2, Matrix([[1]]), "no", X_SINGULAR, "x-singular-no-preimage"),
    ("onto-msp", M_2, Matrix([[1]]), "no", FALSIFIED, "mixed-row"),
    ("onto-msp", I3, Matrix([[0]]), "no", FALSIFIED, "y-singular"),
]

NOTES = {value for key, value in vars(preserver).items() if key.startswith("NOTE_")}


def _map(x, y):
    return PreserverMap(x, y)


def _is_sp(a):
    """The vertex-enumeration oracle: A x >= 1 for some x >= 0."""
    return lp.feasible_nonneg_bruteforce(a, ones_vector(a.rows)).feasible


ORACLES = {preserver.CLASS_SP: _is_sp, preserver.CLASS_MSP: classify.msp_by_deletion}


def test_apply():
    assert preserver.apply(_map(I2, I3), Matrix.ones(2, 3)) == Matrix.ones(2, 3)
    doubled = preserver.apply(_map(2 * I2, Matrix([[3]])), Matrix([[1], [1]]))
    assert doubled == Matrix([[6], [6]])
    assert preserver.apply(_map(ONES_2, Matrix([[1]])), Matrix([[1], [2]])) == Matrix([[3], [3]])
    with pytest.raises(DimensionError):
        preserver.apply(_map(I2, I2), Matrix.ones(3, 2))


def test_preserver_map_requires_square():
    with pytest.raises(DimensionError):
        PreserverMap(Matrix.ones(2, 3), I3)


@pytest.mark.parametrize("name, x, y, status, reason, note", EXAMPLES)
def test_example(name, x, y, status, reason, note, monkeypatch):
    """The row's verdict, and for a "no" its certificate: verified once by the
    verdict, A in the class and the image not by the oracles, a probe that
    refutes the image, an inverse-not-into certificate on (X^-1, Y^-1).  The
    into falsifier of the row's class returns the into verdict's certificate,
    verified once, or raises where there is none."""
    verified = []
    verify = FalsifyCertificate.verify
    monkeypatch.setattr(FalsifyCertificate, "verify", lambda cert: verified.append(cert) or verify(cert))
    lmap = _map(x, y)
    verdict = VERDICTS[name](lmap)
    cert = verdict.certificate
    assert (verdict.status.value, verdict.reason, cert and cert.note) == (status, reason, note)
    if cert is not None:
        assert verified == [cert] and cert.verified
        assert (cert.kind == "no-preimage") == (note == preserver.NOTE_X_SINGULAR_NO_PREIMAGE)
        in_class = ORACLES[cert.class_name]
        assert in_class(cert.a)
        if cert.kind == "image-leaves-class":
            assert not in_class(cert.image)
            assert cert.probe is None or classify.is_msp_probe(cert.image, cert.probe)
        if reason == NOT_INTO:
            assert (cert.x, cert.y) == (x.inverse(), y.inverse())
    sp = name.endswith("-sp")
    falsify = preserver.falsify_into_sp if sp else preserver.falsify_into_msp
    into = VERDICTS["into-sp" if sp else "into-msp"](lmap)
    expected = into.certificate
    if expected is None:
        message = "no certificate was found" if into.status is Verdict.UNKNOWN else "nothing to falsify"
        with pytest.raises(InvalidInputError, match=message):
            falsify(lmap)
    else:
        verified.clear()
        got = falsify(lmap)
        assert got == expected and verified == [got] and got.verified


def test_the_tables_cover_every_reason_note_and_verdict():
    reasons = {value for key, value in vars(preserver).items() if key.startswith("REASON_")}
    assert {row[4] for row in EXAMPLES} == reasons
    assert {row[5] for row in EXAMPLES} - {None} == NOTES
    statuses = {(row[0], row[3]) for row in EXAMPLES}
    assert all((name, status) in statuses for name in VERDICTS for status in ("yes", "no"))
    labels = [label for label, _ in _forgeries()]
    assert len(set(labels)) == len(labels) == 32


def test_onto_msp_on_a_single_column_is_onto_sp():
    """On a single column the class is the semipositive one, so onto-MSP
    gives onto-SP's verdict; on a tall space of width 2 or more it is not
    decided."""
    columns = [_map(x, y) for name, x, y, *_ in EXAMPLES if name == "onto-msp" and y.rows == 1]
    assert len(columns) == 6
    for lmap in columns:
        assert preserver.onto_msp_preserver(lmap) == preserver.onto_sp_preserver(lmap)
    with pytest.raises(InvalidInputError, match="not decided for rows > cols"):
        preserver.onto_msp_preserver(_map(I3, I2))


def test_the_tall_search_decides_its_image_once(monkeypatch):
    (lmap,) = [_map(x, y) for _, x, y, *_, note in EXAMPLES if note == preserver.NOTE_RANDOMIZED_COUNTEREXAMPLE]
    images = []
    decide = classify.is_minimally_semipositive
    monkeypatch.setattr(classify, "is_minimally_semipositive", lambda m: images.append(m) or decide(m))
    cert = preserver.into_msp_preserver(lmap).certificate
    # the search decides its counterexample's image once, in verify()
    assert sum(m == cert.image for m in images) == 1


def test_falsify_into_msp_branches():
    # X or Y singular: A = I, whose image is singular
    assert preserver.falsify_into_msp(_map(I2, ONES_2)).a == I2
    # the other two store a probe; Y's branch sends it to a positive vector
    assert preserver.falsify_into_msp(_map(LOWER, I2)).probe is not None
    ybranch = preserver.falsify_into_msp(_map(I2, LOWER))
    assert ybranch.probe_image.is_positive() and not ybranch.probe.is_nonneg()


def test_falsify_into_sp_branches():
    # a zero row i, here row 2: A = [v ... v] with v = 1 and witness e_0, and the image's row i is zero
    zero_row = preserver.falsify_into_sp(_map(Matrix([[1, 2, 0], [0, 1, 1], [0, 0, 0]]), I3))
    assert zero_row.witness == basis_vector(3, 0) and zero_row.image.row(2).is_zero()
    # a mixed row i: every column of A is v > 0 with (X v)_i = 0, here v = (1, 1)
    assert preserver.falsify_into_sp(_map(Matrix([[1, -1], [2, 3]]), I2)).a == ONES_2
    # A = 1 r^T with r^T Y = -e_i^T, so the image I A Y has no positive entry
    case_iv = preserver.falsify_into_sp(_map(I2, LOWER))
    assert case_iv.a == Matrix([[1, -1], [1, -1]]) and case_iv.image.is_nonpos()
    # r a left-null vector of a singular Y: the image is 0
    assert preserver.falsify_into_sp(_map(I2, ONES_2)).image == Matrix.zeros(2, 2)


def test_verdict_requires_certificate_for_no():
    with pytest.raises(InvalidInputError):
        PreserverVerdict(Verdict.NO, "falsified")


def _forgeries():
    """(label, certificate) for every forged certificate: a sound one with one
    field tampered, or one built by hand that proves nothing."""
    leaves = "image-leaves-class"
    sp_class, msp_class = preserver.CLASS_SP, preserver.CLASS_MSP
    replace = dataclasses.replace
    no_preimage = preserver.onto_sp_preserver(_map(ONES_2, M_2)).certificate
    q, z = no_preimage.probe_image, no_preimage.probe
    yield "q is not a left-null vector of X", replace(no_preimage, probe_image=q + Vector([1, 0]))
    yield "q of the wrong length", replace(no_preimage, probe_image=Vector([1, -1, 0]))
    yield "A is not the probe times 1^T Y", replace(no_preimage, probe=z + Vector([1, 0]))
    # the semipositive A = 1 1^T Y lies in the left null space of q
    yield "q^T A = 0", replace(no_preimage, a=ONES_2 @ M_2, probe=Vector([1, 1]))
    msp = preserver.falsify_into_msp(_map(LOWER, I2))
    # sound certificates of both kinds, of an unknown class
    for cert in (msp, no_preimage):
        for name in ("no-such-class", ""):
            yield f"{cert.kind} of class {name!r}", replace(cert, class_name=name)
    bogus = FalsifyCertificate(leaves, sp_class, I2, I2, I2, image=I2, note="bogus")
    yield "A = I without a witness", bogus
    # only the image check rejects it: every row of the image I has a positive entry
    yield "A = I with its witness", replace(bogus, witness=Vector([1, 1]))
    yield "a 3x3 X cannot act on a 2x2 A", FalsifyCertificate(leaves, sp_class, I3, I2, I2, image=I2)
    # A = [[1, 1], [1, 1]]: e_0 is a witness, and (2, -1) also has A x > 0
    sp = preserver.falsify_into_sp(_map(ZERO_ROW, I2))
    for cert in (msp, sp):
        changed = [list(row) for row in cert.image.entries]
        changed[1][1] += 1
        wrong = {"one entry changed": Matrix(changed), "doubled": cert.image * 2, "zero": Matrix.zeros(2, 2)}
        for label, image in wrong.items():
            yield f"{cert.note}: image {label}", replace(cert, image=image)
    yield "a probe image that is not image @ probe", replace(msp, probe_image=msp.probe_image + basis_vector(2, 0))
    yield "a probe of the wrong length", replace(msp, probe=Vector([-1, 0, 0]))
    yield "an unknown kind", replace(msp, kind="bogus")
    # member evidence that fails although A is in the class: verify() does not fall back to a decider
    yield "a witness with a negative entry", replace(msp, witness=-msp.witness)
    yield "a witness with a zero entry in A x", replace(msp, witness=msp.left_inverse.col(0))
    yield "a semipositivity witness with a negative entry", replace(sp, witness=Vector([2, -1]))
    yield "a zero semipositivity witness", replace(sp, witness=Vector([0, 0]))
    changed = [list(row) for row in msp.left_inverse.entries]
    changed[0][0] += 1
    yield "a left inverse with one entry changed", replace(msp, left_inverse=Matrix(changed))
    # A = [I; 1] has the left inverse [[0, -1, 1], [0, 1, 0]] besides [I 0]
    tall = preserver.into_msp_preserver(_map(I3, ONES_2)).certificate
    yield "a left inverse with a negative entry", replace(tall, left_inverse=Matrix([[0, -1, 1], [0, 1, 0]]))
    yield "a witness without its left inverse", replace(msp, left_inverse=None)
    yield "a left inverse without its witness", replace(msp, witness=None)
    # on the square image I and the tall image [I; 1^T], both minimally
    # semipositive: e0 is no negative probe; -e0 has a negative image
    e0 = basis_vector(2, 0)
    for x, a in ((I2, I2), (I3, LIFT)):
        for sign, probe in (("e0", e0), ("-e0", -e0)):
            cert = FalsifyCertificate(leaves, msp_class, x, I2, a, image=a, probe=probe, probe_image=a @ probe)
            yield f"probe {sign} of the {a.rows}x2 image", cert


def test_bad_certificate_is_rejected():
    """verify() is False, the certificate stays unmarked, a stored image is
    kept, and no verdict takes it; a verified mark cannot be forged either."""
    for label, cert in _forgeries():
        stored = cert.image
        assert cert.verify() is False and not cert.verified, label
        assert stored is None or cert.image is stored, label
        with pytest.raises(ArithmeticError):
            PreserverVerdict(Verdict.NO, FALSIFIED, cert)
    with pytest.raises(TypeError):
        FalsifyCertificate("image-leaves-class", preserver.CLASS_SP, I2, I2, I2, verified=True)


def _forgery(label):
    return dict(_forgeries())[label]


def test_a_certificate_of_an_unknown_class_is_rejected():
    for kind, sound_class in (("image-leaves-class", preserver.CLASS_MSP), ("no-preimage", preserver.CLASS_SP)):
        for name in ("no-such-class", ""):
            tampered = _forgery(f"{kind} of class {name!r}")
            assert dataclasses.replace(tampered, class_name=sound_class).verify(), kind
            assert tampered.verify() is False and not tampered.verified, (kind, name)


def test_verify_rejects_a_map_that_cannot_act_on_a():
    cert = _forgery("a 3x3 X cannot act on a 2x2 A")
    assert (cert.x.cols, cert.a.rows) == (3, 2)
    assert cert.verify() is False


def test_verify_rejects_a_probe_of_the_wrong_length():
    cert = _forgery("a probe of the wrong length")
    assert (len(cert.probe), cert.a.cols) == (3, 2)
    assert cert.verify() is False


def test_verify_rejects_a_left_null_vector_of_the_wrong_length():
    cert = _forgery("q of the wrong length")
    assert cert.kind == "no-preimage" and (len(cert.probe_image), cert.x.rows) == (3, 2)
    assert cert.verify() is False


def test_a_no_preimage_certificate_verifies_without_an_inverse(monkeypatch):
    cert = preserver.onto_sp_preserver(_map(ONES_2, M_2)).certificate

    def no_inverse(m):
        raise AssertionError("verify inverted a matrix")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    assert cert.verify()


def test_verify_stores_the_image_of_a_bare_copy_and_keeps_its_hash():
    """A verdict's certificate is built without an image; verify() forms
    X A Y and stores it, which leaves the hash as it was."""
    msp = preserver.falsify_into_msp(_map(LOWER, I2))
    sp = preserver.falsify_into_sp(_map(ZERO_ROW, I2))
    for cert in (msp, sp):
        assert cert.verified and cert.image == cert.x @ cert.a @ cert.y
        bare = dataclasses.replace(cert, image=None)
        held = {bare}
        assert bare.image is None and bare.verify() and bare.image == cert.image
        assert bare in held and hash(bare) == hash(cert)


def _evidence_pairs(count):
    """Seeded maps on spaces up to 3x3, square and tall, whose "no" verdicts
    reach every falsifier note."""
    rng = random.Random("member-evidence")
    cfg = genfuzz.GenConfig(3)
    for t in range(count):
        m, n = rng.choice([(1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2), (2, 2)])
        x = Matrix([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(m)] for _ in range(m)])
        if rng.random() < 0.5:
            y = genfuzz.gen_inverse_nonneg(n, cfg, t)
        else:
            y = genfuzz.int_matrix(rng, n, n, -1, 2)
        yield _map(x, y)


def test_member_evidence_agrees_with_the_deciders(lp_calls):
    certs = []
    for lmap in _evidence_pairs(120):
        verdicts = [preserver.into_sp_preserver, preserver.onto_sp_preserver, preserver.into_msp_preserver]
        if lmap.x.rows == lmap.y.rows:
            verdicts.append(preserver.onto_msp_preserver)
        certs += [v.certificate for v in (decide(lmap) for decide in verdicts) if v.certificate]
    assert {cert.note for cert in certs} == NOTES
    for cert in certs:
        stripped = dataclasses.replace(cert, witness=None, left_inverse=None)
        if cert.class_name == preserver.CLASS_SP:
            # an independent oracle: A is semipositive and the image is not;
            # verify() takes A's membership from its witness alone
            assert _is_sp(cert.a), cert.note
            assert cert.image is None or not _is_sp(cert.image), cert.note
            assert not stripped.verify(), cert.note
        else:
            # the decider route: the same certificate without its evidence
            assert stripped.verify(), cert.note
        searched = cert.note == preserver.NOTE_RANDOMIZED_COUNTEREXAMPLE
        assert (cert.witness is None) == searched, cert.note
        assert (cert.left_inverse is None) == (searched or cert.class_name == preserver.CLASS_SP)
        if searched:
            continue
        # the evidence route: the image is refuted by a row sign, a probe or
        # its rank, so no LP runs
        lp_calls.clear()
        assert dataclasses.replace(cert).verify(), cert.note
        assert lp_calls == [], cert.note


def test_singular_y_without_left_null_vector_raises(monkeypatch):
    monkeypatch.setattr(Matrix, "kernel_vector", lambda self: None)
    with pytest.raises(ArithmeticError, match="left-null"):
        preserver.falsify_into_sp(_map(I2, ONES_2))


def _decided_by_probe(cert):
    """The probe route of verify: an MSP image sending a vector with a
    negative entry to a nonnegative one, so it has no nonnegative left
    inverse."""
    return (
        cert.class_name == preserver.CLASS_MSP
        and cert.probe is not None
        and cert.image @ cert.probe == cert.probe_image
        and cert.probe_image.is_nonneg()
        and not cert.probe.is_nonneg()
    )


def test_probe_rule_agrees_with_the_square_msp_oracles():
    rng = random.Random("probe-rule")
    cfg = genfuzz.GenConfig(7)
    notes = []
    for t in range(80):
        n = 2 + t % 4
        s = 1 if t % 2 == 0 else -1
        y = genfuzz.int_matrix(rng, n, n)
        if t % 3 == 0:
            x = genfuzz.gen_inverse_nonneg(n, cfg, index=("probe-x", t)) * s
        else:
            x = genfuzz.int_matrix(rng, n, n)
        if preserver.into_msp_square_condition(x, y):
            continue
        cert = preserver.falsify_into_msp(_map(x, y))
        assert cert.verified
        if not _decided_by_probe(cert):
            assert cert.note == preserver.NOTE_X_OR_Y_SINGULAR
            continue
        notes.append(cert.note)
        assert not classify.is_inverse_nonnegative(cert.image)[0], (x, y)
        if n <= 4:
            assert not classify.msp_by_deletion(cert.image), (x, y)
    assert set(notes) == {preserver.NOTE_X_NOT_INVERSE_NONNEGATIVE, preserver.NOTE_Y_NOT_INVERSE_NONNEGATIVE}
    assert len(notes) >= 40


def test_a_probe_refutes_a_tall_image_with_no_decider(monkeypatch):
    """A tall image sending u = (-1, 2) to a nonnegative vector has no
    nonnegative left inverse, which the probe proves without a decider;
    A = [I; 1^T] carries its evidence, witness 1 and left inverse [I 0]."""
    x = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    image, u = x @ LIFT, Vector([-1, 2])
    cert = FalsifyCertificate(
        "image-leaves-class",
        preserver.CLASS_MSP,
        x,
        I2,
        LIFT,
        image=image,
        probe=u,
        probe_image=image @ u,
        witness=Vector([1, 1]),
        left_inverse=Matrix([[1, 0, 0], [0, 1, 0]]),
    )
    assert (image @ u).is_nonneg() and not classify.is_minimally_semipositive(image)

    def no_decider(m):
        raise AssertionError("verify decided the image")

    monkeypatch.setattr(classify, "is_minimally_semipositive", no_decider)
    assert cert.verify()


def test_column_rule_matches_empirical_preservation():
    # the single-column decision rule, validated against sign-complete samples
    rng = random.Random("column-rule")
    for trial in range(40):
        m = rng.randint(2, 4)
        scalar = rng.choice([-2, -1, 0, 1, 2])
        x = genfuzz.int_matrix(rng, m, m)
        lmap = _map(x, Matrix([[scalar]]))
        verdict = preserver.into_msp_preserver(lmap)
        # on a single column the classes coincide, and so do the reports
        assert cli._verdict_dict(verdict) == cli._verdict_dict(preserver.into_sp_preserver(lmap))
        columns = [Vector([1] * m)]
        for j in range(m):
            for t in (2, 7, 25):
                entries = [1] * m
                entries[j] = t
                columns.append(Vector(entries))
        columns = [Matrix([[e] for e in col.entries]) for col in columns]
        images = [preserver.apply(lmap, col) for col in columns]
        for col in columns + images:
            assert classify.is_minimally_semipositive(col) == classify.is_semipositive(col)[0]
        preserved = all(classify.is_minimally_semipositive(image) for image in images)
        if verdict.status is Verdict.YES:
            assert preserved, f"trial {trial}: rule said yes but a sample failed"
        else:
            assert verdict.certificate.verify()


def test_sign_symmetry_and_scaling():
    rng = random.Random("symmetry")
    pairs = []
    for _ in range(25):
        n = rng.randint(2, 3)
        x = genfuzz.int_matrix(rng, n, n)
        y = genfuzz.int_matrix(rng, n, n)
        pairs.append((x, y))
    # X monomial and Y inverse nonnegative: both conditions hold
    cfg = genfuzz.GenConfig(5)
    pairs += [
        (genfuzz.gen_monomial(n, cfg, ("sym", n)), genfuzz.gen_inverse_nonneg(n, cfg, ("sym", n)))
        for n in (2, 3)
    ]
    for x, y in pairs:
        base = _map(x, y)
        flipped = _map(-x, -y)
        scaled = _map(3 * x, y * "1/2")
        for op in (preserver.into_sp_preserver, preserver.into_msp_preserver, preserver.onto_sp_preserver, preserver.onto_msp_preserver):
            assert op(base).status == op(flipped).status
            assert op(base).status == op(scaled).status
        for cond, op in ((preserver.into_sp_condition, preserver.into_sp_preserver), (preserver.into_msp_square_condition, preserver.into_msp_preserver)):
            assert cond(-x, -y) == -cond(x, y)
            assert bool(cond(x, y)) == (op(base).status is Verdict.YES)


def _check_verdicts(pairs, candidates):
    """Runs the four verdicts on every pair (X, Y) and returns the count of
    each (verdict, status).  Every verdict decides its pair, and each verdict
    says yes to some pair and no to another.  Each "no" certificate
    verifies, and each into "yes" pair maps every candidate in its class back
    into the class.  The candidates and their images are decided by the
    oracles: vertex enumeration (A x >= 1 with x >= 0) for semipositivity and
    ``msp_by_deletion`` for minimal semipositivity."""
    ones = ones_vector(candidates[0].cols)
    sp = functools.cache(lambda a: lp.feasible_nonneg_bruteforce(a, ones).feasible)
    msp = functools.cache(classify.msp_by_deletion)
    into = {preserver.into_sp_preserver: sp, preserver.into_msp_preserver: msp}
    members = {op: [a for a in candidates if in_class(a)] for op, in_class in into.items()}
    assert all(members.values())
    verdicts = (*into, preserver.onto_sp_preserver, preserver.onto_msp_preserver)
    statuses = Counter()
    for x, y in pairs:
        lmap = _map(x, y)
        for op in verdicts:
            verdict = op(lmap)
            statuses[op.__name__, verdict.status] += 1
            if verdict.status is Verdict.NO:
                assert verdict.certificate.verify(), (op.__name__, x, y)
            elif verdict.status is Verdict.YES and op in into:
                assert all(into[op](x @ a @ y) for a in members[op]), (op.__name__, x, y)
    assert all(statuses[op.__name__, s] > 0 for op in verdicts for s in (Verdict.YES, Verdict.NO))
    assert not any(status is Verdict.UNKNOWN for _, status in statuses)
    return statuses


# every 2x2 matrix with entries in {-1, 0, 1}
GRID_2X2 = [Matrix([e[:2], e[2:]]) for e in itertools.product((-1, 0, 1), repeat=4)]


def test_every_2x2_pair_over_minus_one_zero_one():
    """All 6,561 pairs (X, Y) from the grid, with every member of the grid as
    a candidate, go through ``_check_verdicts``."""
    statuses = _check_verdicts(itertools.product(GRID_2X2, repeat=2), GRID_2X2)
    assert sum(statuses.values()) == 4 * 81 * 81


def _grid_3x3_inverse_nonnegative():
    """The inverse-nonnegative members of the 3x3 {-1, 0, 1} grid.  Only
    matrices with a positive entry in each row and each column are inverted,
    since A A^-1 = A^-1 A = I with A^-1 >= 0 needs one there."""
    found = []
    for e in itertools.product((-1, 0, 1), repeat=9):
        rows = (e[:3], e[3:6], e[6:])
        if all(1 in line for line in (*rows, *zip(*rows))):
            a = Matrix(rows)
            if classify.is_inverse_nonnegative(a)[0]:
                found.append(a)
    return found


def test_a_seeded_slice_of_the_3x3_pairs_over_minus_one_zero_one():
    """240 seeded pairs (X, Y) from the 3x3 {-1, 0, 1} grid, with 120 seeded
    candidates, go through ``_check_verdicts``.  X and Y are each a uniform
    draw from the grid or a draw from its row-positive, inverse-nonnegative
    or monomial members, each negated half the time, so that every verdict
    meets both "yes" and "no" pairs, and pairs of structured members with
    opposite signs test the sign rule."""
    rng = random.Random("grid-3x3-slice")
    unit_rows = [r for r in itertools.product((0, 1), repeat=3) if any(r)]
    inverse_nonnegative = _grid_3x3_inverse_nonnegative()
    draws = (
        lambda: Matrix([[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)]),
        lambda: Matrix([rng.choice(unit_rows) for _ in range(3)]),
        lambda: rng.choice(inverse_nonnegative),
        lambda: permutation_matrix(rng.sample(range(3), 3)),
    )
    candidates = [draws[t % 4]() for t in range(120)]
    pairs = [tuple(rng.choice((1, -1)) * rng.choice(draws)() for _ in range(2)) for _ in range(240)]
    statuses = _check_verdicts(pairs, candidates)
    assert sum(statuses.values()) == 4 * 240
