import dataclasses
import random

import pytest

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
)

SIGNED_X = Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]])
ONES_2 = Matrix([[1, 1], [1, 1]])
LOWER = Matrix([[1, 0], [1, 1]])


def _map(x, y):
    return PreserverMap(x, y)


def test_apply():
    assert preserver.apply(_map(Matrix.identity(2), Matrix.identity(3)), Matrix.ones(2, 3)) == Matrix.ones(2, 3)
    doubled = preserver.apply(_map(2 * Matrix.identity(2), Matrix([[3]])), Matrix([[1], [1]]))
    assert doubled == Matrix([[6], [6]])
    assert preserver.apply(_map(ONES_2, Matrix([[1]])), Matrix([[1], [2]])) == Matrix([[3], [3]])
    with pytest.raises(DimensionError):
        preserver.apply(_map(Matrix.identity(2), Matrix.identity(2)), Matrix.ones(3, 2))


def test_preserver_map_requires_square():
    with pytest.raises(DimensionError):
        PreserverMap(Matrix.ones(2, 3), Matrix.identity(3))


def test_into_sp_yes():
    assert preserver.into_sp_preserver(_map(Matrix.identity(2), Matrix.identity(2))).status is Verdict.YES


def test_into_sp_no_with_certificate():
    verdict = preserver.into_sp_preserver(_map(SIGNED_X, Matrix.identity(3)))
    assert verdict.status is Verdict.NO
    cert = verdict.certificate
    assert cert is not None and cert.verify()
    assert cert.note == "uniform-sign-rows"
    assert classify.is_semipositive(cert.a)[0]
    assert not classify.is_semipositive(cert.image)[0]


def test_into_sp_negated_pair():
    verdict = preserver.into_sp_preserver(_map(-Matrix.identity(2), -Matrix.identity(2)))
    assert verdict.status is Verdict.YES
    assert verdict.reason == preserver.REASON_NEGATED_PAIR


def test_onto_sp_examples():
    perms = _map(Matrix([[0, 1], [1, 0]]), Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert preserver.onto_sp_preserver(perms).status is Verdict.YES
    assert preserver.onto_sp_preserver(_map(ONES_2, Matrix.identity(2))).status is Verdict.NO
    scaled = _map(Matrix([[0, 2], [3, 0]]), Matrix([[5]]))
    assert preserver.onto_sp_preserver(scaled).status is Verdict.YES


def test_onto_sp_singular_corner_uses_no_preimage():
    verdict = preserver.onto_sp_preserver(_map(ONES_2, Matrix.identity(2)))
    assert verdict.reason == preserver.REASON_X_SINGULAR
    cert = verdict.certificate
    assert cert.kind == "no-preimage" and cert.verify()


def test_no_preimage_certificate_needs_no_inverse_and_rejects_tampering(monkeypatch):
    y = Matrix([[2, -1], [-1, 2]])
    cert = preserver.onto_sp_preserver(_map(ONES_2, y)).certificate
    assert cert.kind == "no-preimage"

    def no_inverse(m):
        raise AssertionError("verify inverted a matrix")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    assert cert.verify()
    q, z = cert.probe_image, cert.probe
    # q is not a left-null vector of X
    assert not dataclasses.replace(cert, probe_image=q + Vector([1, 0])).verify()
    # the printed probe no longer gives A = probe 1^T Y
    assert not dataclasses.replace(cert, probe=z + Vector([1, 0])).verify()
    # q^T A = 0: the semipositive A = 1 1^T Y lies in the left null space of q
    a = Matrix.ones(2, 2) @ y
    assert classify.is_semipositive(a)[0] and (a.transpose() @ q).is_zero()
    assert not dataclasses.replace(cert, a=a, probe=Vector([1, 1])).verify()


def test_onto_sp_inverse_not_into():
    x = Matrix([[1, 1], [0, 1]])  # row positive, invertible, not monomial
    verdict = preserver.onto_sp_preserver(_map(x, Matrix.identity(2)))
    assert verdict.status is Verdict.NO
    assert verdict.reason == preserver.REASON_INVERSE_NOT_INTO
    assert verdict.certificate.x == x.inverse()


def test_into_msp_square_examples():
    yes = preserver.into_msp_preserver(_map(Matrix([[2, -1], [-1, 2]]), Matrix.identity(2)))
    assert yes.status is Verdict.YES
    no = preserver.into_msp_preserver(_map(LOWER, Matrix.identity(2)))
    assert no.status is Verdict.NO
    assert no.certificate.verify()
    assert classify.is_minimally_semipositive(no.certificate.a)
    assert not classify.is_minimally_semipositive(no.certificate.image)


def test_into_msp_column_case():
    verdict = preserver.into_msp_preserver(_map(ONES_2, Matrix([[1]])))
    assert verdict.status is Verdict.YES
    assert not classify.is_monomial(ONES_2)
    negated = preserver.into_msp_preserver(_map(-ONES_2, Matrix([[-1]])))
    assert negated.status is Verdict.YES
    zero_y = preserver.into_msp_preserver(_map(ONES_2, Matrix([[0]])))
    assert zero_y.status is Verdict.NO and zero_y.certificate.verify()
    bad_x = preserver.into_msp_preserver(_map(Matrix([[1, -2], [1, 1]]), Matrix([[1]])))
    assert bad_x.status is Verdict.NO and bad_x.certificate.verify()


def test_into_msp_tall_cases(monkeypatch):
    monomial_x = Matrix([[2, 0, 0], [0, 0, 1], [0, 3, 0]])
    yes = preserver.into_msp_preserver(_map(monomial_x, Matrix([[2, -1], [-1, 2]])))
    assert yes.status is Verdict.YES and yes.reason == preserver.REASON_TALL_PAIR
    y_singular = preserver.into_msp_preserver(_map(Matrix.identity(3), ONES_2))
    assert y_singular.status is Verdict.NO
    assert y_singular.reason == preserver.REASON_Y_SINGULAR
    images = []
    decide = classify.is_minimally_semipositive
    monkeypatch.setattr(classify, "is_minimally_semipositive", lambda m: images.append(m) or decide(m))
    falsified = preserver.into_msp_preserver(
        _map(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), Matrix.identity(2))
    )
    assert falsified.status is Verdict.NO
    assert falsified.certificate.note == "randomized-counterexample"
    # the search decides its counterexample's image once, in verify()
    assert sum(m == falsified.certificate.image for m in images) == 1


def test_into_msp_wide_is_vacuously_yes():
    # no m x n matrix with m < n is minimally semipositive, so any map preserves the class
    for x, y in [
        (Matrix.identity(2), Matrix.identity(3)),
        (Matrix([[1, -2], [0, 0]]), -Matrix.identity(3)),
        (Matrix([[0]]), ONES_2),
    ]:
        verdict = preserver.into_msp_preserver(_map(x, y))
        assert verdict.status is Verdict.YES
        assert verdict.reason == preserver.REASON_EMPTY_CLASS
        assert verdict.certificate is None


def test_onto_msp_examples():
    assert preserver.onto_msp_preserver(_map(Matrix.identity(3), Matrix.identity(3))).status is Verdict.YES
    not_monomial = preserver.onto_msp_preserver(_map(Matrix([[2, -1], [-1, 2]]), Matrix.identity(2)))
    assert not_monomial.status is Verdict.NO
    assert not_monomial.reason == preserver.REASON_INVERSE_NOT_INTO
    p = Matrix([[0, 1], [1, 0]])
    negated = preserver.onto_msp_preserver(_map(-p, -Matrix.identity(2)))
    assert negated.status is Verdict.YES
    # the class is empty on a wide space, so every map sends it onto itself
    wide = preserver.onto_msp_preserver(_map(Matrix([[1, -2], [0, 0]]), -Matrix.identity(3)))
    assert (wide.status, wide.reason, wide.certificate) == (Verdict.YES, preserver.REASON_EMPTY_CLASS, None)
    # on a single column the class is the semipositive one: onto-SP's verdict
    for x, y in (
        (Matrix([[0, 2], [3, 0]]), Matrix([[1]])),
        (Matrix([[-1, 0, 0], [0, 0, -2], [0, -1, 0]]), Matrix([[-5]])),
        (Matrix([[1, 1], [0, 1]]), Matrix([[2]])),
        (Matrix([[1, 1], [1, 1]]), Matrix([[1]])),
        (Matrix([[2, -1], [-1, 2]]), Matrix([[1]])),
        (Matrix.identity(3), Matrix([[0]])),
    ):
        column = preserver.onto_msp_preserver(_map(x, y))
        assert column == preserver.onto_sp_preserver(_map(x, y))
        assert column.certificate is None or column.certificate.verify()
    with pytest.raises(InvalidInputError, match="not decided for rows > cols"):
        preserver.onto_msp_preserver(_map(Matrix.identity(3), Matrix.identity(2)))


def test_falsify_into_msp_branches():
    singular = preserver.falsify_into_msp(_map(Matrix.identity(2), ONES_2))
    assert singular.a == Matrix.identity(2) and singular.note == "x-or-y-singular"

    mixed = preserver.falsify_into_msp(_map(LOWER, Matrix.identity(2)))
    assert mixed.note == "x-not-inverse-nonnegative-either-sign"
    assert mixed.probe is not None and mixed.probe_image is not None
    assert mixed.image @ mixed.probe == mixed.probe_image
    assert mixed.probe_image.is_nonneg() and not mixed.probe.is_nonneg()

    ybranch = preserver.falsify_into_msp(_map(Matrix.identity(2), LOWER))
    assert ybranch.note == "y-not-inverse-nonnegative"
    assert ybranch.probe_image.is_positive() and not ybranch.probe.is_nonneg()

    with pytest.raises(InvalidInputError):
        preserver.falsify_into_msp(_map(Matrix.identity(2), Matrix.identity(2)))


def test_falsify_into_sp_branches():
    case_iii = preserver.falsify_into_sp(_map(SIGNED_X, Matrix.identity(3)))
    assert case_iii.note == "uniform-sign-rows"

    case_ii = preserver.falsify_into_sp(_map(Matrix([[1, -1], [2, 3]]), Matrix.identity(2)))
    assert case_ii.note == "mixed-row"
    assert case_ii.a == Matrix([[1, 1], [1, 1]])  # replicated v = (1, 1)
    assert (SIGNED_X @ Vector([1, 1, 1]))[0] != 0  # sanity on the other matrix

    case_i = preserver.falsify_into_sp(_map(Matrix([[0, 0], [1, 1]]), Matrix.identity(2)))
    assert case_i.note == "zero-row"

    case_iv = preserver.falsify_into_sp(_map(Matrix.identity(2), LOWER))
    assert case_iv.note == "y-inverse-negative-entry"
    assert case_iv.a == Matrix([[1, -1], [1, -1]])
    assert (case_iv.a @ LOWER).is_nonpos()

    y_sing = preserver.falsify_into_sp(_map(Matrix.identity(2), ONES_2))
    assert y_sing.note == "y-singular"
    assert (y_sing.a @ ONES_2) == Matrix.zeros(2, 2)

    with pytest.raises(InvalidInputError):
        preserver.falsify_into_sp(_map(Matrix.identity(2), Matrix.identity(2)))


def test_verdict_requires_certificate_for_no():
    with pytest.raises(InvalidInputError):
        PreserverVerdict(Verdict.NO, "falsified")


def test_onto_sp_negated_singular_x_has_a_certificate():
    # (-X, -Y) with X singular row positive and Y inverse nonnegative
    lmap = _map(-ONES_2, -Matrix([[2, -1], [-1, 2]]))
    verdict = preserver.onto_sp_preserver(lmap)
    assert verdict.status is Verdict.NO and verdict.reason == preserver.REASON_X_SINGULAR
    assert verdict.certificate.kind == "no-preimage" and verdict.certificate.verify()
    flipped = preserver.onto_sp_preserver(_map(ONES_2, Matrix([[2, -1], [-1, 2]])))
    assert flipped.reason == verdict.reason


def test_each_certificate_is_verified_once(monkeypatch):
    calls = []
    original = FalsifyCertificate.verify

    def counting(cert):
        calls.append(cert)
        return original(cert)

    monkeypatch.setattr(FalsifyCertificate, "verify", counting)
    lower_pair = _map(LOWER, Matrix.identity(2))
    no_verdicts = [
        (preserver.into_sp_preserver, _map(SIGNED_X, Matrix.identity(3)), "uniform-sign-rows"),
        (preserver.into_sp_preserver, _map(Matrix.identity(2), ONES_2), "y-singular"),
        (preserver.onto_sp_preserver, _map(ONES_2, Matrix.identity(2)), "x-singular-no-preimage"),
        (preserver.onto_sp_preserver, _map(Matrix([[1, 1], [0, 1]]), Matrix.identity(2)), "mixed-row"),
        (preserver.into_msp_preserver, lower_pair, "x-not-inverse-nonnegative-either-sign"),
        (preserver.into_msp_preserver, _map(Matrix.identity(2), LOWER), "y-not-inverse-nonnegative"),
        (preserver.into_msp_preserver, _map(ONES_2, Matrix([[0]])), "y-singular"),
        (preserver.into_msp_preserver, _map(Matrix.identity(3), ONES_2), "y-singular-image-rank-deficient"),
        (
            preserver.into_msp_preserver,
            _map(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), Matrix.identity(2)),
            "randomized-counterexample",
        ),
        (preserver.onto_msp_preserver, _map(Matrix.identity(2), Matrix([[2, -1], [-1, 2]])), "y-not-inverse-nonnegative"),
        (preserver.onto_msp_preserver, lower_pair, "x-not-inverse-nonnegative-either-sign"),
    ]
    for verdict_of, lmap, note in no_verdicts:
        calls.clear()
        verdict = verdict_of(lmap)
        assert verdict.status is Verdict.NO and verdict.certificate.note == note
        assert calls == [verdict.certificate] and verdict.certificate.verified
    for falsify, lmap in (
        (preserver.falsify_into_sp, _map(SIGNED_X, Matrix.identity(3))),
        (preserver.falsify_into_msp, lower_pair),
    ):
        calls.clear()
        cert = falsify(lmap)
        assert calls == [cert] and cert.verified
    # a falsifier returns its into-verdict's certificate, and raises where there is none
    for verdict_of, lmap, _ in no_verdicts:
        sp = verdict_of in (preserver.into_sp_preserver, preserver.onto_sp_preserver)
        falsify = preserver.falsify_into_sp if sp else preserver.falsify_into_msp
        into = preserver.into_sp_preserver if sp else preserver.into_msp_preserver
        if not sp and lmap.x.rows != lmap.y.rows:
            with pytest.raises(DimensionError):
                falsify(lmap)
            continue
        verdict = into(lmap)
        if verdict.status is Verdict.NO:
            expected = cli._certificate_dict(verdict.certificate)
            assert cli._certificate_dict(falsify(lmap)) == expected
        else:
            with pytest.raises(InvalidInputError, match="nothing to falsify"):
                falsify(lmap)
    with pytest.raises(TypeError):
        FalsifyCertificate(
            "image-leaves-class",
            preserver.CLASS_SP,
            Matrix.identity(2),
            Matrix.identity(2),
            Matrix.identity(2),
            verified=True,
        )


def test_bad_certificate_is_rejected():
    bogus = FalsifyCertificate(
        "image-leaves-class",
        preserver.CLASS_SP,
        Matrix.identity(2),
        Matrix.identity(2),
        Matrix.identity(2),
        image=Matrix.identity(2),
        note="bogus",
    )
    assert not bogus.verify()
    # A = I with its witness: only the image check rejects it, since every
    # row of the image I has a positive entry
    assert not dataclasses.replace(bogus, witness=Vector([1, 1])).verify()
    with pytest.raises(ArithmeticError):
        PreserverVerdict(Verdict.NO, "falsified", bogus)
    # tampering with a sound certificate: an image that is not X A Y, a probe
    # image that is not image @ probe, an unknown kind, and member evidence
    # that fails although A is in the class (verify() does not fall back to a
    # decider): a witness with a negative entry or with a zero entry in A x, a
    # left inverse with one entry changed, with a negative entry, or missing
    cert = preserver.falsify_into_msp(_map(LOWER, Matrix.identity(2)))
    assert cert.probe is not None and dataclasses.replace(cert).verify()
    witness, left = cert.witness, cert.left_inverse
    assert witness is not None and left is not None
    changed = [list(row) for row in left.entries]
    changed[0][0] += 1
    # A = [[1, 1], [1, 1]]: e_0 is a witness, and (2, -1) also has A x > 0
    sp_cert = preserver.falsify_into_sp(_map(Matrix([[1, 1], [0, 0]]), Matrix.identity(2)))
    assert sp_cert.note == "zero-row" and sp_cert.witness == basis_vector(2, 0)
    # A = [I; 1] has the left inverse [[0, -1, 1], [0, 1, 0]] besides [I 0]
    tall = preserver.into_msp_preserver(_map(Matrix.identity(3), ONES_2)).certificate
    signed_left = Matrix([[0, -1, 1], [0, 1, 0]])
    assert signed_left @ tall.a == Matrix.identity(2)
    for tampered in (
        dataclasses.replace(cert, image=cert.image * 2),
        dataclasses.replace(cert, probe_image=cert.probe_image + basis_vector(2, 0)),
        dataclasses.replace(cert, kind="bogus"),
        dataclasses.replace(cert, witness=-witness),
        dataclasses.replace(sp_cert, witness=Vector([2, -1])),
        dataclasses.replace(cert, witness=left.col(0)),
        dataclasses.replace(sp_cert, witness=Vector([0, 0])),
        dataclasses.replace(cert, left_inverse=Matrix(changed)),
        dataclasses.replace(tall, left_inverse=signed_left),
        dataclasses.replace(cert, left_inverse=None),
        dataclasses.replace(cert, witness=None),
    ):
        assert tampered.verify() is False and not tampered.verified


def test_verify_forms_the_image_and_checks_a_stored_one():
    """A verdict's certificate is built without an image; verify() forms
    X A Y and stores it.  A stored image must equal X A Y, whatever else
    the certificate proves."""
    msp = preserver.falsify_into_msp(_map(LOWER, Matrix.identity(2)))
    sp = preserver.falsify_into_sp(_map(Matrix([[1, 1], [0, 0]]), Matrix.identity(2)))
    for cert in (msp, sp):
        assert cert.verified and cert.image == cert.x @ cert.a @ cert.y
        bare = dataclasses.replace(cert, image=None)
        held = {bare}
        assert bare.image is None and bare.verify() and bare.image == cert.image
        # the stored image leaves the hash as it was
        assert bare in held and hash(bare) == hash(cert)
        changed = [list(row) for row in cert.image.entries]
        changed[1][1] += 1
        for wrong in (Matrix(changed), cert.image * 2, Matrix.zeros(2, 2)):
            tampered = dataclasses.replace(cert, image=wrong)
            assert tampered.verify() is False and tampered.image == wrong, cert.note


def test_a_certificate_of_an_unknown_class_is_rejected():
    leaves = preserver.into_msp_preserver(_map(Matrix([[1, 1], [0, 1]]), Matrix.identity(2))).certificate
    no_preimage = preserver.onto_sp_preserver(_map(ONES_2, Matrix.identity(2))).certificate
    for cert in (leaves, no_preimage):
        assert dataclasses.replace(cert).verify()
        for name in ("no-such-class", ""):
            tampered = dataclasses.replace(cert, class_name=name)
            assert tampered.verify() is False and not tampered.verified


FALSIFIER_NOTES = {
    "zero-row",
    "mixed-row",
    "uniform-sign-rows",
    "y-singular",
    "y-inverse-negative-entry",
    "x-singular-no-preimage",
    "x-or-y-singular",
    "x-not-inverse-nonnegative-either-sign",
    "y-not-inverse-nonnegative",
    "y-singular-image-rank-deficient",
    "randomized-counterexample",
}


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
            y = Matrix([[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)])
        yield _map(x, y)


def _count_lp_calls(monkeypatch):
    calls = []
    for name in ("feasible_nonneg", "equality_feasible_nonneg"):
        solve = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *args, solve=solve, name=name: calls.append(name) or solve(*args))
    return calls


def test_member_evidence_agrees_with_the_deciders(monkeypatch):
    certs = []
    for lmap in _evidence_pairs(120):
        verdicts = [preserver.into_sp_preserver, preserver.onto_sp_preserver, preserver.into_msp_preserver]
        if lmap.x.rows == lmap.y.rows:
            verdicts.append(preserver.onto_msp_preserver)
        certs += [v.certificate for v in (decide(lmap) for decide in verdicts) if v.certificate]
    assert {cert.note for cert in certs} == FALSIFIER_NOTES
    calls = _count_lp_calls(monkeypatch)
    for cert in certs:
        stripped = dataclasses.replace(cert, witness=None, left_inverse=None)
        if cert.class_name == preserver.CLASS_SP:
            # an independent oracle: A is semipositive and the image is not;
            # verify() takes A's membership from its witness alone
            assert lp.feasible_nonneg_bruteforce(cert.a, ones_vector(cert.a.rows)).feasible, cert.note
            if cert.image is not None:
                image_sp = lp.feasible_nonneg_bruteforce(cert.image, ones_vector(cert.image.rows))
                assert not image_sp.feasible, cert.note
            assert not stripped.verify(), cert.note
        else:
            # the decider route: the same certificate without its evidence
            assert stripped.verify(), cert.note
        searched = cert.note == "randomized-counterexample"
        assert (cert.witness is None) == searched, cert.note
        assert (cert.left_inverse is None) == (searched or cert.class_name == preserver.CLASS_SP)
        if searched:
            continue
        # the evidence route: the image is refuted by a row sign, a probe or
        # its rank, so no LP runs
        calls.clear()
        assert dataclasses.replace(cert).verify(), cert.note
        assert calls == [], cert.note


def test_verify_rejects_a_map_that_cannot_act_on_a():
    i2 = Matrix.identity(2)
    cert = FalsifyCertificate(
        "image-leaves-class", preserver.CLASS_SP, Matrix.identity(3), i2, i2, image=i2
    )
    assert cert.verify() is False


def test_verify_rejects_a_probe_of_the_wrong_length():
    cert = preserver.falsify_into_msp(_map(LOWER, Matrix.identity(2)))
    assert dataclasses.replace(cert, probe=Vector([-1, 0, 0])).verify() is False


def test_verify_rejects_a_left_null_vector_of_the_wrong_length():
    cert = preserver.onto_sp_preserver(_map(ONES_2, Matrix.identity(2))).certificate
    assert cert.kind == "no-preimage"
    assert dataclasses.replace(cert, probe_image=Vector([1, -1, 0])).verify() is False


def test_singular_y_without_left_null_vector_raises(monkeypatch):
    monkeypatch.setattr(Matrix, "kernel_vector", lambda self: None)
    with pytest.raises(ArithmeticError, match="left-null"):
        preserver.falsify_into_sp(_map(Matrix.identity(2), ONES_2))


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
        y = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t % 3 == 0:
            x = genfuzz.gen_inverse_nonneg(n, cfg, index=("probe-x", t)) * s
        else:
            x = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if preserver.into_msp_square_condition(x, y):
            continue
        cert = preserver.falsify_into_msp(_map(x, y))
        assert cert.verified
        if not _decided_by_probe(cert):
            assert cert.note == "x-or-y-singular"
            continue
        notes.append(cert.note)
        assert not classify.is_inverse_nonnegative(cert.image)[0], (x, y)
        if n <= 4:
            assert not classify.msp_by_deletion(cert.image), (x, y)
    assert set(notes) == {"x-not-inverse-nonnegative-either-sign", "y-not-inverse-nonnegative"}
    assert len(notes) >= 40


def test_probe_rule_needs_a_negative_probe_and_a_nonnegative_image(monkeypatch):
    i2 = Matrix.identity(2)
    e0 = basis_vector(2, 0)
    lift = Matrix([[1, 0], [0, 1], [1, 1]])
    # on the square image I and the tall image [I; 1^T], both minimally
    # semipositive: e0 is no negative probe; -e0 has a negative image
    for x, a in ((i2, i2), (Matrix.identity(3), lift)):
        for probe in (e0, -e0):
            cert = FalsifyCertificate(
                "image-leaves-class",
                preserver.CLASS_MSP,
                x,
                i2,
                a,
                image=a,
                probe=probe,
                probe_image=a @ probe,
            )
            assert not cert.verify()
    # a tall image sending u = (-1, 2) to a nonnegative vector has no
    # nonnegative left inverse, which the probe proves without a decider;
    # A = [I; 1^T] carries its evidence, witness 1 and left inverse [I 0]
    x = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    image, u = x @ lift, Vector([-1, 2])
    cert = FalsifyCertificate(
        "image-leaves-class",
        preserver.CLASS_MSP,
        x,
        i2,
        lift,
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
        x = Matrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
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
        x = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        y = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
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


def test_onto_yes_implies_both_intos():
    cfg = genfuzz.GenConfig(77)
    for t in range(10):
        n = 2 + t % 3
        s = 1 if t % 2 == 0 else -1
        x = genfuzz.gen_monomial(n, cfg, index=("sym-x", t)) * s
        y = genfuzz.gen_monomial(n, cfg, index=("sym-y", t)) * s
        lmap = _map(x, y)
        assert preserver.onto_msp_preserver(lmap).status is Verdict.YES
        assert preserver.into_msp_preserver(lmap).status is Verdict.YES
        assert preserver.into_msp_preserver(lmap.inverse_map()).status is Verdict.YES
        assert preserver.onto_sp_preserver(lmap).status is Verdict.YES
        assert preserver.into_sp_preserver(lmap).status is Verdict.YES
        assert preserver.into_sp_preserver(lmap.inverse_map()).status is Verdict.YES
