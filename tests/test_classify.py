import inspect
import random

import pytest

from examples import (
    EXAMPLE_B, INVERSE_NONNEGATIVE, LIFT, MATRICES, MONOMIAL, MSP, NONNEGATIVE, ONES_2, POSITIVE,
    ROW_POSITIVE, SP, UPPER,
)
from semipos import classify, construct, genfuzz, lp
from semipos.ratmat import DimensionError, Matrix, SingularMatrixError, Vector, basis_vector, ones_vector
from test_ratmat import leibniz_det

# each checker's table: one accepted case, then each condition failing on its own
SP_WITNESS_A = Matrix([[1, -2], [1, 3]])


@pytest.mark.parametrize(
    "x, expected",
    [
        pytest.param(Vector([1, 0]), True, id="accepted"),
        # A x = (6, 1) > 0, but x has a negative entry
        pytest.param(Vector([4, -1]), False, id="x-not-nonnegative"),
        # x >= 0, but (A x)_0 = -2
        pytest.param(Vector([0, 1]), False, id="ax-negative"),
        # x >= 0, but A x = 0
        pytest.param(Vector([0, 0]), False, id="ax-zero"),
    ],
)
def test_sp_witness_table(x, expected):
    assert classify.is_sp_witness(SP_WITNESS_A, x) is expected


@pytest.mark.parametrize(
    "n, expected",
    [
        pytest.param(Matrix([[1, 0, 0], [0, 1, 0]]), True, id="accepted"),
        # N A = I, but N has a negative entry
        pytest.param(Matrix([[0, -1, 1], [0, 1, 0]]), False, id="n-not-nonnegative"),
        # N >= 0, but N A != I
        pytest.param(Matrix([[2, 0, 0], [0, 1, 0]]), False, id="na-not-identity"),
        # N >= 0, but N A is 3x2
        pytest.param(Matrix.identity(3), False, id="na-too-tall"),
    ],
)
def test_left_inverse_table(n, expected):
    assert classify.is_nonneg_left_inverse(LIFT, n) is expected


@pytest.mark.parametrize(
    "u, expected",
    [
        pytest.param(Vector([-1, 1]), True, id="accepted"),
        # A u >= 0, but u has no negative entry
        pytest.param(Vector([1, 0]), False, id="u-nonnegative"),
        # u has a negative entry, but (A u)_1 = -1
        pytest.param(Vector([1, -1]), False, id="au-negative"),
    ],
)
def test_msp_probe_table(u, expected):
    assert classify.is_msp_probe(UPPER, u) is expected


def test_each_checker_raises_on_a_shape_that_does_not_fit():
    with pytest.raises(DimensionError):
        classify.is_sp_witness(SP_WITNESS_A, Vector([1, 0, 0]))
    with pytest.raises(DimensionError):
        classify.is_nonneg_left_inverse(LIFT, Matrix.identity(2))
    with pytest.raises(DimensionError):
        classify.is_msp_probe(UPPER, Vector([-1, 1, 0]))
    with pytest.raises(DimensionError, match="square"):
        classify.is_inverse_nonnegative(LIFT)


def test_left_inverse_needs_tall():
    with pytest.raises(DimensionError):
        classify.has_nonneg_left_inverse(Matrix([[1, 2, 3]]))


def test_monomial():
    with pytest.raises(DimensionError, match="square"):
        classify.is_monomial(Matrix([[1, 0]]))


@pytest.mark.parametrize("row", MATRICES, ids=[row.label for row in MATRICES])
def test_matrix_example(row):
    """Every fact of the row: by ``ratmat``, each decider and ``classify_all``,
    and again by the oracles, the Leibniz expansion for det, exact products
    for the inverse, vertex enumeration for semipositivity, ``msp_by_deletion``
    for minimal semipositivity and the checkers for each witness."""
    a, verdicts = row.a, row.verdicts()
    assert a.rank() == row.rank
    if a.is_square:
        assert a.det() == leibniz_det(a.entries) == row.det
        if row.inverse is None:
            with pytest.raises(SingularMatrixError):
                a.inverse()
        else:
            assert a.inverse() == row.inverse
            assert row.inverse @ a == Matrix.identity(a.rows) == a @ row.inverse
        assert classify.is_monomial(a) == verdicts[MONOMIAL]
        assert classify.is_inverse_nonnegative(a) == (verdicts[INVERSE_NONNEGATIVE], row.left_inverse)
    else:
        assert row.det is None and row.inverse is None
    assert (a.is_nonneg(), a.is_positive()) == (verdicts[NONNEGATIVE], verdicts[POSITIVE])
    assert classify.is_row_positive(a) == verdicts[ROW_POSITIVE]
    sp, witness = classify.is_semipositive(a)
    assert sp == verdicts[SP] == lp.feasible_nonneg_bruteforce(a, ones_vector(a.rows)).feasible
    assert sp == (witness is not None)
    assert witness is None or (witness.is_positive() and classify.is_sp_witness(a, witness))
    assert classify.is_minimally_semipositive(a) == verdicts[MSP] == classify.msp_by_deletion(a)
    if a.rows >= a.cols:
        assert classify.has_nonneg_left_inverse(a) == (row.left_inverse is not None, row.left_inverse)
    assert row.left_inverse is None or classify.is_nonneg_left_inverse(a, row.left_inverse)
    inverse = row.left_inverse if a.is_square else None
    assert classify.classify_all(a) == classify.ClassReport(
        a.shape, **verdicts, sp_witness=witness, inv=inverse, left_inv=row.left_inverse
    )


def test_the_result_records_keep_their_fields_order_and_defaults():
    required = inspect.Parameter.empty
    for record, fields in (
        (
            classify.ClassReport,
            [("shape", required), ("nonnegative", required), ("positive", required),
             ("row_positive", required), ("semipositive", required),
             ("minimally_semipositive", required), ("monomial", None),
             ("inverse_nonnegative", None), ("sp_witness", None), ("inv", None),
             ("left_inv", None)],
        ),
        (lp.FeasibilityResult, [("feasible", required), ("witness", None)]),
        (
            construct.NpCaseTrace,
            [("step1_case", required), ("step2_cases", required), ("step3_case", required),
             ("v_permutation", required), ("w_permutation", required), ("inverse", required)],
        ),
        (genfuzz.GenConfig, [("seed", required)]),
        (
            genfuzz.CampaignResult,
            [("name", required), ("trials", required), ("failures", required),
             ("counters", required), ("notes", ())],
        ),
    ):
        parameters = inspect.signature(record).parameters.values()
        assert [(p.name, p.default) for p in parameters] == fields, record
    result = lp.FeasibilityResult(True, Vector([1]))
    assert result.witness == Vector([1]) and result.status == "feasible"
    assert lp.FeasibilityResult(False) == lp.FeasibilityResult(False, None)
    assert lp.FeasibilityResult(False).status == "infeasible"
    with pytest.raises(AttributeError):
        result.feasible = False
    campaign = genfuzz.CampaignResult("c", 2, 1, {"k": 1})
    assert campaign.notes == () and not campaign.passed
    assert campaign._asdict() == {
        "name": "c", "trials": 2, "failures": 1, "counters": {"k": 1}, "notes": ()
    }


def test_square_msp_by_inverse_matches_oracles():
    # the preserver certificates decide square MSP by the inverse alone
    cfg = genfuzz.GenConfig(31)
    rng = random.Random("square-msp-oracle")
    verdicts = {"msp": set(), "sp": set(), "singular": set(), "random": set()}
    for n in range(2, 7):
        for t in range(3):
            sp = genfuzz.gen_sp(n, n, cfg, ("oracle", t))
            samples = {
                "msp": genfuzz.gen_msp(n, n, cfg, ("oracle", t)),
                "sp": sp,
                "singular": genfuzz.singular(sp),
                "random": genfuzz.int_matrix(rng, n, n),
            }
            for family, a in samples.items():
                by_inverse = classify.is_inverse_nonnegative(a)[0]
                assert by_inverse == classify.msp_by_deletion(a) == classify.is_minimally_semipositive(a), (family, a)
                verdicts[family].add(by_inverse)
    assert verdicts["msp"] == {True} and verdicts["singular"] == {False}
    assert False in verdicts["sp"] and False in verdicts["random"]


def test_msp_routes_agree():
    rng = random.Random("classify-msp")
    shapes = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4), (4, 2)]
    checked_square = 0
    for t in range(150):
        m, n = shapes[t % len(shapes)]
        a = genfuzz.int_matrix(rng, m, n)
        fast = classify.is_minimally_semipositive(a)
        assert fast == classify.msp_by_deletion(a)
        if m == n:
            # the decider settles a square A by its inverse; the LPs are the other opinion
            checked_square += 1
            assert fast == classify.left_inverse_by_lp(a)[0]
    assert checked_square > 0


def test_the_one_basis_left_inverse_agrees_with_n_independent_lps(phase1_runs):
    """Tall MSP draws and copies with one entry made negative: the left
    inverse read off one simplex basis, with its fallback LPs, gives the
    verdict of n independent equality LPs, and every N it returns verifies."""
    cfg = genfuzz.GenConfig(3)
    rng = random.Random("classify-one-basis")
    verdicts, fallbacks = set(), 0
    for m, n, count in ((3, 2, 10), (4, 3, 10), (6, 4, 10), (9, 6, 6), (12, 8, 6)):
        for a in genfuzz.iter_msp_mixture(m, n, cfg, count):
            rows = [list(row) for row in a.entries]
            i, j = rng.randrange(m), rng.randrange(n)
            rows[i][j] = -rows[i][j] - 1
            for b, msp in ((a, True), (Matrix(rows), None)):
                phase1_runs.clear()
                found, left = classify.left_inverse_by_lp(b)
                fallbacks += len(phase1_runs) - 1
                at = b.transpose()
                each = all(lp.equality_feasible_nonneg(at, basis_vector(n, k)).feasible for k in range(n))
                assert found == each and msp in (None, found), b
                assert (left is not None) == found, b
                if found:
                    assert classify.is_nonneg_left_inverse(b, left), b
                verdicts.add(found)
    assert verdicts == {True, False} and fallbacks > 0


def test_wide_matrices_use_definition():
    rng = random.Random("classify-wide")
    for _ in range(40):
        a = genfuzz.int_matrix(rng, 2, rng.randint(3, 4))
        assert not classify.is_minimally_semipositive(a) and not classify.msp_by_deletion(a)


def test_wide_msp_is_decided_without_lp(lp_calls):
    wide = Matrix([[1, 2, 0, 1], [0, 1, 3, 1]])
    assert not classify.is_minimally_semipositive(wide)
    assert lp_calls == []
    report = classify.classify_all(wide)
    assert report.semipositive and not report.minimally_semipositive
    assert lp_calls == ["feasible_nonneg"]


def test_a_square_classify_all_takes_its_left_inverse_from_its_inverse(lp_calls):
    cfg = genfuzz.GenConfig(1)
    msp = set()
    for a in (genfuzz.gen_msp(12, 12, cfg, 0), EXAMPLE_B, genfuzz.gen_sp(4, 4, cfg, 0), ONES_2):
        report = classify.classify_all(a)
        assert report.left_inv == report.inv
        assert (report.left_inv is not None) == report.minimally_semipositive
        msp.add(report.minimally_semipositive)
    assert msp == {True, False} and "equality_feasible_nonneg_each" not in lp_calls
    # a tall A still takes the equality LPs
    assert classify.classify_all(LIFT).left_inv is not None
    assert "equality_feasible_nonneg_each" in lp_calls


def test_rank_deficient_msp_is_refuted_without_lp(lp_calls):
    rng = random.Random("classify-rank-deficient")
    semipositive = 0
    for _ in range(60):
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        m = max(m, n)
        rows = genfuzz.int_rows(rng, m, n)
        # the last column a combination of the others, so rank < n
        c = rng.randint(-2, 2)
        for row in rows:
            row[-1] = row[0] + c * row[-2] if n > 2 else c * row[0]
        a = Matrix(rows)
        assert a.rank() < n
        assert not classify.is_minimally_semipositive(a)
        assert lp_calls == []
        semipositive += classify.is_semipositive(a)[0]
        assert not classify.msp_by_deletion(a)
        lp_calls.clear()
    assert semipositive > 0


def test_a_nonpositive_row_refutes_semipositivity_without_lp(lp_calls):
    rng = random.Random("classify-nonpositive-row")
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = genfuzz.int_rows(rng, m, n)
        forced = rng.randrange(m)
        rows[forced] = [-abs(v) for v in rows[forced]]
        a = Matrix(rows)
        assert classify.is_semipositive(a) == (False, None)
        assert lp_calls == []
        assert not lp.feasible_nonneg_bruteforce(a, ones_vector(m)).feasible


def test_lp_and_sign_tests_leave_the_fraction_grid_unbuilt(entries_reads):
    # they run on the integer rows; ``entries`` builds the Fraction grid anew
    a = Matrix([[0, "1/2", 0], [0, 0, 3], ["2/3", 0, 0]]) @ Matrix(
        [[1, 0, 0], [0, "1/5", 0], [0, 0, 7]]
    )
    rhs = Vector(["1/2", -3, "7/4"])
    assert not lp.feasible_nonneg(-a, rhs).feasible
    assert lp.feasible_nonneg(a, rhs).feasible
    assert not lp.equality_feasible_nonneg(a, rhs).feasible
    assert lp.equality_feasible_nonneg(a, ones_vector(3)).feasible
    assert classify.is_semipositive(a)[0] and not classify.is_semipositive(-a)[0]
    assert classify.is_monomial(a)
    assert entries_reads == []


def test_monomial_characterization():
    rng = random.Random("classify-monomial")
    for t in range(150):
        n = rng.randint(1, 6)
        if t % 3 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            a = Matrix(
                [
                    [rng.randint(1, 3) if j == perm[i] else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
        else:
            a = genfuzz.int_matrix(rng, n, n)
        expected = classify.is_row_positive(a) and classify.is_inverse_nonnegative(a)[0]
        assert classify.is_monomial(a) == expected


def test_row_positive_implies_semipositive():
    rng = random.Random("classify-rowpos")
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = genfuzz.row_positive_int_matrix(rng, m, n)
        ok, witness = classify.is_semipositive(a)
        assert ok and witness.is_positive() and (a @ witness).is_positive()


def test_report_internal_consistency():
    rng = random.Random("classify-report")
    for _ in range(60):
        n = rng.randint(1, 4)
        report = classify.classify_all(genfuzz.int_matrix(rng, n, n))
        if report.monomial:
            assert report.row_positive and report.inverse_nonnegative
        if report.row_positive and report.inverse_nonnegative:
            assert report.monomial
        if report.minimally_semipositive:
            assert report.semipositive
        if report.sp_witness is not None:
            assert report.sp_witness.is_positive()


def test_feasible_sp_result_without_witness_raises(monkeypatch):
    monkeypatch.setattr(lp, "feasible_nonneg", lambda a, b: lp.FeasibilityResult(True))
    with pytest.raises(ArithmeticError, match="witness"):
        classify.is_semipositive(Matrix.identity(2))


def test_feasible_left_inverse_row_without_witness_raises(monkeypatch):
    # a tall A, [I; 1^T], as a square A is decided by its inverse with no LP
    monkeypatch.setattr(
        lp, "equality_feasible_nonneg_each", lambda m, cs: [lp.FeasibilityResult(True) for _ in cs]
    )
    with pytest.raises(ArithmeticError, match="witness"):
        classify.has_nonneg_left_inverse(LIFT)


def test_a_witness_that_fails_its_check_raises(monkeypatch):
    # no row of A is nonpositive, so the LP runs; a zero x, nudged to x + 1/24,
    # has A x < 0
    monkeypatch.setattr(lp, "feasible_nonneg", lambda a, b: lp.FeasibilityResult(True, Vector([0, 0])))
    with pytest.raises(ArithmeticError, match="perturbation failed"):
        classify.is_semipositive(Matrix([[1, -10], [-10, 1]]))


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(([0, -1, 1], [0, 1, 0]), id="n-not-nonnegative"),
        pytest.param(([1, 0, 0], [1, 1, 0]), id="na-not-identity"),
    ],
)
def test_a_left_inverse_that_fails_its_check_raises(monkeypatch, rows):
    def row(m, c):
        return lp.FeasibilityResult(True, Vector(rows[c[1] == 1]))

    monkeypatch.setattr(lp, "equality_feasible_nonneg_each", lambda m, cs: [row(m, c) for c in cs])
    with pytest.raises(ArithmeticError, match="left inverse verification failed"):
        classify.has_nonneg_left_inverse(LIFT)
