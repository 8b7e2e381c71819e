import inspect
import random

import pytest

from semipos import classify, construct, genfuzz, lp
from semipos.ratmat import DimensionError, Matrix, Vector, basis_vector, ones_vector

EXAMPLE_B = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])
ONES_2 = Matrix([[1, 1], [1, 1]])


# each checker's table: one accepted case, then each condition failing on its own
SP_WITNESS_A = Matrix([[1, -2], [1, 3]])
LEFT_INVERSE_A = Matrix([[1, 0], [0, 1], [1, 1]])
PROBE_A = Matrix([[1, 1], [0, 1]])


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
    assert classify.is_nonneg_left_inverse(LEFT_INVERSE_A, n) is expected


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
    assert classify.is_msp_probe(PROBE_A, u) is expected


def test_each_checker_raises_on_a_shape_that_does_not_fit():
    with pytest.raises(DimensionError):
        classify.is_sp_witness(SP_WITNESS_A, Vector([1, 0, 0]))
    with pytest.raises(DimensionError):
        classify.is_nonneg_left_inverse(LEFT_INVERSE_A, Matrix.identity(2))
    with pytest.raises(DimensionError):
        classify.is_msp_probe(PROBE_A, Vector([-1, 1, 0]))
    with pytest.raises(DimensionError, match="square"):
        classify.is_inverse_nonnegative(LEFT_INVERSE_A)


def test_semipositive_identity():
    ok, witness = classify.is_semipositive(Matrix.identity(3))
    assert ok and witness.is_positive()
    assert (Matrix.identity(3) @ witness).is_positive()


def test_semipositive_negated_identity():
    assert classify.is_semipositive(-Matrix.identity(2)) == (False, None)


def test_semipositive_opposing_rows():
    assert classify.is_semipositive(Matrix([[1, -1], [-1, 1]]))[0] is False


def test_semipositive_example_matrix():
    ok, witness = classify.is_semipositive(EXAMPLE_B)
    assert ok
    assert witness.is_positive() and (EXAMPLE_B @ witness).is_positive()


def test_left_inverse_identity():
    ok, n = classify.has_nonneg_left_inverse(Matrix.identity(3))
    assert ok and n == Matrix.identity(3)


def test_left_inverse_tall():
    a = Matrix([[1, 0], [0, 1], [1, 1]])
    ok, n = classify.has_nonneg_left_inverse(a)
    assert ok and n == Matrix([[1, 0, 0], [0, 1, 0]])
    assert n @ a == Matrix.identity(2)


def test_left_inverse_singular():
    assert classify.has_nonneg_left_inverse(ONES_2) == (False, None)


def test_left_inverse_needs_tall():
    with pytest.raises(DimensionError):
        classify.has_nonneg_left_inverse(Matrix([[1, 2, 3]]))


def test_msp_examples():
    assert classify.is_minimally_semipositive(Matrix.identity(2))
    assert classify.is_minimally_semipositive(Matrix([[2, -1], [-1, 2]]))
    assert not classify.is_minimally_semipositive(ONES_2)
    assert classify.is_minimally_semipositive(Matrix([[1], [2]]))
    assert not classify.is_minimally_semipositive(Matrix([[1], [0]]))


def test_msp_by_deletion_examples():
    assert classify.msp_by_deletion(Matrix.identity(2))
    assert not classify.msp_by_deletion(ONES_2)
    assert classify.msp_by_deletion(Matrix([[1, 0], [0, 1], [1, 1]]))


def test_row_positive():
    assert classify.is_row_positive(Matrix.identity(3))
    assert not classify.is_row_positive(Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]]))
    assert not classify.is_row_positive(Matrix([[1, 1], [0, 0]]))


def test_monomial():
    assert classify.is_monomial(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert not classify.is_monomial(ONES_2)
    assert classify.is_monomial(Matrix([[0, 2], [3, 0]]))
    # one nonzero per row, but column 0 holds two
    assert not classify.is_monomial(Matrix([[1, 0], [2, 0]]))
    with pytest.raises(DimensionError):
        classify.is_monomial(Matrix([[1, 0]]))


def test_inverse_nonnegative():
    ok, inv = classify.is_inverse_nonnegative(Matrix.identity(2))
    assert ok and inv == Matrix.identity(2)
    ok, inv = classify.is_inverse_nonnegative(Matrix([[2, -1], [-1, 2]]))
    assert ok and inv == Matrix([["2/3", "1/3"], ["1/3", "2/3"]])
    assert classify.is_inverse_nonnegative(Matrix([[1, 0], [1, 1]])) == (False, None)
    assert classify.is_inverse_nonnegative(ONES_2) == (False, None)


def test_classify_all_identity():
    report = classify.classify_all(Matrix.identity(3))
    assert report.semipositive and report.minimally_semipositive
    assert report.monomial and report.row_positive and report.inverse_nonnegative
    assert report.left_inv == Matrix.identity(3)


def test_classify_all_example_matrix():
    # nonnegative and invertible, but its inverse has negative entries
    report = classify.classify_all(EXAMPLE_B)
    assert report.semipositive and report.row_positive
    assert report.nonnegative and not report.positive
    assert not report.monomial and not report.inverse_nonnegative
    assert not report.minimally_semipositive and report.left_inv is None


def test_classify_all_ones():
    report = classify.classify_all(ONES_2)
    assert report.semipositive and not report.minimally_semipositive
    assert not report.monomial and not report.inverse_nonnegative
    assert report.inv is None and report.left_inv is None


def test_classify_all_rectangular_skips_square_fields():
    report = classify.classify_all(Matrix([[1, 0], [0, 1], [1, 1]]))
    assert report.monomial is None and report.inverse_nonnegative is None
    assert report.minimally_semipositive


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
    assert classify.classify_all(LEFT_INVERSE_A).left_inv is not None
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
        classify.has_nonneg_left_inverse(LEFT_INVERSE_A)


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
        classify.has_nonneg_left_inverse(LEFT_INVERSE_A)
