"""Tests of ``classify``: the evidence checkers, the deciders and ``classify_all``.

``CORPUS`` is the one seeded set of classify inputs: 520 matrices up to 6x6,
square, tall, wide and one-column, each drawn by the next of ten slots:
``gen_msp``, ``gen_sp`` and its ``singular`` copy (the last row repeating the
first), ``int_matrix`` in -3..3 on a tall or square shape (two slots),
``int_matrix`` in -1..3 with a repeated row, a row forced nonpositive, a last
column dependent on the others, ``row_positive_int_matrix`` and positive
monomials (``gen_monomial``).  The module fixture ``corpus`` makes one pass
over it, recording the deciders' verdicts, ``classify_all``'s report, the LPs
and solves each ran, and the oracles: vertex enumeration
(``lp.feasible_nonneg_bruteforce``, where m + n <= 10) for semipositivity,
``msp_by_deletion`` for minimal semipositivity and, on a square row, the
inverse and ``left_inverse_by_lp``.  Ten tests each check one property on
every record: the deciders against the oracles, the LPs and solves each route
of ``is_minimally_semipositive`` takes (none for a nonpositive row, a wide
shape or rank below n, no equality LP for a square row), the one inverse or
left inverse ``classify_all`` takes, and a coverage floor for each
(SP, MSP, shape) cell and each route.  ``tests/test_metamorphic.py`` checks
the symmetries of the classes on the same rows.  ``test_matrix_example`` checks every row of
``examples.MATRICES``, and the directed tests each checker's table and the
raises.
"""

import inspect
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from examples import (
    INVERSE_NONNEGATIVE, LIFT, MATRICES, MONOMIAL, MSP, NONNEGATIVE, POSITIVE, ROW_POSITIVE, SP, UPPER,
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


def corpus_rows(count):
    """``count`` seeded matrices up to 6x6, about half of them square, each
    drawn by the next of ten slots in turn (see the module docstring)."""
    rng = random.Random("classify-corpus")
    cfg = genfuzz.GenConfig(42)
    for t in range(count):
        m = rng.randint(1, 6)
        n = m if rng.random() < 0.4 else rng.randint(1, 6)
        family = t % 10
        if family == 0:
            yield genfuzz.gen_msp(max(m, n), min(m, n), cfg, t)
        elif family in (1, 2):
            sp = genfuzz.gen_sp(m, n, cfg, t)
            yield genfuzz.singular(sp) if family == 2 else sp
        elif family in (3, 9):
            yield genfuzz.int_matrix(rng, max(m, n), min(m, n))
        elif family == 4:
            yield genfuzz.singular(genfuzz.int_matrix(rng, m, n, -1, 3))
        elif family == 5:
            rows = genfuzz.int_rows(rng, m, n)
            forced = rng.randrange(m)
            rows[forced] = [-abs(v) for v in rows[forced]]
            yield Matrix(rows)
        elif family == 6:
            # the last column a combination of the others, so rank < n
            n, c = max(n, 2), rng.randint(-2, 2)
            rows = genfuzz.int_rows(rng, m, n)
            for row in rows:
                row[-1] = row[0] + c * row[-2]
            yield Matrix(rows)
        elif family == 7:
            yield genfuzz.row_positive_int_matrix(rng, m, n)
        else:
            yield genfuzz.gen_monomial(m, cfg, t)


CORPUS = list(corpus_rows(520))


# the LPs and solves ``is_minimally_semipositive`` runs on each route
ROUTE_CALLS = {
    "nonpositive-row": [], "wide": [], "rank-below-n": [], "not-sp": ["feasible_nonneg"],
    "inverse": ["feasible_nonneg", "inverse"],
    "left-inverse-lp": ["feasible_nonneg", "left_inverse_by_lp", "equality_feasible_nonneg_each"],
}
COUNTED = [(lp, "feasible_nonneg"), (lp, "equality_feasible_nonneg"), (lp, "equality_feasible_nonneg_each")]
COUNTED += [(Matrix, "inverse"), (classify, "left_inverse_by_lp")]


@pytest.fixture(scope="module")
def corpus():
    """The one pass over ``CORPUS``, one record a row: the deciders' verdicts
    and ``classify_all``'s report, the LPs and solves each of the three ran
    (``COUNTED``), the route ``is_minimally_semipositive`` takes, and the
    oracles' verdicts; the tests below each check one property on every row."""
    calls = []

    def counted(decide, a):
        calls.clear()
        return decide(a), list(calls)

    records = []
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in COUNTED:
            solve = getattr(owner, name)
            patch.setattr(owner, name, lambda *args, solve=solve, name=name: calls.append(name) or solve(*args))
        for a in CORPUS:
            m, n = a.shape
            (sp, x), sp_calls = counted(classify.is_semipositive, a)
            msp, msp_calls = counted(classify.is_minimally_semipositive, a)
            report, report_calls = counted(classify.classify_all, a)
            # a row with no positive entry, found without the library's sign test
            nonpositive_row = any(all(v <= 0 for v in row) for row in a.entries)
            records.append(SimpleNamespace(
                a=a, shape="square" if m == n else "tall" if m > n else "wide", nonpositive_row=nonpositive_row,
                sp=sp, x=x, msp=msp, report=report, sp_calls=sp_calls, msp_calls=msp_calls, report_calls=report_calls,
                # the step of is_minimally_semipositive that settles a "no", or the left inverse it ends in
                route=(
                    "nonpositive-row" if nonpositive_row else "wide" if m < n else "rank-below-n" if a.rank() < n
                    else "not-sp" if not sp else "inverse" if m == n else "left-inverse-lp"
                ),
                by_deletion=classify.msp_by_deletion(a),
                by_vertices=lp.feasible_nonneg_bruteforce(a, ones_vector(m)).feasible if m + n <= 10 else None,
                by_lp=classify.left_inverse_by_lp(a)[0] if m == n else None,
            ))
    return records


def test_square_msp_by_inverse_matches_oracles(corpus):
    # the preserver certificates decide square MSP by the inverse alone
    square = [r for r in corpus if r.shape == "square"]
    for r in square:
        assert r.msp == r.report.inverse_nonnegative == r.by_deletion == r.by_lp, r.a
    verdicts = Counter(r.msp for r in square)
    assert verdicts[True] >= 50 and verdicts[False] >= 100, verdicts


def test_msp_routes_agree(corpus):
    routes = Counter()
    for r in corpus:
        assert r.msp == r.by_deletion and (r.sp or not r.msp), r.a
        assert r.msp_calls == ROUTE_CALLS[r.route], r.a
        routes[r.route] += 1
    floors = {"nonpositive-row": 100, "wide": 40, "rank-below-n": 50, "not-sp": 5, "inverse": 100, "left-inverse-lp": 50}
    assert all(routes[route] >= floor for route, floor in floors.items()), routes


def test_wide_matrices_use_definition(corpus):
    wide = [r for r in corpus if r.shape == "wide"]
    assert len(wide) >= 40 and not any(r.msp or r.by_deletion for r in wide)


def test_wide_msp_is_decided_without_lp(corpus):
    semipositive = 0
    for r in corpus:
        if r.shape == "wide":
            # classify_all runs is_semipositive's LP and nothing else
            assert r.msp_calls == [] and r.report_calls == r.sp_calls, r.a
            semipositive += r.report.semipositive
    assert semipositive >= 10


def test_a_square_classify_all_takes_its_left_inverse_from_its_inverse(corpus):
    msp = Counter()
    for r in corpus:
        solves = [r.report_calls.count(name) for name in ("inverse", "left_inverse_by_lp", "equality_feasible_nonneg_each")]
        # a square A takes one inverse and no LP for it; a tall A one left inverse by the equality LPs
        assert solves == [r.shape == "square", r.shape == "tall", r.shape == "tall"], r.a
        if r.shape == "square":
            assert "left_inverse_by_lp" not in r.msp_calls, r.a
            assert r.report.left_inv == r.report.inv and (r.report.left_inv is not None) == r.msp, r.a
            msp[r.msp] += 1
    assert msp[True] >= 50 and msp[False] >= 100, msp


def test_rank_deficient_msp_is_refuted_without_lp(corpus):
    deficient = [r for r in corpus if r.route == "rank-below-n"]
    for r in deficient:
        assert r.a.rank() < r.a.cols and r.msp_calls == [], r.a
        assert not r.msp and not r.by_deletion, r.a
    assert len(deficient) >= 50 and sum(r.sp for r in deficient) >= 10


def test_a_nonpositive_row_refutes_semipositivity_without_lp(corpus):
    nonpositive = [r for r in corpus if r.nonpositive_row]
    for r in nonpositive:
        assert (r.sp, r.x) == (False, None) and r.sp_calls == r.msp_calls == [], r.a
        assert r.by_vertices in (None, False), r.a
    assert len(nonpositive) >= 100


def test_monomial_characterization(corpus):
    monomial = Counter()
    for r in corpus:
        if r.shape == "square":
            # the report's verdicts are is_monomial's, is_row_positive's and is_inverse_nonnegative's
            report = r.report
            assert report.monomial == (report.row_positive and report.inverse_nonnegative), r.a
            monomial[report.monomial] += 1
    assert monomial[True] >= 40 and monomial[False] >= 100, monomial


def test_row_positive_implies_semipositive(corpus):
    # and every "yes" carries a positive witness that checks, and vertex enumeration agrees
    row_positive, by_vertices = 0, 0
    for r in corpus:
        assert r.sp or not r.report.row_positive, r.a
        assert (r.x is not None) == r.sp and (not r.sp or r.x.is_positive() and classify.is_sp_witness(r.a, r.x)), r.a
        assert r.by_vertices in (None, r.sp), r.a
        row_positive += r.report.row_positive
        by_vertices += r.by_vertices is not None
    assert row_positive >= 50 and by_vertices >= 300


def test_report_internal_consistency(corpus):
    cells, left_not_sp = Counter(), 0
    for r in corpus:
        report = r.report
        assert (report.semipositive, report.minimally_semipositive, report.sp_witness) == (r.sp, r.msp, r.x), r.a
        assert report.semipositive or not report.minimally_semipositive, r.a
        cells[r.sp, r.msp, r.shape] += 1
        left_not_sp += report.left_inv is not None and not r.sp
    # (SP, MSP, shape): every cell that can occur, a wide matrix never MSP, and one-column rows among them
    assert len(cells) == 8 and min(cells.values()) >= 10, cells
    assert left_not_sp >= 20 and sum(r.a.cols == 1 for r in corpus) >= 50


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
