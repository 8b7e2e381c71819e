import json
import random
from fractions import Fraction

import golden
import pytest

from semipos import classify, genfuzz, lp
from semipos.ratmat import DimensionError, Matrix, Vector, basis_vector


def test_identity_system_feasible():
    r = lp.feasible_nonneg(Matrix.identity(2), Vector([1, 1]))
    assert r.feasible
    assert r.witness == Vector([1, 1])
    assert r.status == "feasible"


def test_negated_identity_infeasible():
    r = lp.feasible_nonneg(-Matrix.identity(2), Vector([1, 1]))
    assert not r.feasible and r.witness is None


def test_opposing_rows_infeasible():
    # adding the two constraints gives 0 >= 2
    r = lp.feasible_nonneg(Matrix([[1, -1], [-1, 1]]), Vector([1, 1]))
    assert not r.feasible


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        lp.feasible_nonneg(Matrix.identity(2), Vector([1, 1, 1]))
    with pytest.raises(DimensionError):
        lp.equality_feasible_nonneg(Matrix.identity(2), Vector([1]))
    with pytest.raises(DimensionError, match="b has dimension 3, matrix has 2 rows"):
        lp.feasible_nonneg_bruteforce(Matrix.identity(2), Vector([1, 1, 1]))


def test_equality_identity():
    r = lp.equality_feasible_nonneg(Matrix.identity(2), Vector([1, 0]))
    assert r.feasible and r.witness == Vector([1, 0])


def test_equality_conflicting_rows():
    r = lp.equality_feasible_nonneg(Matrix([[1], [1]]), Vector([1, -1]))
    assert not r.feasible


def test_equality_underdetermined():
    m = Matrix([[1, 1]])
    r = lp.equality_feasible_nonneg(m, Vector([2]))
    assert r.feasible
    assert m @ r.witness == Vector([2]) and r.witness.is_nonneg()


def test_degenerate_systems_terminate():
    # redundant and zero right-hand sides provoke degenerate pivots
    a = Matrix([[1, -1], [1, -1], [2, -2], [-1, 1]])
    r = lp.feasible_nonneg(a, Vector([0, 0, 0, 0]))
    assert r.feasible
    b = Matrix([[1, 1], [1, 1], [1, 1], [-1, -1]])
    r2 = lp.feasible_nonneg(b, Vector([1, 1, 1, -1]))
    assert r2.feasible
    r3 = lp.feasible_nonneg(b, Vector([1, 1, 1, -2]))
    assert r3.feasible


def test_bruteforce_matches_examples():
    assert lp.feasible_nonneg_bruteforce(Matrix.identity(2), Vector([1, 1])).feasible
    assert not lp.feasible_nonneg_bruteforce(
        Matrix([[1, -1], [-1, 1]]), Vector([1, 1])
    ).feasible
    assert not lp.equality_feasible_nonneg_bruteforce(
        Matrix([[1], [1]]), Vector([1, -1])
    ).feasible


def test_equality_bruteforce_rejects_a_bad_witness(monkeypatch):
    # an explicit check, so it also holds under python -O
    monkeypatch.setattr(
        lp, "feasible_nonneg_bruteforce", lambda a, b: lp.FeasibilityResult(True, Vector([2]))
    )
    with pytest.raises(ArithmeticError, match="M y = c"):
        lp.equality_feasible_nonneg_bruteforce(Matrix([[1]]), Vector([1]))


@pytest.mark.parametrize(
    "solve, z",
    [
        # A x = 2 >= 1, but x has a negative entry (z ends with the surplus)
        pytest.param(lp.feasible_nonneg, [-1, 3, 0], id="ge-x-not-nonnegative"),
        # x >= 0, but A x = 0 < 1
        pytest.param(lp.feasible_nonneg, [0, 0, 0], id="ge-ax-below-b"),
        # M y = 1, but y has a negative entry
        pytest.param(lp.equality_feasible_nonneg, [-1, 2], id="eq-y-not-nonnegative"),
        # y >= 0, but M y = 0 != 1
        pytest.param(lp.equality_feasible_nonneg, [0, 0], id="eq-my-not-c"),
    ],
)
def test_a_bad_simplex_witness_raises(monkeypatch, solve, z):
    # _phase1 returns each witness as integers over one denominator, one per rhs
    monkeypatch.setattr(lp, "_phase1", lambda rows, rhss: [(1, z)])
    with pytest.raises(ArithmeticError, match="invalid witness"):
        solve(Matrix([[1, 1]]), Vector([1]))


def _system(rng, family, m, n):
    """(A, b) with m rows and n columns.  "small": integers in -3..3.
    "rational": row i over its own denominator, drawn without repeats up to
    2^16, with 16-bit numerators; b of both signs over other denominators.
    "factor": row i and b_i are k_i in 2^30..2^40 times integers in -3..3,
    some rows have a zero first entry, and the last row may depend on two
    others; so pivots divide out a row's content and rescale zero-head rows."""
    if family == "small":
        return genfuzz.int_matrix(rng, m, n), genfuzz.int_vector(rng, m)
    if family == "factor":
        ks = [rng.randint(2**30, 2**40) for _ in range(m)]
        rows = [[k * rng.randint(-3, 3) for _ in range(n)] for k in ks]
        for row in rows:
            if rng.random() < 0.3:
                row[0] = 0
        b = [k * rng.randint(-3, 3) for k in ks]
        if m > 2 and rng.random() < 0.5:
            c = rng.randint(-3, 3)
            rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
            b[-1] = c * b[0] + b[1]
        return Matrix(rows), Vector(b)
    dens = rng.sample(range(1, 2**16 + 1), m)
    a = Matrix([[Fraction(rng.randint(-2**16, 2**16), den) for _ in range(n)] for den in dens])
    b = [Fraction(rng.randint(-2**16, 2**16), rng.randint(1, 2**16)) for _ in range(m)]
    return a, Vector(b)


def test_simplex_agrees_with_bruteforce():
    rng = random.Random("lp-agreement")
    for family, trials in (("small", 120), ("rational", 60), ("factor", 60)):
        seen = set()
        for _ in range(trials):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8 - n)
            a, b = _system(rng, family, m, n)
            fast = lp.feasible_nonneg(a, b)
            slow = lp.feasible_nonneg_bruteforce(a, b)
            assert fast.feasible == slow.feasible, f"disagreement on\n{a}\nb={b}"
            if fast.feasible:
                ax = a @ fast.witness
                assert fast.witness.is_nonneg() and all(ax[i] >= b[i] for i in range(m))
            seen.add(fast.feasible)
        assert seen == {True, False}, family


def test_equality_agrees_with_bruteforce():
    rng = random.Random("lp-eq-agreement")
    for family, trials in (("small", 60), ("rational", 40), ("factor", 40)):
        seen = set()
        for _ in range(trials):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            a, c = _system(rng, family, m, n)
            fast = lp.equality_feasible_nonneg(a, c)
            slow = lp.equality_feasible_nonneg_bruteforce(a, c)
            assert fast.feasible == slow.feasible, f"disagreement on\n{a}\nc={c}"
            if fast.feasible:
                assert fast.witness.is_nonneg() and a @ fast.witness == c
            seen.add(fast.feasible)
        assert seen == {True, False}, family


def _read(solution):
    """A ``_phase1`` solution (den, integers den z) as a Vector, or None."""
    return None if solution is None else Vector([Fraction(x, solution[0]) for x in solution[1]])


def test_riders_leave_the_driving_solve_as_it_was_on_every_golden_lp_system():
    rng = random.Random("lp-riders")
    shown = 0
    for label, v in json.loads(golden.path("lp").read_text()).items():
        a, b = Matrix(v["a"]), Vector(v["b"])
        # -b, a column of A (always feasible) and a rational vector of both signs
        column = a @ basis_vector(a.cols, rng.randrange(a.cols))
        drawn = Vector([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(a.rows)])
        riders = [-b, column, drawn]
        solutions = lp._phase1(a.integer_rows(), [b, *riders])
        assert solutions[0] == lp._phase1(a.integer_rows(), [b])[0], label
        for c, solution in zip(riders, solutions[1:]):
            y = _read(solution)
            if y is not None:
                shown += 1
                assert y.is_nonneg() and a @ y == c, label
                assert lp.equality_feasible_nonneg(a, c).feasible, label
    assert shown > 100


def test_a_rider_with_a_nonzero_entry_in_an_artificial_row_is_not_read_off():
    # y = (1, 1) ties the ratio test; row 0 takes y, and row 1's artificial
    # stays basic at 0 with rider entry c_1 - c_0
    m = Matrix([[1], [1]])
    solutions = lp._phase1(m.integer_rows(), [Vector([1, 1]), Vector([1, 2]), Vector([2, 2])])
    assert [_read(s) for s in solutions] == [Vector([1]), None, Vector([2])]
    results = lp.equality_feasible_nonneg_each(m, [Vector([1, 1]), Vector([2, 2]), Vector([1, 2])])
    assert [r.feasible for r in results] == [True, True, False]


def test_a_negative_driving_rhs_entry_negates_the_riders_in_its_row():
    m = Matrix([[1, 0], [0, -1]])
    cs = [Vector([1, -1]), Vector(["1/2", "-3/4"]), Vector([0, -2])]
    solutions = lp._phase1(m.integer_rows(), cs)
    assert [_read(s) for s in solutions] == [Vector([1, 1]), Vector(["1/2", "3/4"]), Vector([0, 2])]


def test_a_left_inverse_of_a_12x8_draw_takes_one_simplex(phase1_runs):
    for a in genfuzz.iter_msp_mixture(12, 8, genfuzz.GenConfig(3), 6):
        phase1_runs.clear()
        assert classify.left_inverse_by_lp(a)[0]
        assert phase1_runs == [8]


def test_each_stops_at_the_first_infeasible_column():
    m = Matrix.identity(2)
    cs = [Vector([1, 0]), Vector([-1, 0]), Vector([0, 1])]
    assert [r.feasible for r in lp.equality_feasible_nonneg_each(m, cs)] == [True, False]
    assert lp.equality_feasible_nonneg_each(m, []) == []
    with pytest.raises(DimensionError):
        lp.equality_feasible_nonneg_each(m, [Vector([1, 0]), Vector([1])])
