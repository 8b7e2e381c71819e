import random
from fractions import Fraction

import pytest

from semipos import lp
from semipos.ratmat import DimensionError, Matrix, Vector


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
    monkeypatch.setattr(lp, "_phase1", lambda rows, rhs: [Fraction(v) for v in z])
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
        a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        return a, Vector([rng.randint(-3, 3) for _ in range(m)])
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
