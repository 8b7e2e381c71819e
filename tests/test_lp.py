import random

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


def test_simplex_agrees_with_bruteforce():
    rng = random.Random("lp-agreement")
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8 - n)
        a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        b = Vector([rng.randint(-3, 3) for _ in range(m)])
        fast = lp.feasible_nonneg(a, b)
        slow = lp.feasible_nonneg_bruteforce(a, b)
        assert fast.feasible == slow.feasible, f"disagreement on\n{a}\nb={b}"


def test_equality_agrees_with_bruteforce():
    rng = random.Random("lp-eq-agreement")
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        c = Vector([rng.randint(-3, 3) for _ in range(m)])
        fast = lp.equality_feasible_nonneg(a, c)
        slow = lp.equality_feasible_nonneg_bruteforce(a, c)
        assert fast.feasible == slow.feasible, f"disagreement on\n{a}\nc={c}"
