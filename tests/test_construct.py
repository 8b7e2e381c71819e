"""Tests of ``construct``: the builders and the mixed-sign vector.

``CORPUS`` is the one seeded set of builder inputs: (v, w) pairs for
n = 1..12, drawn from one ``random.Random`` in four families: mixed integer v
with nonzero w in -4..4 (n = 3..7); integer pairs in -3..3, each followed by
a nonnegative v in 0..3 with a positive w in 1..4 (n = 2..8); rational pairs
whose entries take each sign of {-1, 0, 1} (n = 2..12); and rational v of
every zero/positive pattern up to n = 5, and four patterns for each
n = 6..12, with positive w.  The module fixtures ``np_built`` and
``pos_built`` run ``build_np`` and ``build_pos`` once on every pair the
builder accepts, and four tests check each result: the case letters against
the sign tables, B against the permutation products, and the returned B^-1
against the eliminated inverse, with a floor of every case letter and every
zero/positive pattern up to n = 5.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from examples import DIAG_NEG, EXAMPLE_B, LOWER, ONES_2, SIGNED_X
from semipos import construct, genfuzz
from semipos.ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    Vector,
    permutation_matrix,
)


def test_build_np_worked_example():
    v = Vector([1, 0, -5, -1])
    w = Vector([3, 2, -10, 0])
    b, trace = construct.build_np(v, w)
    assert b == EXAMPLE_B
    assert b @ v == w
    assert trace.step1_case == "a"
    assert trace.step2_cases == ("c", "e")
    assert trace.step3_case == "e"
    assert trace.v_permutation == (0, 1, 2, 3)
    assert trace.w_permutation == (0, 1, 2, 3)


def test_build_np_2x2_positive_head():
    b, trace = construct.build_np(Vector([1, -1]), Vector([1, 0]))
    assert b == LOWER
    assert (trace.step1_case, trace.step3_case) == ("a", "e")


def test_build_np_2x2_negative_head():
    b, trace = construct.build_np(Vector([1, -1]), Vector([-1, 2]))
    assert b == Matrix([[0, 1], [2, 0]])
    assert (trace.step1_case, trace.step3_case) == ("b", "a")


def test_build_np_applies_permutations():
    v = Vector([-2, 0, 3])
    w = Vector([0, 0, 5])
    b, trace = construct.build_np(v, w)
    assert b.is_nonneg() and b.det() != 0 and b @ v == w
    assert trace.v_permutation != (0, 1, 2)
    assert trace.w_permutation != (0, 1, 2)


def test_build_np_preconditions():
    with pytest.raises(InvalidInputError):
        construct.build_np(Vector([1, 1]), Vector([1, 1]))  # v not mixed
    with pytest.raises(InvalidInputError):
        construct.build_np(Vector([1, -1]), Vector([0, 0]))  # w zero
    with pytest.raises(InvalidInputError):
        construct.build_np(Vector([1]), Vector([1]))  # no 1-dim mixed vector
    with pytest.raises(InvalidInputError):
        construct.build_np(Vector([1, -1]), Vector([1, 1, 1]))


# (sign of w_i, sign of v_i) -> build_np's interior case letter
INTERIOR_CASES = {
    (1, 1): "a", (1, -1): "b", (1, 0): "c",
    (-1, 1): "d", (-1, -1): "e", (-1, 0): "f",
    (0, 1): "g", (0, -1): "h", (0, 0): "i",
}
# (sign of w_n, sign of w_1) -> its tail case letter, "e" when w_n = 0
TAIL_CASES = {(1, -1): "a", (1, 1): "b", (-1, -1): "c", (-1, 1): "d"}


def test_build_np_case_letters_match_sign_patterns(np_built):
    for v, w, _, trace in np_built:
        vp = permutation_matrix(trace.v_permutation) @ v
        wp = permutation_matrix(trace.w_permutation) @ w
        assert trace.step1_case == ("a" if wp[0] > 0 else "b"), (v, w)
        for idx, case in enumerate(trace.step2_cases, start=1):
            assert INTERIOR_CASES[_sign(wp[idx]), _sign(vp[idx])] == case, (v, w)
        tail = "e" if wp[-1] == 0 else TAIL_CASES[_sign(wp[-1]), _sign(wp[0])]
        assert trace.step3_case == tail, (v, w)


def _sign(q):
    return (q > 0) - (q < 0)


def _rational(rng, sign):
    """A random rational of the given sign (-1, 0 or 1)."""
    return sign * Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _drawn(rng, n, signs, accept):
    while True:
        u = Vector([_rational(rng, rng.choice(signs)) for _ in range(n)])
        if accept(u):
            return u


def corpus_pairs():
    """The (v, w) pairs of ``CORPUS``, family by family (see the module docstring)."""
    rng = random.Random("construct-corpus")
    for n in range(3, 8):
        for _ in range(12):
            yield genfuzz.mixed_int_vector(rng, n, 4), genfuzz.nonzero_int_vector(rng, n, -4, 4)
    for n in range(2, 9):
        for _ in range(12):
            yield genfuzz.int_vector(rng, n), genfuzz.int_vector(rng, n)
            yield genfuzz.int_vector(rng, n, 0, 3), genfuzz.int_vector(rng, n, 1, 4)
    for n in range(2, 13):
        for _ in range(12):
            yield _drawn(rng, n, (-1, 0, 1), Vector.has_mixed_signs), _drawn(rng, n, (-1, 0, 1), lambda u: not u.is_zero())
    # every zero/positive pattern of v up to n = 5; beyond it one positive
    # entry first, one last, all positive and one random pattern
    masks = [(n, mask) for n in range(1, 6) for mask in range(1, 2**n)]
    masks += [(n, mask) for n in range(6, 13) for mask in (2 ** (n - 1), 1, 2**n - 1, rng.randrange(1, 2**n))]
    for n, mask in masks:
        yield Vector([_rational(rng, int(bit)) for bit in format(mask, f"0{n}b")]), _drawn(rng, n, (1,), Vector.is_positive)


CORPUS = list(corpus_pairs())


@pytest.fixture(scope="module")
def np_built():
    """(v, w, B, trace) for each pair of ``CORPUS`` that ``build_np`` accepts."""
    return [(v, w, *construct.build_np(v, w)) for v, w in CORPUS if v.has_mixed_signs() and not w.is_zero()]


@pytest.fixture(scope="module")
def pos_built():
    """(v, w, B, B^-1) for each pair of ``CORPUS`` that ``build_pos`` accepts."""
    return [(v, w, *construct.build_pos(v, w)) for v, w in CORPUS if v.is_nonneg() and not v.is_zero() and w.is_positive()]


def test_build_pos_examples():
    assert construct.build_pos(Vector([1, 0]), Vector([1, 1]))[0] == LOWER
    assert construct.build_pos(Vector([1, 1]), Vector([1, 1]))[0] == Matrix(
        [[1, 0], ["1/2", "1/2"]]
    )
    assert construct.build_pos(Vector([2]), Vector([3]))[0] == Matrix([["3/2"]])


def test_build_pos_preconditions():
    with pytest.raises(InvalidInputError):
        construct.build_pos(Vector([1, -1]), Vector([1, 1]))
    with pytest.raises(InvalidInputError):
        construct.build_pos(Vector([0, 0]), Vector([1, 1]))
    with pytest.raises(InvalidInputError):
        construct.build_pos(Vector([1, 1]), Vector([1, 0]))
    with pytest.raises(InvalidInputError, match="same dimension"):
        construct.build_pos(Vector([1, 1]), Vector([1, 1, 1]))


def _np_by_permutation_products(v, w):
    """build_np's matrix as Q^T R P, with P and Q the permutation matrices of
    sigma and tau and R the normalized rows."""
    sigma, tau = construct._np_permutations(v, w)
    p, q = permutation_matrix(sigma), permutation_matrix(tau)
    vp, wp = p @ v, q @ w
    n = v.dim
    cases = [construct._np_head_row(vp, wp)]
    cases += [construct._np_interior_row(i, vp, wp) for i in range(1, n - 1)]
    cases.append(construct._np_tail_row(vp, wp))
    rows = [[entries.get(l, 0) for l in range(n)] for entries, _ in cases]
    return q.transpose() @ Matrix(rows) @ p


def _pos_by_permutation_product(v, w):
    """build_pos's matrix as C R, with C lower triangular on the reordered
    coordinates and R the permutation matrix of ``positive_first_permutation``."""
    r = permutation_matrix(construct.positive_first_permutation(v))
    vp = r @ v
    n = v.dim
    k = sum(1 for x in vp.entries if x > 0)
    first = [w[0] / vp[0]] + [w[i] / (2 * vp[0]) if i < k else w[i] / vp[0] for i in range(1, n)]
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][0] = first[i]
    for j in range(1, n):
        c[j][j] = w[j] / (2 * vp[j]) if j < k else 1
    return Matrix(c) @ r


def test_builders_agree_with_the_permutation_products(np_built, pos_built):
    for v, w, b, _ in np_built:
        assert b == _np_by_permutation_products(v, w), (v, w)
    for v, w, b, _ in pos_built:
        assert b == _pos_by_permutation_product(v, w), (v, w)


def test_build_rect_mixed_row():
    v = Vector([1, -1, 0])
    b = construct.build_rect(v, Vector([5]))
    assert b.shape == (1, 3)
    assert b.is_nonneg() and b.rank() == 1
    assert b @ v == Vector([5])


def test_build_rect_nonneg_branch():
    v = Vector([1, 0, 2])
    w = Vector([1, 1])
    b = construct.build_rect(v, w)
    assert b.shape == (2, 3)
    assert b.is_nonneg() and b.rank() == 2 and b @ v == w


def test_build_rect_preconditions():
    with pytest.raises(InvalidInputError):
        construct.build_rect(Vector([1, 1]), Vector([1, 1]))  # not longer
    with pytest.raises(InvalidInputError):
        construct.build_rect(Vector([1, 0, 2]), Vector([1, -1]))  # w not positive
    with pytest.raises(InvalidInputError):
        construct.build_rect(Vector([-1, -1, 0]), Vector([1]))  # v <= 0


_NOT_NONNEG = Matrix([[6, 1, -1], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize(
    "builder, v, w, helper, bad",
    [
        # a zero tail row: B = [[1, 0], [0, 0]] is singular and B v = (1, 0)
        pytest.param(
            "build_np", [1, -1], [1, 1], "_np_tail_row", lambda vp, wp: ({}, "a"), id="np-zero-row"
        ),
        # B = [[2, 0], [2, 1]] is nonnegative and invertible, but B v = (2, 1)
        pytest.param(
            "build_np", [1, -1], [1, 1], "_np_head_row", lambda vp, wp: ({0: 2}, "a"), id="np-image"
        ),
        # the unit entries of the zero positions of v zeroed: B = [[1, 0], [1, 0]] >= 0
        # with B v = w, but singular
        pytest.param("build_pos", [1, 0], [1, 1], "_ONE", Fraction(0), id="pos-rank"),
        # the top row [6, 1, -1] has full row rank and maps v to 5, but is not >= 0
        pytest.param(
            "build_rect",
            [1, -1, 0],
            [5],
            "build_np",
            lambda v, w: (_NOT_NONNEG, SimpleNamespace(inverse=_NOT_NONNEG.inverse())),
            id="rect-sign",
        ),
    ],
)
def test_a_builder_rejects_a_bad_result(monkeypatch, builder, v, w, helper, bad):
    monkeypatch.setattr(construct, helper, bad)
    with pytest.raises(ArithmeticError, match=f"{builder} postcondition check failed"):
        getattr(construct, builder)(Vector(v), Vector(w))


def test_build_np_inverse_is_the_eliminated_inverse_in_every_case(np_built):
    head, interior, tail = set(), set(), set()
    for v, w, b, trace in np_built:
        assert trace.inverse == b.inverse(), (v, w)
        assert b @ trace.inverse == Matrix.identity(v.dim)
        head.add(trace.step1_case)
        interior.update(trace.step2_cases)
        tail.add(trace.step3_case)
    assert (head, interior, tail) == (set("ab"), set("abcdefghi"), set("abcde"))


def test_build_pos_inverse_is_the_eliminated_inverse_for_every_pattern(pos_built):
    patterns = set()
    for v, w, b, inv in pos_built:
        assert inv == b.inverse(), (v, w)
        assert b @ inv == Matrix.identity(v.dim)
        patterns.add("".join("1" if x > 0 else "0" for x in v.entries))
    # every zero/positive pattern of v up to n = 5
    assert {format(mask, f"0{n}b") for n in range(1, 6) for mask in range(1, 2**n)} <= patterns


def test_a_builder_rejects_a_wrong_inverse(monkeypatch):
    block_inverse = construct._block_inverse

    def one_entry_off(*args):
        rows = [list(row) for row in block_inverse(*args).entries]
        rows[-1][0] += 1
        return Matrix(rows)

    monkeypatch.setattr(construct, "_block_inverse", one_entry_off)
    for builder, v, w in (("build_np", [1, 0, -5, -1], [3, 2, -10, 0]), ("build_pos", [1, 0, 2], [1, 2, 3])):
        with pytest.raises(ArithmeticError, match=f"{builder} postcondition check failed"):
            getattr(construct, builder)(Vector(v), Vector(w))


def test_mixed_sign_vector_column_path():
    v, path = construct.mixed_sign_vector_with_path(SIGNED_X)
    assert v == Vector([0, -1, 1])
    assert path == "column-u"
    assert (SIGNED_X @ v).is_nonneg()


def test_mixed_sign_vector_combination_path():
    v, path = construct.mixed_sign_vector_with_path(DIAG_NEG)
    assert v == Vector([-1, 1])
    assert path == "combination"
    assert DIAG_NEG @ v == Vector([1, 1])


def test_mixed_sign_vector_leaves_the_inverse_grid_unbuilt(entries_reads):
    # the sign scan reads numerators and the chosen columns only their entries
    for x in (SIGNED_X, DIAG_NEG):
        v = construct.mixed_sign_vector(x, x.inverse())
        assert v.has_mixed_signs() and (x @ v).is_nonneg()
    assert entries_reads == []


def test_mixed_sign_vector_preconditions():
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(Matrix.identity(3))  # inverse nonnegative
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(-Matrix.identity(3))
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(ONES_2)  # singular
    with pytest.raises(DimensionError, match="square"):
        construct.mixed_sign_vector(Matrix([[1, -1, 0], [0, 1, 1]]))


