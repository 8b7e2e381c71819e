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


def test_build_np_case_letters_match_sign_patterns():
    rng = random.Random("np-cases")
    for _ in range(60):
        n = rng.randint(3, 7)
        v = genfuzz.mixed_int_vector(rng, n, 4)
        w = genfuzz.nonzero_int_vector(rng, n, -4, 4)
        _, trace = construct.build_np(v, w)
        vp = permutation_matrix(trace.v_permutation) @ v
        wp = permutation_matrix(trace.w_permutation) @ w
        assert trace.step1_case == ("a" if wp[0] > 0 else "b")
        table = {
            (1, 1): "a", (1, -1): "b", (1, 0): "c",
            (-1, 1): "d", (-1, -1): "e", (-1, 0): "f",
            (0, 1): "g", (0, -1): "h", (0, 0): "i",
        }
        for idx, case in enumerate(trace.step2_cases, start=1):
            key = (_sign(wp[idx]), _sign(vp[idx]))
            assert table[key] == case
        if wp[n - 1] == 0:
            assert trace.step3_case == "e"
        else:
            expected = {
                (1, -1): "a", (1, 1): "b", (-1, -1): "c", (-1, 1): "d",
            }[(_sign(wp[n - 1]), _sign(wp[0]))]
            assert trace.step3_case == expected


def _sign(q):
    return (q > 0) - (q < 0)


def test_build_pos_examples():
    assert construct.build_pos(Vector([1, 0]), Vector([1, 1]))[0] == LOWER
    assert construct.build_pos(Vector([1, 1]), Vector([1, 1]))[0] == Matrix(
        [[1, 0], ["1/2", "1/2"]]
    )
    assert construct.build_pos(Vector([2]), Vector([3]))[0] == Matrix([["3/2"]])


def test_build_pos_triangular_after_permutation():
    rng = random.Random("pos-triangular")
    for _ in range(60):
        n = rng.randint(1, 7)
        v = genfuzz.nonzero_int_vector(rng, n, 0, 4)
        w = genfuzz.int_vector(rng, n, 1, 4)
        b, _ = construct.build_pos(v, w)
        assert b.is_nonneg() and b.det() != 0 and b @ v == w
        perm = construct.positive_first_permutation(v)
        normalized = b @ permutation_matrix(perm).transpose()
        for i in range(n):
            assert normalized.entries[i][i] != 0
            for j in range(i + 1, n):
                assert normalized.entries[i][j] == 0


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


def test_builders_agree_with_the_permutation_products():
    rng = random.Random("builders-by-index")
    for n in range(2, 9):
        for _ in range(12):
            v = genfuzz.int_vector(rng, n)
            w = genfuzz.int_vector(rng, n)
            if v.has_mixed_signs() and not w.is_zero():
                assert construct.build_np(v, w)[0] == _np_by_permutation_products(v, w), (v, w)
            v = genfuzz.int_vector(rng, n, 0, 3)
            w = genfuzz.int_vector(rng, n, 1, 4)
            if not v.is_zero():
                assert construct.build_pos(v, w)[0] == _pos_by_permutation_product(v, w), (v, w)


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


def _rational(rng, sign):
    """A random rational of the given sign (-1, 0 or 1)."""
    return sign * Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _drawn(rng, n, signs, accept):
    while True:
        u = Vector([_rational(rng, rng.choice(signs)) for _ in range(n)])
        if accept(u):
            return u


def test_build_np_inverse_is_the_eliminated_inverse_in_every_case():
    rng = random.Random("np-block-inverse")
    head, interior, tail = set(), set(), set()
    for n in range(2, 13):
        for _ in range(12):
            v = _drawn(rng, n, (-1, 0, 1), Vector.has_mixed_signs)
            w = _drawn(rng, n, (-1, 0, 1), lambda u: not u.is_zero())
            b, trace = construct.build_np(v, w)
            assert trace.inverse == b.inverse(), (v, w)
            assert b @ trace.inverse == Matrix.identity(n)
            head.add(trace.step1_case)
            interior.update(trace.step2_cases)
            tail.add(trace.step3_case)
    assert (head, interior, tail) == (set("ab"), set("abcdefghi"), set("abcde"))


def test_build_pos_inverse_is_the_eliminated_inverse_for_every_pattern():
    # every zero/positive pattern of v up to n = 5; beyond it one positive
    # entry first, one last, all positive and one random pattern
    rng = random.Random("pos-block-inverse")
    masks = [(n, mask) for n in range(1, 6) for mask in range(1, 2**n)]
    masks += [(n, mask) for n in range(6, 13) for mask in (2 ** (n - 1), 1, 2**n - 1, rng.randrange(1, 2**n))]
    for n, mask in masks:
        v = Vector([_rational(rng, int(bit)) for bit in format(mask, f"0{n}b")])
        w = _drawn(rng, n, (1,), Vector.is_positive)
        b, inv = construct.build_pos(v, w)
        assert inv == b.inverse(), (v, w)
        assert b @ inv == Matrix.identity(n)


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


def test_mixed_sign_vector_random():
    rng = random.Random("key1-local")
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        x = genfuzz.int_matrix(rng, n, n, -4, 4)
        if x.det() == 0:
            continue
        inv = x.inverse()
        has_neg = any(v < 0 for row in inv.entries for v in row)
        has_pos = any(v > 0 for row in inv.entries for v in row)
        if not (has_neg and has_pos):
            continue
        v = construct.mixed_sign_vector(x)
        assert v.has_mixed_signs() and (x @ v).is_nonneg()
        done += 1
