import random

import pytest

from semipos import construct
from semipos.ratmat import (
    InvalidInputError,
    Matrix,
    Vector,
    permutation_matrix,
)

EXAMPLE_B = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])


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
    assert b == Matrix([[1, 0], [1, 1]])
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
        while True:
            v = Vector([rng.randint(-4, 4) for _ in range(n)])
            if v.has_mixed_signs():
                break
        while True:
            w = Vector([rng.randint(-4, 4) for _ in range(n)])
            if not w.is_zero():
                break
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
    assert construct.build_pos(Vector([1, 0]), Vector([1, 1])) == Matrix([[1, 0], [1, 1]])
    assert construct.build_pos(Vector([1, 1]), Vector([1, 1])) == Matrix(
        [[1, 0], ["1/2", "1/2"]]
    )
    assert construct.build_pos(Vector([2]), Vector([3])) == Matrix([["3/2"]])


def test_build_pos_triangular_after_permutation():
    rng = random.Random("pos-triangular")
    for _ in range(60):
        n = rng.randint(1, 7)
        while True:
            v = Vector([rng.randint(0, 4) for _ in range(n)])
            if not v.is_zero():
                break
        w = Vector([rng.randint(1, 4) for _ in range(n)])
        b = construct.build_pos(v, w)
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


def test_mixed_sign_vector_column_path():
    x = Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]])
    v, path = construct.mixed_sign_vector_with_path(x)
    assert v == Vector([0, -1, 1])
    assert path == "column-u"
    assert (x @ v).is_nonneg()


def test_mixed_sign_vector_combination_path():
    x = Matrix([[-1, 0], [0, 1]])
    v, path = construct.mixed_sign_vector_with_path(x)
    assert v == Vector([-1, 1])
    assert path == "combination"
    assert x @ v == Vector([1, 1])


def test_mixed_sign_vector_leaves_the_inverse_grid_unbuilt(entries_reads):
    # the sign scan reads numerators and the chosen columns only their entries
    for x in (Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]]), Matrix([[-1, 0], [0, 1]])):
        v = construct.mixed_sign_vector(x, x.inverse())
        assert v.has_mixed_signs() and (x @ v).is_nonneg()
    assert entries_reads == []


def test_mixed_sign_vector_preconditions():
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(Matrix.identity(3))  # inverse nonnegative
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(-Matrix.identity(3))
    with pytest.raises(InvalidInputError):
        construct.mixed_sign_vector(Matrix([[1, 1], [1, 1]]))  # singular


def test_mixed_sign_vector_random():
    rng = random.Random("key1-local")
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        x = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
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
