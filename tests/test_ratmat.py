"""Tests of ``ratmat``: parsing, the stored integer form, products and the
fraction-free elimination behind det, rank, inverse and kernel vector.

``CORPUS`` is the one seeded set of elimination and product inputs: five
hand-picked matrices with free columns before later pivot columns and zero
leading entries, four 1x1 negatives, and 400 matrices up to 6x6 from
``seeded_matrices``, whose rows are small rationals over denominators up to
97 (three in ten zero), entries up to 2^60, multiples of a 2^30..2^40 common
factor, fractions over a shared 40-bit denominator, or small rationals with
a negative diagonal pivot, and which at random get a zero first entry, a zero
row, a zero column or a dependent last row.
Eight tests check it against the plain-Fraction references:
``gauss_jordan`` (rank, kernel vector, det, inverse) on its narrow and its
wide-range matrices, ``leibniz_det`` up to 5x5, ``rank_by_minors`` and the
kernel vector's convention up to 4x4, the rank of the transpose, det under a
row permutation (``permutation_sign``), and the inverse by A A^-1 = A^-1 A = I
and by its own inverse.  The vector-route, inverse-width and per-row-gcd
pivot tests read ``CORPUS`` too, and the stored-form test its first 200; the
stored-form and vector-route tests check their products against
``product_by_definition``.  ``identity_product_pairs`` draws the structured
(X, Y) pairs of the packed identity check.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from examples import ONES_2
from semipos import classify, genfuzz, lp, ratmat
from semipos.genfuzz import GenConfig, gen_inverse_nonneg, gen_inverse_nonneg_with_inverse, gen_msp
from semipos.ratmat import (
    DimensionError,
    InvalidInputError,
    MAX_DIM,
    MAX_ENTRY_BITS,
    Matrix,
    MatrixParseError,
    SingularMatrixError,
    Vector,
    basis_vector,
    ones_vector,
    outer,
    parse_matrix_text,
    parse_rational,
    parse_vector_text,
    permutation_matrix,
    rat,
)


def test_det_rejects_rectangular():
    with pytest.raises(DimensionError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()
    with pytest.raises(DimensionError, match="inverse requires a square matrix"):
        Matrix([[1, 2, 3], [4, 5, 6]]).inverse()


def test_inverse_self_check_rejects_a_tampered_grid(monkeypatch):
    eliminate = ratmat._eliminate

    def tampered(rows, origin=None):
        grid, scales, pivots, d, sign, scale = eliminate(rows, origin)
        grid[1][-1] += 1  # one entry of the right block, a row of A^-1 scaled
        return grid, scales, pivots, d, sign, scale

    monkeypatch.setattr(ratmat, "_eliminate", tampered)
    with pytest.raises(ArithmeticError, match="self-check"):
        Matrix([["1/2", 3, 0], [-1, "2/3", 1], [0, 1, "5/4"]]).inverse()


def test_inverse_grid_is_never_wider_than_n_plus_one(monkeypatch):
    """``inverse`` eliminates [DA | D] but holds a column of D only from the
    pivot step of its row on, so no grid handed to ``_pivot`` has more than
    n + 1 columns; the full [DA | D] would hand it 2n at the first step.
    Pinned by the width alone, not by a timing, on inverse-nonnegative
    matrices and on the square ``CORPUS`` matrices, some with zero heads, so
    rows swap."""
    step = ratmat._pivot
    widths = []

    def pivot(grid, scales, r, k, d):
        widths.append(len(grid[0]) - len(grid))
        return step(grid, scales, r, k, d)

    monkeypatch.setattr(ratmat, "_pivot", pivot)
    corpus = [gen_inverse_nonneg(n, GenConfig(seed=5), 0) for n in range(2, 13)]
    corpus += [a for a in CORPUS if a.is_square]
    swapped = 0
    for a in corpus:
        widths.clear()
        try:
            inv = a.inverse()
        except SingularMatrixError:
            continue
        assert inv @ a == Matrix.identity(a.rows), a
        assert max(widths) <= 1, a
        swapped += a[0, 0] == 0
    assert swapped > 5


def test_sign_profile_examples():
    assert Vector([1, 0, -5, -1]).has_mixed_signs()
    assert not Vector([0, 0]).has_mixed_signs()
    assert Vector([3, 2, -10, 0]).has_mixed_signs()
    assert not Vector([1, 0, 2]).has_mixed_signs()
    assert not Vector([-1, 0]).has_mixed_signs()


def test_vector_requires_entries():
    with pytest.raises(DimensionError):
        Vector([])
    # and a matrix needs at least one row and one column, all of one length
    for build in (lambda: Matrix([]), lambda: Matrix([[]]), lambda: Matrix.identity(0)):
        with pytest.raises(DimensionError, match="at least one row and one column"):
            build()
    with pytest.raises(DimensionError, match="unequal lengths"):
        Matrix([[1, 2], [3]])


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        Vector([0.5])


def test_int_fraction_and_string_entries_store_alike():
    """An int entry is its own numerator over 1, with no Fraction built; the
    stored rows, equality and hash do not depend on how an entry was given."""
    ints = [[0, -3, 7], [2, 4, 6], [1, 0, 0]]
    for given in (
        Matrix(ints),
        Matrix([[Fraction(x) for x in row] for row in ints]),
        Matrix([[str(x) for x in row] for row in ints]),
    ):
        assert given._dens == (1, 1, 1) and given._nums == ((0, -3, 7), (2, 4, 6), (1, 0, 0))
        assert given == Matrix(ints) and hash(given) == hash(Matrix(ints))
    # a row of ints over one Fraction shares the Fraction's denominator
    mixed = Matrix([[1, Fraction(1, 2), "3/4"], [True, False, 2]])
    assert mixed._dens == (4, 1) and mixed._nums == ((4, 2, 3), (1, 0, 2))
    assert Matrix.identity(2)._nums == ((1, 0), (0, 1)) and Matrix.ones(1, 2)._nums == ((1, 1),)
    with pytest.raises(TypeError):
        Matrix([[1, 0.5], [0, 1]])
    with pytest.raises(TypeError):
        Matrix([[1, 0], [0, 1.0]])


def test_vector_stores_one_integer_row_over_one_denominator():
    half = Fraction(1, 2)
    v = Vector([half, 3, True, "-2/4"])
    assert v._dens == (2,) and v._nums == ((1, 6, 2, -1),)
    assert list(v.integer_rows()) == [(2, (1, 6, 2, -1))]
    # the Fractions are built at each read and not kept
    assert v.entries == (half, 3, 1, Fraction(-1, 2)) and v.entries is not v.entries
    assert all(type(x) is Fraction for x in v.entries) and v[0] == half and list(v) == list(v.entries)
    assert Vector([0, 4, -6])._nums == ((0, 4, -6),) and Vector(["0/3"])._dens == (1,)
    with pytest.raises(TypeError):
        Vector([half, 1.0])


def test_from_integer_rows_stores_each_row_reduced_over_a_positive_denominator():
    m = Matrix.from_integer_rows([(-4, [2, -6, 0]), (1, (5, 0, 1)), (6, [3, 3, 9])])
    assert m._dens == (2, 1, 2) and m._nums == ((-1, 3, 0), (5, 0, 1), (1, 1, 3))
    assert m == Matrix([["-1/2", "3/2", 0], [5, 0, 1], ["1/2", "1/2", "3/2"]])
    assert Matrix.from_integer_rows(m.integer_rows()) == m


def test_parse_rational():
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("-7/4") == Fraction(-7, 4)
    assert parse_rational(" 12 ") == 12
    with pytest.raises(MatrixParseError):
        parse_rational("seven")
    for token in ("1/0", "0/0"):
        with pytest.raises(MatrixParseError, match=f"^bad rational '{token}': zero denominator$"):
            parse_rational(token)


def test_parse_rational_accepts_only_the_documented_grammar():
    for text, value in [
        ("+3", 3),
        ("-0.25", Fraction(-1, 4)),
        (".5", Fraction(1, 2)),
        ("5.", 5),
        ("+7/4", Fraction(7, 4)),
        ("-007", -7),
    ]:
        assert parse_rational(text) == value, text
    for text in [
        "1e1000000",  # Fraction would build a 3.3-million-bit integer
        "1e2",
        "2E-1",
        "1.5e3",
        "1_0",  # accepted by Fraction on 3.11+, not on 3.10
        "1/1_0",
        "\u0663",  # ARABIC-INDIC DIGIT THREE
        "\uff11",  # FULLWIDTH DIGIT ONE
        "7/-4",
        "1/2/3",
        "--1",
        ".",
        "",
        "inf",
        "nan",
        "0x10",
    ]:
        with pytest.raises(MatrixParseError, match="ASCII digits"):
            parse_rational(text)


def test_parse_matrix_text_rejects_exponent_with_line():
    with pytest.raises(MatrixParseError, match="huge.mat, line 3"):
        parse_matrix_text("1 0\n\n0 1e1000000\n", source="huge.mat")


def test_parse_caps_dimension():
    row = " ".join(["1"] * MAX_DIM)
    assert parse_matrix_text("\n".join([row] * MAX_DIM)).shape == (MAX_DIM, MAX_DIM)
    assert parse_vector_text(row).dim == MAX_DIM
    with pytest.raises(MatrixParseError, match=f"wide.mat, line 2: {MAX_DIM + 1} entries"):
        parse_matrix_text(f"1\n{row} 1\n", source="wide.mat")
    with pytest.raises(MatrixParseError, match=f"tall.mat, line {MAX_DIM + 2}: more than"):
        parse_matrix_text("# rows\n" + "1\n" * (MAX_DIM + 1), source="tall.mat")
    with pytest.raises(MatrixParseError, match=f"--v: {MAX_DIM + 1} entries"):
        parse_vector_text(f"{row} 1", source="--v")


def test_parse_caps_entry_bits():
    top = 2**MAX_ENTRY_BITS - 1
    assert parse_matrix_text(f"1 {top}\n-1/{top} 0\n")[1, 0] == Fraction(-1, top)
    for entry in (str(top + 1), f"1/{top + 1}", f"{top + 1}/3"):
        with pytest.raises(MatrixParseError, match=f"big.mat, line 2: .*{MAX_ENTRY_BITS} bits"):
            parse_matrix_text(f"1 0\n0 {entry}\n", source="big.mat")
        with pytest.raises(MatrixParseError, match=f"--w: .*{MAX_ENTRY_BITS} bits"):
            parse_vector_text(f"1 {entry}", source="--w")
    # refused before it is converted, whatever it would reduce to
    with pytest.raises(MatrixParseError, match="big.mat, line 1: .* longer than"):
        parse_matrix_text("0" * (2 * MAX_ENTRY_BITS + 1), source="big.mat")


def test_parse_matrix_text():
    text = """
    # comment
    1 2   # trailing comment
    3/2 0.5
    """
    assert parse_matrix_text(text) == Matrix([[1, 2], ["3/2", "1/2"]])


def test_parse_matrix_text_names_bad_line():
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix_text("1 2\n3 oops\n", source="bad.mat")
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix_text("1 2\n3\n", source="ragged.mat")


def test_parse_vector_text():
    assert parse_vector_text("1 0 -5 -1") == Vector([1, 0, -5, -1])
    with pytest.raises(MatrixParseError):
        parse_vector_text("   ")


def test_matmul_shapes():
    a = Matrix([[1, 2], [3, 4], [5, 6]])
    assert a @ Vector([1, 1]) == Vector([3, 7, 11])
    assert a.transpose() @ a == Matrix([[35, 44], [44, 56]])
    with pytest.raises(DimensionError):
        a @ Vector([1, 1, 1])
    with pytest.raises(DimensionError, match="vector dimensions differ"):
        Vector([1, 2]) + Vector([1, 2, 3])
    with pytest.raises(DimensionError, match="vector dimensions differ"):
        Vector([1, 2]).dot(Vector([1]))


def test_stacking_and_deletion():
    a = Matrix([[1, 2], [3, 4]])
    assert a.delete_col(0) == Matrix([[2], [4]])
    with pytest.raises(DimensionError):
        Matrix([[1], [2]]).delete_col(0)
    for rows in ([], [Vector([1, 2]), Vector([1])]):
        with pytest.raises(DimensionError, match="at least one row, all of one length"):
            Matrix.from_rows(rows)
    for k in (0, 3):
        with pytest.raises(DimensionError, match=f"cannot take {k} rows from 2"):
            a.take_rows(k)


def test_outer_and_basis():
    assert outer(Vector([1, 2]), Vector([3, 4])) == Matrix([[3, 4], [6, 8]])
    assert basis_vector(3, 1) == Vector([0, 1, 0])
    for i in (-1, 3):
        with pytest.raises(DimensionError, match=f"basis index {i} out of range"):
            basis_vector(3, i)
    assert ones_vector(2) == Vector([1, 1])


def permutation_sign(perm):
    """The sign of a permutation of 0..n-1: -1 for an odd number of inversions."""
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def test_permutation_matrix_moves_entries():
    p = permutation_matrix([2, 0, 1])
    assert p @ Vector([10, 20, 30]) == Vector([30, 10, 20])
    for perm in ([0, 0], [1, 2]):
        with pytest.raises(InvalidInputError, match="is not a permutation"):
            permutation_matrix(perm)
    assert permutation_sign([2, 0, 1]) == 1
    assert permutation_sign([1, 0]) == -1


def test_kernel_vector():
    k = ONES_2.kernel_vector()
    assert k is not None and not k.is_zero()
    assert (ONES_2 @ k).is_zero()
    assert Matrix.identity(3).kernel_vector() is None


# -- elimination against independent definitions --------------------------------

def leibniz_det(rows):
    n = len(rows)
    return sum(
        (
            permutation_sign(p) * math.prod((rows[i][p[i]] for i in range(n)), start=Fraction(1))
            for p in itertools.permutations(range(n))
        ),
        Fraction(0),
    )


def rank_by_minors(rows):
    """The order of the largest square submatrix with nonzero Leibniz determinant."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def gauss_jordan(rows):
    """Plain Fraction Gauss-Jordan with row swaps, dividing every pivot row:
    (reduced row echelon form, pivot columns, swap sign times pivot product)."""
    a = [list(row) for row in rows]
    pivots, det = [], Fraction(1)
    for c in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            det = -det
        det *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, det


def kernel_by_gauss_jordan(rref, pivots, n):
    """The kernel vector of ``Matrix.kernel_vector``'s convention, read off the
    plain reference's reduced form, or None when every column has a pivot."""
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for row, c in zip(rref, pivots):
        x[c] = -row[free]
    return Vector(x)


def seeded_matrices(seed, count, max_dim):
    """Seeded matrices up to max_dim x max_dim, every other one square.  Each
    row is of one kind: small rationals over denominators up to 97, three in
    ten zero (an inexact // in the elimination would show); entries up to
    2^60; a common factor of 2^30..2^40; a shared 40-bit denominator; or small
    rationals with a negative entry on the diagonal, so pivots go negative.
    At random a matrix gets a zero first entry (so rows swap), a zero row, a
    zero column, or a last row dependent on two others."""
    rng = random.Random(seed)

    def small():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 96, 97]))

    def row(i, n):
        kind = rng.choice(["small", "big", "factor", "shared", "negative-pivot"])
        if kind == "small":
            return [small() for _ in range(n)]
        if kind == "big":
            return [Fraction(rng.randint(-2**60, 2**60)) for _ in range(n)]
        if kind == "factor":
            k = rng.randint(2**30, 2**40)
            return [Fraction(k * rng.randint(-5, 5)) for _ in range(n)]
        if kind == "shared":
            den = rng.randint(2**40, 2**41)
            return [Fraction(rng.randint(-2**20, 2**20), den) for _ in range(n)]
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        if i < n:
            entries[i] = -abs(entries[i]) or Fraction(-1, rng.randint(1, 12))
        return entries

    for t in range(count):
        m = rng.randint(1, max_dim)
        n = m if t % 2 else rng.randint(1, max_dim)
        rows = [row(i, n) for i in range(m)]
        if rng.random() < 0.3:
            rows[0][0] = Fraction(0)
        if rng.random() < 0.15:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if rng.random() < 0.2:
            j = rng.randrange(n)
            for r in rows:
                r[j] = Fraction(0)
        if m > 1 and rng.random() < 0.35:
            c = small() if rng.random() < 0.5 else Fraction(rng.randint(-2**30, 2**30), rng.randint(1, 2**30))
            rows[-1] = [c * a + b for a, b in zip(rows[0], rows[-2])]
        yield Matrix(rows)


CORPUS = [
    # free columns before later pivot columns, and zero leading entries
    Matrix([[1, 2, 3], [2, 4, 7]]),
    Matrix([[0, 1], [0, 2]]),
    Matrix([[0, 2, 1], [0, 0, 3], [4, 0, 0]]),
    Matrix([[0, 0, 1, 5], [0, 3, 2, 0], [0, 6, 4, 1]]),
    Matrix([["1/97", "2/97", 0, 1], [2, 4, "1/96", 0]]),
    # 1x1 negatives, small and wide
    *(Matrix([[Fraction(p, q)]]) for p, q in ((-2, 1), (-1, 2), (-2**60, 3), (-7, 2**40))),
    *seeded_matrices("corpus", 400, max_dim=6),
]


def is_wide(a):
    """Whether an entry of ``a`` has a numerator or denominator past 2^20."""
    return any(max(abs(x.numerator), x.denominator) >> 20 for row in a.entries for x in row)


def assert_matches_gauss_jordan(a):
    """det, rank, inverse and kernel vector of ``a`` equal the plain reference's."""
    m, n = a.shape
    rref, pivots, det = gauss_jordan(a.entries)
    assert a.rank() == len(pivots), a
    assert a.kernel_vector() == kernel_by_gauss_jordan(rref, pivots, n), a
    if m != n:
        return
    assert a.det() == (det if len(pivots) == n else 0), a
    identity = Matrix.identity(n).entries
    augmented, aug_pivots, _ = gauss_jordan([r + e for r, e in zip(a.entries, identity)])
    if aug_pivots[:n] == list(range(n)):
        assert a.inverse() == Matrix([row[n:] for row in augmented]), a
    else:
        with pytest.raises(SingularMatrixError):
            a.inverse()


def test_elimination_matches_plain_gauss_jordan():
    narrow = [a for a in CORPUS if not is_wide(a)]
    for a in narrow:
        assert_matches_gauss_jordan(a)
    assert Matrix([[1, 2, 3], [2, 4, 7]]).kernel_vector() == Vector([-2, 1, 0])
    assert len(narrow) >= 60


def test_elimination_matches_plain_gauss_jordan_on_wide_ranges():
    wide = [a for a in CORPUS if is_wide(a)]
    for a in wide:
        assert_matches_gauss_jordan(a)
    assert len(wide) >= 200


def test_det_matches_leibniz():
    small = [a for a in CORPUS if a.is_square and a.rows <= 5]
    for a in small:
        assert a.det() == leibniz_det(a.entries), a
    assert len(small) >= 100


def test_rank_is_order_of_largest_nonzero_minor():
    small = [a for a in CORPUS if max(a.shape) <= 4]
    for a in small:
        assert a.rank() == rank_by_minors(a.entries), a
    assert sum(a.rank() < min(a.shape) for a in small) >= 30


def test_kernel_vector_convention():
    checked = 0
    for a in (a for a in CORPUS if max(a.shape) <= 4):
        # column j is free when it adds no rank to the columns before it
        ranks = [0] + [rank_by_minors([row[:j] for row in a.entries]) for j in range(1, a.cols + 1)]
        free = [j for j in range(a.cols) if ranks[j + 1] == ranks[j]]
        x = a.kernel_vector()
        assert (x is None) == (not free), a
        if x is not None:
            assert (a @ x).is_zero() and x[free[0]] == 1 and all(x[j] == 0 for j in free[1:]), a
            checked += 1
    assert checked >= 60


def test_inverse_round_trip():
    square = [a for a in CORPUS if a.is_square]
    invertible = [a for a in square if a.det() != 0]
    for a in invertible:
        inv = a.inverse()
        assert a @ inv == Matrix.identity(a.rows) == inv @ a and inv.inverse() == a, a
    assert len(invertible) >= 100 and len(square) - len(invertible) >= 20


def test_rank_transpose_invariant():
    for a in CORPUS:
        assert a.rank() == a.transpose().rank(), a
    assert sum(a.rank() < min(a.shape) for a in CORPUS) >= 60


def test_det_permutation_sign():
    rng = random.Random("det-permutation-sign")
    signs = Counter()
    for a in (a for a in CORPUS if a.is_square and a.rows > 1):
        perm = rng.sample(range(a.rows), a.rows)
        assert (permutation_matrix(perm) @ a).det() == permutation_sign(perm) * a.det(), (perm, a)
        signs[permutation_sign(perm)] += a.det() != 0
    assert signs[1] >= 30 and signs[-1] >= 30, signs


def test_sign_profile_scale_invariant():
    """Vectors of one sign, of both signs and with zeros, small or up to 2^60,
    scaled by small and large positive rationals."""
    rng = random.Random("sign-profile-scale")
    mixed = Counter()
    for _ in range(400):
        signs = rng.choice([(-1, 0, 1), (-1, 1), (0, 1), (-1, 0), (1,), (-1,)])
        bits = rng.choice([3, 60])
        v = Vector([
            rng.choice(signs) * Fraction(rng.randint(1, 2**bits), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        ])
        c = Fraction(rng.randint(1, 2**bits), rng.randint(1, 2**bits))
        assert v.has_mixed_signs() == (c * v).has_mixed_signs(), (v, c)
        mixed[v.has_mixed_signs()] += 1
    assert mixed[True] >= 60 and mixed[False] >= 60


def test_inverse_nonnegative_pairs_invert_to_each_other():
    # Z = D^-1 for a nonnegative diagonally dominant D: every leading minor of
    # the integer-scaled Z shares a large factor, which the row scales carry
    for n in (1, 2, 3, 5, 8, 11, 12, 16):
        for index in range(2):
            z, d = gen_inverse_nonneg_with_inverse(n, GenConfig(seed=5), index)
            assert d @ z == Matrix.identity(n) == z @ d
            assert z.inverse() == d and d.inverse() == z
            assert z.rank() == n and z.det() * d.det() == 1
            assert z.kernel_vector() is None


def test_pivot_keeps_grid_entries_small_on_a_12x12_msp(monkeypatch):
    """The largest grid entry over ``classify_all`` on a seeded 12x12 minimally
    semipositive matrix stays within 256 bits.

    Each ``_pivot`` step first moves the pivot row's content into its scale;
    that keeps the entries here at 173 bits.  Without the move every entry
    carries the row's common factor, such as the power of det(D) that the
    leading minors of an inverse-nonnegative D^-1 share, and the entries reach
    991 bits while every answer stays the same.  The bound sits between the
    two, so only the size, not a timing, shows the lost step.  Both bindings
    of the step are wrapped: ``lp`` imports ``_pivot`` by name."""
    step = ratmat._pivot
    largest = 0

    def pivot(grid, scales, r, k, d):
        nonlocal largest
        d = step(grid, scales, r, k, d)
        largest = max(largest, max(abs(x).bit_length() for row in grid for x in row))
        return d

    monkeypatch.setattr(ratmat, "_pivot", pivot)
    monkeypatch.setattr(lp, "_pivot", pivot)
    classify.classify_all(gen_msp(12, 12, GenConfig(1), 0))
    assert 0 < largest <= 256


def pivot_by_row_gcd(grid, scales, r, k, d):
    """The fraction-free step with one gcd per row: G = gcd(d, s_i * s_t),
    or gcd(d, s_i * s_t * p_t) for a row with a zero head."""
    top = grid[r]
    g = math.gcd(*top)
    if g != 1:
        top = grid[r] = [x // g for x in top]
        scales[r] *= g
    s_t, pivot = scales[r], top[k]
    for i, row in enumerate(grid):
        if i == r:
            continue
        head = row[k]
        a = scales[i] * s_t if head else scales[i] * s_t * pivot
        g = math.gcd(d, a)
        q = d // g
        scales[i] = a // g
        if head:
            grid[i] = [(x * pivot - head * y) // q for x, y in zip(row, top)]
        elif q != 1:
            grid[i] = [x // q for x in row]
    return s_t * pivot


@pytest.fixture
def checked_pivots(monkeypatch):
    """Wraps ``_pivot`` in both its bindings so that every step is also run
    by ``pivot_by_row_gcd`` on a copy and must leave the same grid, scales
    and next ``d``; returns the list of the steps' pivot entries."""
    step = ratmat._pivot
    pivots = []

    def pivot(grid, scales, r, k, d):
        want_grid, want_scales = [list(row) for row in grid], list(scales)
        want_d = pivot_by_row_gcd(want_grid, want_scales, r, k, d)
        d_next = step(grid, scales, r, k, d)
        assert (grid, scales, d_next) == (want_grid, want_scales, want_d)
        pivots.append(grid[r][k])
        return d_next

    monkeypatch.setattr(ratmat, "_pivot", pivot)
    monkeypatch.setattr(lp, "_pivot", pivot)
    return pivots


def test_pivot_matches_the_one_gcd_per_row_step_on_wide_ranges(checked_pivots):
    # large row factors, shared denominators, zero rows, zero heads and swaps
    for a in CORPUS:
        a.kernel_vector()
        if a.is_square:
            try:
                a.inverse()
            except SingularMatrixError:
                pass
    assert any(p < 0 for p in checked_pivots) and len(checked_pivots) > 1000


def test_pivot_matches_the_one_gcd_per_row_step_on_a_12x12_msp_and_an_lp(checked_pivots):
    classify.classify_all(gen_msp(12, 12, GenConfig(1), 0))
    # a tall one, whose left inverse takes the equality LPs a square one skips
    classify.classify_all(gen_msp(12, 6, GenConfig(1), 0))
    rng = random.Random("pivot-per-row-gcd-lp")
    a = genfuzz.int_matrix(rng, 5, 6, -9, 9)
    lp.feasible_nonneg(a, genfuzz.int_vector(rng, 5, -9, 9))
    lp.equality_feasible_nonneg(a, genfuzz.int_vector(rng, 5, -9, 9))
    assert len(checked_pivots) > 100



def product_by_definition(a_rows, b_rows):
    """Each entry a plain Fraction sum of products."""
    cols = list(zip(*b_rows))
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in a_rows]


# -- the packed identity check ---------------------------------------------------

def identity_product_pairs(seed):
    """Seeded (X, Y) pairs, sizes 1..12: X X^-1 and X^-1 X, a tall A with a
    left inverse N as N A and A N, and each with one entry of Y nudged by
    +-1/q.  Entries are negative as often as positive, over denominators up
    to 97, a fifth of them with 64-bit numerators."""
    rng = random.Random(seed)

    def entry():
        top = 2**64 if rng.random() < 0.2 else 9
        return Fraction(rng.randint(-top, top), rng.randint(1, 97))

    def invertible(n):
        while True:
            a = Matrix([[entry() for _ in range(n)] for _ in range(n)])
            if a.det() != 0:
                return a, a.inverse()

    def nudged(y):
        rows = [list(row) for row in y.entries]
        i, j = rng.randrange(y.rows), rng.randrange(y.cols)
        rows[i][j] += rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 97))
        return Matrix(rows)

    for n in range(1, 13):
        x, inv = invertible(n)
        pairs = [(x, inv), (inv, x)]
        # A = [B; C] has the left inverses [B^-1 - K C B^-1 | K], K any n x k
        k = rng.randint(1, 3)
        b, b_inv = invertible(n)
        c = [[entry() for _ in range(n)] for _ in range(k)]
        kk = [[entry() if rng.random() < 0.5 else 0 for _ in range(k)] for _ in range(n)]
        shift = (Matrix(kk) @ Matrix(c) @ b_inv).entries
        left = Matrix([[p - q for p, q in zip(row, s)] + kr for row, s, kr in zip(b_inv.entries, shift, kk)])
        a = Matrix([*b.entries, *c])
        pairs += [(left, a), (a, left)]
        for x, y in list(pairs):
            pairs.append((x, nudged(y)))
        yield from pairs


def test_identity_product_agrees_with_the_full_product():
    verdicts = Counter()
    for x, y in identity_product_pairs("identity-product"):
        expected = x @ y == Matrix.identity(x.rows)
        assert ratmat._is_identity_product(x, y) is expected, (x, y)
        verdicts[expected] += 1
    # per size, X X^-1, X^-1 X and N A are I; A N, and X X^-1, X^-1 X and A N
    # nudged, are not; a nudge N A may not see, where K has a zero column
    assert verdicts[True] >= 36 and verdicts[False] >= 48


def test_identity_product_rejects_rows_that_collide_one_bit_short():
    """Built from the width: with w the bit length of both the bound on X Y's
    entries and of t_00, row 0 of X Y = (2^(w-1) - 2^w, 1, 0, ..) / 2^(w-1)
    packs, in slots of w bits, to t_00 = 2^(w-1), and every other row is that
    of I; one bit more, the width the helper takes, tells them apart."""
    for w, n in itertools.product((2, 3, 8, 65), (2, 3, 5)):
        half = 2 ** (w - 1)
        rows = list(Matrix.identity(n).integer_rows())
        rows[0] = (half, (-half, 1) + (0,) * (n - 2))
        x, y = Matrix.from_integer_rows(rows), Matrix.identity(n)
        assert sum(map(abs, x._nums[0])).bit_length() == half.bit_length() == w
        for i, (den, nums) in enumerate(x.integer_rows()):
            assert sum(a << (w * j) for j, a in enumerate(nums)) == den << (w * i)
        assert x @ y != Matrix.identity(n)
        assert not ratmat._is_identity_product(x, y), (w, n)
    # Y's entries widen the slots too: in the 2-bit slots X = I alone would
    # need, row 0 of X Y = (-3, 1) packs to 1, as row 0 of I does
    x, y = Matrix.identity(2), Matrix([[-3, 1], [0, 1]])
    assert x @ y != Matrix.identity(2) and not ratmat._is_identity_product(x, y)
    # the bound takes the sum of a row of X, not its largest entry: in the 12-bit
    # slots the largest (1366) would give, row 0 of X Y = (1, 4096, -1, 0) carries
    # to 1 + 2^24 - 2^24, as row 0 of I packs, and every other row is that of I
    x = Matrix([[-1365, 1, -1366, -1366], ["-1/3", 0, "-1/3", "-1/3"], ["-2/3", -1, "1/3", "4/3"], [0, -1, 0, 1]])
    y = Matrix([[0, -1, -1, 1], [1, -1, 0, -1], [-1, -1, 1, -1], [1, -1, 0, 0]])
    assert x @ y == Matrix([[1, 4096, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not ratmat._is_identity_product(x, y)


def test_identity_product_rejects_an_expected_value_wider_than_the_product():
    """t_00 = k 2^w outgrows X Y's entries, which are at most k in absolute
    value: with w sized to those entries alone, row 0 of X Y = (0, k) packs
    to t_00 and row 1 = (0, k) to t_11 2^w, yet X Y is not I."""
    for k in (1, 2, 3, 2**40 + 1):
        w = k.bit_length() + 1
        x = Matrix.from_integer_rows([(k << w, (0, 1)), (k, (0, 1))])
        y = Matrix.identity(2) * k
        assert x @ y == Matrix([[0, Fraction(1, 2**w)], [0, 1]])
        assert not ratmat._is_identity_product(x, y), k


def test_identity_product_refuses_shapes_that_do_not_multiply():
    a = Matrix([[1, 2, 3], [4, 5, 6]])
    for x, y in ((a, a), (a, Matrix.identity(2)), (Matrix.identity(2), a.transpose())):
        with pytest.raises(DimensionError):
            x @ y
        with pytest.raises(DimensionError):
            ratmat._is_identity_product(x, y)
    # a product that is not square is not I
    assert not ratmat._is_identity_product(Matrix.identity(2), a)
    assert not ratmat._is_identity_product(a.transpose(), Matrix.identity(2))


# -- the stored form against plain Fraction arithmetic ---------------------------

@pytest.fixture
def assert_stored_as(entries_reads):
    """A check that m holds the rational rows ``expected``, each in lowest
    terms over a positive denominator, and equals (and hashes as) the same
    grid built from Fractions.  Its rows, columns and entries read one by one
    match too, and never read the whole grid, which a read does not keep."""

    def check(m, expected):
        expected = tuple(tuple(Fraction(x) for x in row) for row in expected)
        reads = len(entries_reads)
        for i, row in enumerate(expected):
            assert m.row(i) == Vector(row)
            assert all(type(m[i, j]) is Fraction and m[i, j] == x for j, x in enumerate(row))
        assert all(m.col(j) == Vector(col) for j, col in enumerate(zip(*expected)))
        assert len(entries_reads) == reads
        assert m.entries == expected and all(type(x) is Fraction for row in m.entries for x in row)
        assert set(vars(m)) == {"_dens", "_nums"}
        assert m.shape == (len(expected), len(expected[0]))
        for (den, nums), row in zip(m.integer_rows(), expected, strict=True):
            assert den > 0 and math.gcd(den, *nums) == 1, (den, nums)
            assert tuple(Fraction(x, den) for x in nums) == row
        built = Matrix(expected)
        assert m == built and hash(m) == hash(built)

    return check


def test_stored_form_matches_plain_fraction_arithmetic(assert_stored_as):
    rng = random.Random("stored-form")
    for a in CORPUS[:200]:
        rows = [list(row) for row in a.entries]
        assert_stored_as(a, rows)
        assert_stored_as(-a, [[-x for x in row] for row in rows])
        for c in (0, -1, Fraction(-3, 7), 5, "2/4", -2**61):
            assert_stored_as(a * c, [[x * rat(c) for x in row] for row in rows])
            assert_stored_as(c * a, [[x * rat(c) for x in row] for row in rows])
        assert_stored_as(a.transpose(), [list(col) for col in zip(*rows)])
        k = rng.randint(1, a.rows)
        assert_stored_as(a.take_rows(k), rows[:k])
        if a.cols > 1:
            j = rng.randrange(a.cols)
            assert_stored_as(a.delete_col(j), [row[:j] + row[j + 1:] for row in rows])
        # with a 1xN or an Nx1 matrix, 1xN @ Nx1 and Nx1 @ 1xN
        assert_stored_as(a @ a.transpose(), product_by_definition(rows, list(zip(*rows))))
        assert_stored_as(a.transpose() @ a, product_by_definition(list(zip(*rows)), rows))
        if a.is_square and a.rank() == a.rows:
            inv = a.inverse()  # its value is checked against Gauss-Jordan with the elimination
            assert_stored_as(inv, inv.entries)


def assert_vector_stored_as(v, expected):
    """v holds the rational entries ``expected`` as one row in lowest terms over
    a positive denominator, and equals (and hashes as) the same entries built
    from Fractions."""
    expected = tuple(Fraction(x) for x in expected)
    ((den, nums),) = v.integer_rows()
    assert den > 0 and math.gcd(den, *nums) == 1, (den, nums)
    assert set(vars(v)) == {"_dens", "_nums"} and v.dim == len(expected)
    assert v.entries == expected and all(type(x) is Fraction for x in v.entries)
    built = Vector(expected)
    assert v == built and hash(v) == hash(built)


def test_every_vector_route_stores_the_plain_fraction_value():
    rng = random.Random("vector-routes")

    def entries(n):
        return [Fraction(rng.randint(-2**40, 2**40), rng.choice([1, 3, 2**40 + 1]))
                if rng.random() < 0.5 else Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for _ in range(n)]

    for a in CORPUS:
        rows = [list(row) for row in a.entries]
        n = a.cols
        u, w = entries(n), entries(n)
        for given in (u, [str(x) for x in u], [x.numerator for x in u]):
            assert_vector_stored_as(Vector(given), [Fraction(x) for x in given])
        assert_vector_stored_as(parse_vector_text(" ".join(map(str, u))), u)
        assert_vector_stored_as(Vector(u) + Vector(w), [x + y for x, y in zip(u, w)])
        assert_vector_stored_as(-Vector(u), [-x for x in u])
        for c in (0, -1, Fraction(-3, 7), 5, "2/4", -2**61):
            assert_vector_stored_as(Vector(u) * c, [x * rat(c) for x in u])
            assert_vector_stored_as(c * Vector(u), [x * rat(c) for x in u])
        expected = [row[0] for row in product_by_definition(rows, [[x] for x in u])]
        assert_vector_stored_as(a @ Vector(u), expected)
        for i, row in enumerate(rows):
            assert_vector_stored_as(a.row(i), row)
        for j, col in enumerate(zip(*rows)):
            assert_vector_stored_as(a.col(j), col)
        kernel = a.kernel_vector()  # its value is checked against Gauss-Jordan with the elimination
        if kernel is not None:
            assert_vector_stored_as(kernel, kernel.entries)
        assert_vector_stored_as(ones_vector(n), [1] * n)
        j = rng.randrange(n)
        assert_vector_stored_as(basis_vector(n, j), [int(i == j) for i in range(n)])


def test_products_rows_and_evidence_checks_build_no_fraction(monkeypatch, entries_reads):
    """``Matrix @ Vector``, ``row``, ``col``, ``from_rows``, ``from_cols`` and the
    witness and probe checks run on the stored integers: they read no
    ``entries`` and construct no ``Fraction``."""
    a = Matrix([["1/2", 1, 0], [0, "2/3", "-1/5"], [3, 0, "7/4"]])
    x = Vector([2, "3/7", 1])
    u, probe = Vector(["1/2", 0, -3]), Vector(["-1/2", 1, 1])
    ax, au = Vector(["10/7", "3/35", "31/4"]), Vector(["1/4", "3/5", "-15/4"])
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    rows = [a.row(i) for i in range(a.rows)]
    cols = [a.col(j) for j in range(a.cols)]
    assert Matrix.from_rows(rows) == a and Matrix.from_cols(cols) == a
    assert a @ x == ax and a @ u == au
    assert classify.is_sp_witness(a, x) and not classify.is_sp_witness(a, u)
    assert not classify.is_msp_probe(a, u) and classify.is_msp_probe(a, probe)
    assert classify.is_msp_probe(a, probe, a @ probe)
    monkeypatch.undo()
    assert built == [] and entries_reads == []


def test_equal_values_by_any_route_are_equal_and_hash_equal():
    m = Matrix([[Fraction(1, 2), -3], [0, 2]])
    routes = [
        Matrix([["2/4", -3], [0, 2]]),
        Matrix([["1/2", "-6/2"], ["0/5", "4/2"]]),
        Matrix([[Fraction(2, 4), Fraction(-3)], [Fraction(0), Fraction(2)]]),
        Matrix.identity(2) @ m,
        m @ Matrix.identity(2),
        m.inverse().inverse(),
        Matrix([[1, -6], [0, 4]]) * "1/2",
        -(-m),
        m.transpose().transpose(),
        Matrix([["-1/2", 0], [0, "1/2"]]).inverse() @ Matrix([["-1/4", "3/2"], [0, 1]]),
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m), other
    assert len(set(routes)) == 1
    assert Matrix([[0, 0]]) == Matrix([["0/7", 0]]) * 5 == Matrix([[3, 1]]) * 0
    v = Vector([Fraction(1, 2), -3, 0])
    vector_routes = [
        Vector(["2/4", "-6/2", "0/5"]),
        Vector([Fraction(2, 4), Fraction(-3), Fraction(0)]),
        Vector(["0.5", -3, "-0"]),
        Matrix([["1/2", 0], [0, -3], [0, 0]]) @ Vector([1, 1]),
        Vector([1, -3, 0]) + Vector(["-1/2", 0, 0]),
        -(-v),
        v * "2/2",
    ]
    for other in vector_routes:
        assert other == v and hash(other) == hash(v), other
    assert len(set(vector_routes)) == 1


def test_unequal_values_and_other_classes_compare_unequal():
    m = Matrix([[1, 2]])
    # the same numerators over another denominator, another shape, another entry
    for other in (Matrix([["1/3", "2/3"]]), Matrix([[1], [2]]), Matrix([[1, 3]])):
        assert m != other and not m == other, other
    v = Vector([1, 2])
    for other in (Vector([1, 3]), Vector([1, 2, 0]), Vector(["1/3", "2/3"])):
        assert v != other and not v == other, other
    for value, other in ((m, v), (v, m), (m, ((1, 2),)), (v, (1, 2)), (v, v.entries)):
        assert value.__eq__(other) is NotImplemented
        assert value != other and not value == other
    assert m == Matrix([[1, 2]]) and v == Vector([1, 2])


def test_a_matrix_or_vector_is_read_only():
    m, v = Matrix([["1/2", 3]]), Vector(["1/2", 3])
    for value in (m, v):
        for name in ("_dens", "_nums", "entries", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, ())
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert m == Matrix([["1/2", 3]]) and set(vars(m)) == {"_dens", "_nums"}
    assert v == Vector(["1/2", 3]) and set(vars(v)) == {"_dens", "_nums"}


def test_inverse_stores_a_negative_pivot_over_a_positive_denominator():
    inv = Matrix([[-2]]).inverse()
    assert inv == Matrix([["-1/2"]]) and hash(inv) == hash(Matrix([["-1/2"]]))
    assert list(inv.integer_rows()) == [(2, (-1,))]
    a = Matrix([[0, -3], ["-1/2", 0]])
    assert a.inverse() == Matrix([[0, -2], ["-1/3", 0]])
    assert all(den > 0 for den, _ in a.inverse().integer_rows())


def test_repr_shows_the_rational_entries():
    assert repr(Vector([1, "1/2"])) == "Vector(entries=(Fraction(1, 1), Fraction(1, 2)))"
    assert repr(Matrix([[1, "1/2"]])) == "Matrix(entries=((Fraction(1, 1), Fraction(1, 2)),))"
    assert repr(Matrix([[2, 0]]) @ Matrix([["1/4"], [1]])) == "Matrix(entries=((Fraction(1, 2),),))"
