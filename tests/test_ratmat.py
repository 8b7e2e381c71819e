import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipos.genfuzz import GenConfig, gen_inverse_nonneg_with_inverse
from semipos.ratmat import (
    DimensionError,
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
    permutation_sign,
    rat,
)

EXAMPLE_B = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])


def test_det_identity():
    assert Matrix.identity(3).det() == 1


def test_det_diagonal():
    assert Matrix([[-1, 0], [0, 1]]).det() == -1


def test_det_example_matrix():
    # cofactor expansion down the zero-heavy columns gives 3
    assert EXAMPLE_B.det() == 3


def test_det_rejects_rectangular():
    with pytest.raises(DimensionError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def test_det_fractional_entries():
    assert Matrix([["1/2", "1/3"], ["1/4", "1/5"]]).det() == Fraction(1, 60)


def test_inverse_identity():
    assert Matrix.identity(4).inverse() == Matrix.identity(4)


def test_inverse_2x2():
    inv = Matrix([[2, -1], [-1, 2]]).inverse()
    assert inv == Matrix([["2/3", "1/3"], ["1/3", "2/3"]])


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 1], [1, 1]]).inverse()



def test_inverse_self_check_rejects_a_tampered_grid(monkeypatch):
    from semipos import ratmat

    eliminate = ratmat._eliminate

    def tampered(rows):
        grid, scales, pivots, d, sign, scale = eliminate(rows)
        grid[1][-1] += 1  # one entry of the right block, a row of A^-1 scaled
        return grid, scales, pivots, d, sign, scale

    monkeypatch.setattr(ratmat, "_eliminate", tampered)
    with pytest.raises(ArithmeticError, match="self-check"):
        Matrix([["1/2", 3, 0], [-1, "2/3", 1], [0, 1, "5/4"]]).inverse()

def test_rank_zero_matrix():
    assert Matrix.zeros(2, 3).rank() == 0


def test_rank_equal_rows():
    assert Matrix([[1, 1], [1, 1]]).rank() == 1


def test_rank_full():
    assert EXAMPLE_B.rank() == 4


def test_sign_profile_examples():
    assert Vector([1, 0, -5, -1]).has_mixed_signs()
    assert not Vector([0, 0]).has_mixed_signs()
    assert Vector([3, 2, -10, 0]).has_mixed_signs()
    assert not Vector([1, 0, 2]).has_mixed_signs()
    assert not Vector([-1, 0]).has_mixed_signs()


def test_vector_requires_entries():
    with pytest.raises(DimensionError):
        Vector([])


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


def test_vector_keeps_a_fraction_and_converts_the_rest():
    half = Fraction(1, 2)
    v = Vector([half, 3, True, "-2/4"])
    assert v.entries[0] is half
    assert v.entries == (half, 3, 1, Fraction(-1, 2))
    assert all(type(x) is Fraction for x in v.entries)
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


def test_stacking_and_deletion():
    a = Matrix([[1, 2], [3, 4]])
    assert a.delete_col(0) == Matrix([[2], [4]])
    with pytest.raises(DimensionError):
        Matrix([[1], [2]]).delete_col(0)


def test_outer_and_basis():
    assert outer(Vector([1, 2]), Vector([3, 4])) == Matrix([[3, 4], [6, 8]])
    assert basis_vector(3, 1) == Vector([0, 1, 0])
    assert ones_vector(2) == Vector([1, 1])


def test_permutation_matrix_moves_entries():
    p = permutation_matrix([2, 0, 1])
    assert p @ Vector([10, 20, 30]) == Vector([30, 10, 20])
    assert permutation_sign([2, 0, 1]) == 1
    assert permutation_sign([1, 0]) == -1


def test_kernel_vector():
    a = Matrix([[1, 1], [1, 1]])
    k = a.kernel_vector()
    assert k is not None and not k.is_zero()
    assert (a @ k).is_zero()
    assert Matrix.identity(3).kernel_vector() is None


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    return Matrix([[draw(rationals) for _ in range(n)] for _ in range(n)])


@st.composite
def any_matrices(draw, max_dim=5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return Matrix([[draw(rationals) for _ in range(n)] for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_inverse_round_trip(a):
    assume(a.det() != 0)
    inv = a.inverse()
    assert a @ inv == Matrix.identity(a.rows)
    assert inv.inverse() == a


@settings(max_examples=60, deadline=None)
@given(any_matrices())
def test_rank_transpose_invariant(a):
    assert a.rank() == a.transpose().rank()


@st.composite
def perm_with_matrix(draw, max_dim=5):
    n = draw(st.integers(2, max_dim))
    perm = draw(st.permutations(range(n)))
    a = Matrix([[draw(rationals) for _ in range(n)] for _ in range(n)])
    return perm, a


@settings(max_examples=60, deadline=None)
@given(perm_with_matrix())
def test_det_permutation_sign(case):
    perm, a = case
    p = permutation_matrix(perm)
    assert (p @ a).det() == permutation_sign(perm) * a.det()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
)
def test_sign_profile_scale_invariant(entries, c):
    v = Vector(entries)
    assert v.has_mixed_signs() == (c * v).has_mixed_signs()


# -- elimination against independent definitions --------------------------------

def degenerate_matrices(seed, count, max_dim, square=False):
    """Seeded matrices, often rank-deficient or with a zero column; entries have
    denominators up to 97, so an inexact // in the elimination would show."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 96, 97]))

    for _ in range(count):
        m = rng.randint(1, max_dim)
        n = m if square else rng.randint(1, max_dim)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            c = entry()
            rows[-1] = [c * a + b for a, b in zip(rows[0], rows[-2])]
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = Fraction(0)
        yield Matrix(rows)


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


def test_det_matches_leibniz():
    for a in degenerate_matrices("det-leibniz", 200, max_dim=5, square=True):
        assert a.det() == leibniz_det(a.entries), a


def test_rank_is_order_of_largest_nonzero_minor():
    for a in degenerate_matrices("rank-minors", 300, max_dim=4):
        assert a.rank() == rank_by_minors(a.entries), a


def test_kernel_vector_convention():
    for a in degenerate_matrices("kernel-convention", 300, max_dim=4):
        # column j is free when it adds no rank to the columns before it
        ranks = [0] + [
            rank_by_minors([row[:j] for row in a.entries]) for j in range(1, a.cols + 1)
        ]
        free = [j for j in range(a.cols) if ranks[j + 1] == ranks[j]]
        x = a.kernel_vector()
        assert (x is None) == (ranks[-1] == a.cols), a
        if x is None:
            continue
        assert (a @ x).is_zero(), a
        assert x[free[0]] == 1 and all(x[j] == 0 for j in free[1:]), a




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


# free columns before later pivot columns, and zero leading entries
SHIFTED_FREE = [
    Matrix([[1, 2, 3], [2, 4, 7]]),
    Matrix([[0, 1], [0, 2]]),
    Matrix([[0, 2, 1], [0, 0, 3], [4, 0, 0]]),
    Matrix([[0, 0, 1, 5], [0, 3, 2, 0], [0, 6, 4, 1]]),
    Matrix([["1/97", "2/97", 0, 1], [2, 4, "1/96", 0]]),
]


def assert_matches_gauss_jordan(a):
    """det, rank, inverse and kernel vector of ``a`` equal the plain reference's."""
    m, n = a.shape
    rref, pivots, det = gauss_jordan(a.entries)
    assert a.rank() == len(pivots), a
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        assert a.kernel_vector() is None, a
    else:
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, c in zip(rref, pivots):
            x[c] = -row[free]
        assert a.kernel_vector() == Vector(x), a
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
    corpus = SHIFTED_FREE + list(degenerate_matrices("gauss-jordan", 300, max_dim=5))
    corpus += list(degenerate_matrices("gauss-jordan-square", 200, max_dim=5, square=True))
    for a in corpus:
        assert_matches_gauss_jordan(a)
    assert Matrix([[1, 2, 3], [2, 4, 7]]).kernel_vector() == Vector([-2, 1, 0])


def wide_range_matrices(seed, count, max_dim):
    """Seeded matrices whose rows carry what the row scales of the elimination
    hold: a large common factor, a shared large denominator, or entries up to
    2^60; with zero rows, zero leading entries (so rows swap) and dependent rows."""
    rng = random.Random(seed)
    for t in range(count):
        m = rng.randint(1, max_dim)
        n = m if t % 2 else rng.randint(1, max_dim)
        rows = []
        for _ in range(m):
            kind = rng.choice(["big", "factor", "shared", "small"])
            if kind == "big":
                row = [Fraction(rng.randint(-2**60, 2**60)) for _ in range(n)]
            elif kind == "factor":
                k = rng.randint(2**30, 2**40)
                row = [Fraction(k * rng.randint(-5, 5)) for _ in range(n)]
            elif kind == "shared":
                den = rng.randint(2**40, 2**41)
                row = [Fraction(rng.randint(-2**20, 2**20), den) for _ in range(n)]
            else:
                row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            rows.append(row)
        if rng.random() < 0.4:
            rows[0][0] = Fraction(0)
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if m > 1 and rng.random() < 0.3:
            c = Fraction(rng.randint(-2**30, 2**30), rng.randint(1, 2**30))
            rows[-1] = [c * a + b for a, b in zip(rows[0], rows[-2])]
        yield Matrix(rows)


def test_elimination_matches_plain_gauss_jordan_on_wide_ranges():
    for a in wide_range_matrices("gauss-jordan-wide", 300, max_dim=6):
        assert_matches_gauss_jordan(a)


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



def product_by_definition(a_rows, b_rows):
    """Each entry a plain Fraction sum of products."""
    cols = list(zip(*b_rows))
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in a_rows]


def test_product_matches_sum_of_products():
    rng = random.Random("product-definition")

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 97))

    def matrix(m, n):
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = Fraction(0)
        return rows

    # random shapes, then 1xN @ Nx1 and Nx1 @ 1xN
    shapes = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(300)]
    shapes += [(1, n, 1) for n in range(1, 7)] + [(n, 1, n) for n in range(1, 7)]
    for m, k, n in shapes:
        a_rows, b_rows = matrix(m, k), matrix(k, n)
        a, b = Matrix(a_rows), Matrix(b_rows)
        assert a @ b == Matrix(product_by_definition(a_rows, b_rows)), (a, b)
        v = [row[0] for row in b_rows]
        expected = [row[0] for row in product_by_definition(a_rows, [[x] for x in v])]
        assert a @ Vector(v) == Vector(expected), (a, v)


# -- the stored form against plain Fraction arithmetic ---------------------------

def stored_form_matrices(seed, count, max_dim):
    """Seeded matrices for the stored form: the wide ranges above (zero rows,
    entries up to 2^60, rows sharing a 40-bit denominator), negative pivots
    of small rationals, and 1x1 negatives."""
    rng = random.Random(seed)
    yield from wide_range_matrices(seed, count, max_dim)
    for _ in range(count):
        n = rng.randint(1, max_dim)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = -abs(rows[i][i]) or Fraction(-1, rng.randint(1, 12))
        yield Matrix(rows)
    for p, q in ((-2, 1), (-1, 2), (-2**60, 3), (-7, 2**40)):
        yield Matrix([[Fraction(p, q)]])


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
            assert m.row(i).entries == row
            assert all(type(m[i, j]) is Fraction and m[i, j] == x for j, x in enumerate(row))
        assert all(m.col(j).entries == col for j, col in enumerate(zip(*expected)))
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
    for a in stored_form_matrices("stored-form", 150, max_dim=5):
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
        width = rng.randint(1, 4)
        b_rows = [[Fraction(rng.randint(-2**40, 2**40), rng.choice([1, 3, 2**40 + 1]))
                   for _ in range(width)] for _ in range(a.cols)]
        assert_stored_as(a @ Matrix(b_rows), product_by_definition(rows, b_rows))
        assert_stored_as(a @ a.transpose(), product_by_definition(rows, list(zip(*rows))))
        assert_matches_gauss_jordan(a)  # det, rank, kernel vector and inverse values
        if a.is_square and a.rank() == a.rows:
            n = a.rows
            identity = Matrix.identity(n).entries
            augmented, _, _ = gauss_jordan([r + list(e) for r, e in zip(rows, identity)])
            assert_stored_as(a.inverse(), [row[n:] for row in augmented])


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
    for value, names in ((m, ("_dens", "_nums", "entries", "extra")), (v, ("entries", "extra"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, ())
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert m == Matrix([["1/2", 3]]) and set(vars(m)) == {"_dens", "_nums"}
    assert v == Vector(["1/2", 3]) and set(vars(v)) == {"entries"}


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
