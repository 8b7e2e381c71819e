"""Deciders for the matrix classes the package works with.

Classes: nonnegative, positive, row positive, monomial, inverse nonnegative,
semipositive (some x >= 0 has Ax > 0), and minimally semipositive (semipositive
with no column-deleted submatrix semipositive).  Every decider is exact, and
every returned witness is re-verified against its definition before return.

Minimal semipositivity has one route: semipositive with a nonnegative left
inverse, and never for fewer rows than columns, which is decided from the
shape before any LP.  ``msp_by_deletion`` checks the definition itself and
serves only as an oracle for that route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .ratmat import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    Vector,
    basis_vector,
    ones_vector,
)


@dataclass(frozen=True)
class ClassReport:
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
    result = lp.feasible_nonneg(a, ones_vector(a.rows))
    if not result.feasible:
        return False, None
    x = result.witness
    if x is None:
        raise ArithmeticError("feasible LP result without a witness")
    row_sum = max(Fraction(sum(map(abs, nums)), den) for den, nums in a.integer_rows())
    delta = Fraction(1, 2) / (1 + row_sum)
    strict = x + delta * ones_vector(a.cols)
    ax = a @ strict
    if not strict.is_positive() or not ax.is_positive():
        raise ArithmeticError("semipositivity witness perturbation failed")
    return True, strict


def has_nonneg_left_inverse(a: Matrix) -> tuple[bool, Matrix | None]:
    """True iff some N >= 0 satisfies N A = I; needs at least as many rows as columns.

    Row j of N solves the equality system A^T y = e_j over y >= 0, so the n
    rows are found by n independent feasibility calls.
    """
    if a.rows < a.cols:
        raise DimensionError("a left inverse needs rows >= cols")
    at = a.transpose()
    n_rows: list[Vector] = []
    for j in range(a.cols):
        result = lp.equality_feasible_nonneg(at, basis_vector(a.cols, j))
        if not result.feasible:
            return False, None
        if result.witness is None:
            raise ArithmeticError("feasible LP result without a witness")
        n_rows.append(result.witness)
    n_mat = Matrix.from_rows(n_rows)
    if not n_mat.is_nonneg() or n_mat @ a != Matrix.identity(a.cols):
        raise ArithmeticError("left inverse verification failed")
    return True, n_mat


def is_minimally_semipositive(a: Matrix) -> bool:
    """Semipositive with no column-deleted submatrix semipositive.

    Decided as semipositive plus a nonnegative left inverse (Johnson, Kerr &
    Stanford 1994).  An m x n matrix with m < n is never in the class, so it
    gets False before any LP: if A is semipositive, {x >= 0 : A x >= 1} is
    nonempty and contains no line, so it has a vertex.  A vertex has n
    linearly independent active constraints, at most m of them from
    A x >= 1, so some x_j = 0 there; dropping x_j shows that A with column j
    deleted is still semipositive.  A matrix of rank below n gets False
    before any LP as well, since N A = I needs rank A = n.
    """
    if a.rows < a.cols or a.rank() < a.cols or not is_semipositive(a)[0]:
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
    if a.is_square:
        monomial = is_monomial(a)
        inv_nonneg, inv = is_inverse_nonnegative(a)
    left: Matrix | None = None
    if a.rows >= a.cols:
        _, left = has_nonneg_left_inverse(a)
    return ClassReport(
        shape=a.shape,
        nonnegative=a.is_nonneg(),
        positive=a.is_positive(),
        row_positive=is_row_positive(a),
        semipositive=sp,
        minimally_semipositive=is_minimally_semipositive(a),
        monomial=monomial,
        inverse_nonnegative=inv_nonneg,
        sp_witness=witness,
        inv=inv,
        left_inv=left,
    )
