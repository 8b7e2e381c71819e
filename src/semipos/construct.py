"""Constructions of nonnegative matrices with prescribed images.

* ``build_np``:  v has entries of both signs, w is any nonzero vector;
  produces nonnegative invertible B with B v = w, returned with the trace of
  its construction cases, which holds B^{-1}.
* ``build_pos``: v >= 0 nonzero, w > 0; same conclusion, and B is lower
  triangular after the positive entries of v are permuted to the front;
  returns (B, B^{-1}).
* ``build_rect``: rectangular variant, nonnegative full-row-rank B with
  B v = w for a longer v.
* ``mixed_sign_vector``: for invertible X with neither X nor -X inverse
  nonnegative, a vector v with entries of both signs and X v >= 0.

Each construction re-verifies its postconditions before returning, so a
returned matrix is a checked certificate, not a trusted formula.  The three
builders share one check: B >= 0 of full row rank with B v = w.  A square
builder's B is, in orders it already computes, a k x k block L (k = 2 for
``build_np``, 1 for ``build_pos``) above a diagonal D, so B^{-1} is read off
that form by ``_block_inverse`` without elimination, and full rank is proved
by the product B B^{-1} = I; the rectangular B is checked by ``rank()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    SingularMatrixError,
    Vector,
    basis_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NpCaseTrace(NamedTuple):
    """Which construction case produced each row of a build_np matrix.

    Rows are taken in the normalized order: the first row comes from the
    head-row table (cases "a"/"b" keyed on the sign of the first target
    entry), interior rows from the nine-way sign table on (target, source)
    pairs (cases "a".."i"), and the last row from the tail-row table
    (cases "a".."e").  The permutations that normalized v and w are recorded
    so the construction is fully replayable, and ``inverse`` is B^{-1}, read
    off the same normalized form and checked against B.
    """

    step1_case: str
    step2_cases: tuple[str, ...]
    step3_case: str
    v_permutation: tuple[int, ...]
    w_permutation: tuple[int, ...]
    inverse: Matrix


def _np_permutations(v: Vector, w: Vector) -> tuple[list[int], list[int]]:
    """Coordinate orders putting a positive entry of v first, a negative one
    last, and a nonzero entry of w first.  Inputs already in that shape are
    left alone (the orders reduce to the identity)."""
    n = v.dim
    i_pos = next(i for i in range(n) if v[i] > 0)
    i_neg = max(i for i in range(n) if v[i] < 0)
    sigma = [i_pos] + [i for i in range(n) if i not in (i_pos, i_neg)] + [i_neg]
    j_nonzero = next(j for j in range(n) if w[j] != 0)
    tau = [j_nonzero] + [j for j in range(n) if j != j_nonzero]
    return sigma, tau


def _np_head_row(vp: Vector, wp: Vector) -> tuple[list[Fraction], str]:
    n = vp.dim
    row = [_ZERO] * n
    if wp[0] > 0:
        row[0] = wp[0] / vp[0]
        return row, "a"
    row[n - 1] = wp[0] / vp[n - 1]
    return row, "b"


def _np_interior_row(i: int, vp: Vector, wp: Vector) -> tuple[list[Fraction], str]:
    n = vp.dim
    v1, vn = vp[0], vp[n - 1]
    vi, wi = vp[i], wp[i]
    row = [_ZERO] * n
    if wi > 0 and vi > 0:
        row[0] = wi / (2 * v1)
        row[i] = wi / (2 * vi)
        return row, "a"
    if wi > 0 and vi < 0:
        row[0] = (wi + 1) / v1
        row[i] = -1 / vi
        return row, "b"
    if wi > 0:
        row[0] = wi / v1
        row[i] = _ONE
        return row, "c"
    if wi < 0 and vi > 0:
        row[i] = 1 / vi
        row[n - 1] = (wi - 1) / vn
        return row, "d"
    if wi < 0 and vi < 0:
        row[i] = wi / (2 * vi)
        row[n - 1] = wi / (2 * vn)
        return row, "e"
    if wi < 0:
        row[i] = _ONE
        row[n - 1] = wi / vn
        return row, "f"
    if vi > 0:
        row[i] = 1 / vi
        row[n - 1] = -1 / vn
        return row, "g"
    if vi < 0:
        row[0] = 1 / v1
        row[i] = -1 / vi
        return row, "h"
    row[i] = _ONE
    return row, "i"


def _np_tail_row(vp: Vector, wp: Vector) -> tuple[list[Fraction], str]:
    n = vp.dim
    v1, vn = vp[0], vp[n - 1]
    w1, wn = wp[0], wp[n - 1]
    row = [_ZERO] * n
    if wn > 0 and w1 < 0:
        row[0] = wn / v1
        return row, "a"
    if wn > 0:
        row[0] = (wn + 1) / v1
        row[n - 1] = -1 / vn
        return row, "b"
    if wn < 0 and w1 < 0:
        row[0] = 1 / v1
        row[n - 1] = (wn - 1) / vn
        return row, "c"
    if wn < 0:
        row[n - 1] = wn / vn
        return row, "d"
    row[0] = 1 / v1
    row[n - 1] = -1 / vn
    return row, "e"


def build_np(v: Vector, w: Vector) -> tuple[Matrix, NpCaseTrace]:
    """Nonnegative invertible B with B v = w, for mixed-sign v and nonzero w,
    and the trace of its construction, which holds B^{-1}.

    The construction works on reordered copies of v and w, entry k of each
    being entry sigma[k] of v and tau[k] of w, and entry (k, l) of the
    normalized rows is placed at (tau[k], sigma[l]), so the returned B acts
    on the original coordinates.  The head and tail rows use only the first
    and last normalized columns, and each interior row its own diagonal entry
    besides, so with the first and last rows and columns taken first B is a
    2 x 2 block above a diagonal; ``_block_inverse`` reads B^{-1} off that
    form and ``_checked`` proves it by B B^{-1} = I.
    """
    if v.dim != w.dim:
        raise InvalidInputError("v and w must have the same dimension")
    n = v.dim
    if n < 2:
        raise InvalidInputError("mixed signs need dimension at least 2")
    if not v.has_mixed_signs():
        raise InvalidInputError("v must contain both positive and negative entries")
    if w.is_zero():
        raise InvalidInputError("w must be nonzero")

    sigma, tau = _np_permutations(v, w)
    vp = Vector(v[i] for i in sigma)
    wp = Vector(w[i] for i in tau)

    rows: list[list[Fraction]] = []
    head, case1 = _np_head_row(vp, wp)
    rows.append(head)
    cases2: list[str] = []
    for i in range(1, n - 1):
        row, case = _np_interior_row(i, vp, wp)
        rows.append(row)
        cases2.append(case)
    tail, case3 = _np_tail_row(vp, wp)
    rows.append(tail)

    grid = [[0] * n for _ in range(n)]
    for i, row in zip(tau, rows):
        for j, x in zip(sigma, row):
            grid[i][j] = x
    b = Matrix(grid)
    ends = [0, n - 1] + list(range(1, n - 1))
    inv = _block_inverse(b, [tau[k] for k in ends], [sigma[k] for k in ends], 2, "build_np")
    trace = NpCaseTrace(case1, tuple(cases2), case3, tuple(sigma), tuple(tau), inv)
    return _checked(b, v, w, "build_np", inv), trace


def positive_first_permutation(v: Vector) -> tuple[int, ...]:
    """Coordinate order listing the positive entries of v first, stable."""
    positive = [i for i in range(v.dim) if v[i] > 0]
    rest = [i for i in range(v.dim) if v[i] <= 0]
    return tuple(positive + rest)


def build_pos(v: Vector, w: Vector) -> tuple[Matrix, Matrix]:
    """(B, B^{-1}) for the nonnegative invertible B with B v = w, for v >= 0
    nonzero and w > 0.

    After the permutation from ``positive_first_permutation(v)`` the matrix is
    lower triangular with nonzero diagonal: the first column carries all of w
    scaled by the leading entry of v (halved on the other positive positions),
    the remaining positive positions get diagonal entries, and the zero
    positions get identity columns.  Column l of that triangular matrix is
    column sigma[l] of the returned B.  Its off-diagonal entries all lie in
    the first column, so it is a 1 x 1 block above a diagonal;
    ``_block_inverse`` reads B^{-1} off that form and ``_checked`` proves it
    by B B^{-1} = I.
    """
    if v.dim != w.dim:
        raise InvalidInputError("v and w must have the same dimension")
    if not v.is_nonneg() or v.is_zero():
        raise InvalidInputError("v must be nonnegative and nonzero")
    if not w.is_positive():
        raise InvalidInputError("w must be strictly positive")

    sigma = positive_first_permutation(v)
    vp = Vector(v[i] for i in sigma)
    n = v.dim
    k = sum(1 for x in vp.entries if x > 0)

    cols: list[Vector] = []
    first = [w[0] / vp[0]]
    for i in range(1, n):
        first.append(w[i] / (2 * vp[0]) if i < k else w[i] / vp[0])
    cols.append(Vector(first))
    for j in range(1, n):
        if j < k:
            cols.append((w[j] / (2 * vp[j])) * basis_vector(n, j))
        else:
            cols.append(basis_vector(n, j))
    placed = cols[:]
    for j, col in zip(sigma, cols):
        placed[j] = col

    b = Matrix.from_cols(placed)
    inv = _block_inverse(b, range(n), sigma, 1, "build_pos")
    return _checked(b, v, w, "build_pos", inv), inv


def build_rect(v: Vector, w: Vector) -> Matrix:
    """Nonnegative full-row-rank B with B v = w, for v longer than w.

    The target is padded with ones to the length of v, the square construction
    matching v's sign pattern is applied, and the top rows are kept.
    """
    n, m = v.dim, w.dim
    if n <= m:
        raise InvalidInputError("v must be strictly longer than w")
    padded = Vector(w.entries + (_ONE,) * (n - m))
    if v.has_mixed_signs():
        full = build_np(v, padded)[0]
    elif v.is_nonneg() and not v.is_zero() and w.is_positive():
        full = build_pos(v, padded)[0]
    else:
        raise InvalidInputError(
            "need v with both signs, or v >= 0 nonzero together with w > 0"
        )
    return _checked(full.take_rows(m), v, w, "build_rect")


def _checked(b: Matrix, v: Vector, w: Vector, name: str, inv: Matrix | None = None) -> Matrix:
    """B, after checking B >= 0, B v = w and full row rank: by B inv = I for a
    square B given its inverse, by ``rank()`` otherwise."""
    if (
        not b.is_nonneg()
        or b @ v != w
        or (b.rank() != b.rows if inv is None else b @ inv != Matrix.identity(b.rows))
    ):
        raise _failed(name)
    return b


def _failed(name: str) -> ArithmeticError:
    return ArithmeticError(f"{name} postcondition check failed")


def _block_inverse(
    b: Matrix, rows: Sequence[int], cols: Sequence[int], k: int, name: str
) -> Matrix:
    """B^{-1} for a square B whose entries (rows[i], cols[j]) form
    [[L, 0], [C, D]], L of size k = 1 or 2 and D diagonal: the inverse of that
    form is [[L^{-1}, 0], [-D^{-1} C L^{-1}, D^{-1}]], and its row i is row
    cols[i] of B^{-1}, entry j at column rows[j].

    Every row is formed in integers over one denominator, from B's stored
    rows: with row i of the reordered B stored as N_i / d_i, and N_L the
    numerators of L, L^{-1} = adj(N_L) diag(d_0..d_{k-1}) / det(N_L), and the
    d_i cancel from row i >= k of -D^{-1} C L^{-1}, which is
    -(N_i0, .., N_i,k-1) adj(N_L) diag(d) over N_ii det(N_L).  Only L, C and
    the diagonal of D are used; the zeros are the builder's, and ``_checked``
    proves the result by B B^{-1} = I.  A singular L or a zero on D's
    diagonal raises the builder's postcondition error before any division.
    """
    n = b.rows
    stored = list(b.integer_rows())
    dens = [stored[i][0] for i in rows]
    nums = [[stored[i][1][j] for j in cols] for i in rows]
    if k == 1:
        det, adj = nums[0][0], [[1]]
    else:
        (p, q), (r, s) = nums[0][:2], nums[1][:2]
        det, adj = p * s - q * r, [[s, -q], [-r, p]]
    if det == 0 or any(nums[i][i] == 0 for i in range(k, n)):
        raise _failed(name)
    lead = [[adj[i][j] * dens[j] for j in range(k)] for i in range(k)]  # det(N_L) L^{-1}
    inv: list[tuple[int, list[int]]] = [(1, [])] * n  # row cols[i] set at step i
    for i in range(n):
        row = [0] * n
        if i < k:
            den = det
            for j in range(k):
                row[rows[j]] = lead[i][j]
        else:
            den = nums[i][i] * det
            row[rows[i]] = dens[i] * det
            for j in range(k):
                row[rows[j]] = -sum(nums[i][l] * lead[l][j] for l in range(k))
        inv[cols[i]] = (den, row)
    return Matrix.from_integer_rows(inv)


def mixed_sign_vector(x: Matrix, inv: Matrix | None = None) -> Vector:
    """Vector v with entries of both signs and X v >= 0; see the detailed variant."""
    v, _ = mixed_sign_vector_with_path(x, inv)
    return v


def mixed_sign_vector_with_path(
    x: Matrix, inv: Matrix | None = None
) -> tuple[Vector, str]:
    """As ``mixed_sign_vector``, also reporting which route produced v.

    ``inv`` is X^{-1} when the caller already has it; v is checked against X
    itself either way.

    Candidate vectors are the inverse's columns: the column holding the first
    negative entry (scanning row-major) maps to a nonnegative basis vector and
    is not itself nonnegative; symmetrically for the first positive entry.  If
    either candidate already has both signs it is returned directly (paths
    "column-u" / "column-w").  Otherwise one candidate is <= 0 and the other
    >= 0; they are independent, so some 2x2 coordinate minor D is invertible.
    Ordering that coordinate pair to make det(D) positive and solving
    D (alpha, beta)^T = (1, -1)^T yields nonnegative weights whose combination
    v = alpha*u + beta*w has entries of both signs while X v stays a
    nonnegative combination of basis vectors (path "combination").
    """
    if not x.is_square:
        raise DimensionError("need a square matrix")
    if inv is None:
        try:
            inv = x.inverse()
        except SingularMatrixError:
            raise InvalidInputError("matrix must be invertible") from None
    if inv.is_nonneg() or inv.is_nonpos():
        raise InvalidInputError("neither the matrix nor its negation may be inverse nonnegative")

    n = x.rows
    j_neg = next(j for _, nums in inv.integer_rows() for j, v in enumerate(nums) if v < 0)
    j_pos = next(j for _, nums in inv.integer_rows() for j, v in enumerate(nums) if v > 0)
    u = inv.col(j_neg)
    w = inv.col(j_pos)
    if u.has_mixed_signs():
        return _checked_mixed(x, u), "column-u"
    if w.has_mixed_signs():
        return _checked_mixed(x, w), "column-w"

    # here u <= 0 and w >= 0, from distinct columns of an invertible matrix
    pair = next(
        (i, l)
        for i in range(n)
        for l in range(i + 1, n)
        if u[i] * w[l] - w[i] * u[l] != 0
    )
    i, l = pair
    det_d = u[i] * w[l] - w[i] * u[l]
    if det_d < 0:
        i, l = l, i
        det_d = -det_d
    alpha = (w[i] + w[l]) / det_d
    beta = -(u[i] + u[l]) / det_d
    v = alpha * u + beta * w
    return _checked_mixed(x, v), "combination"


def _checked_mixed(x: Matrix, v: Vector) -> Vector:
    if not v.has_mixed_signs() or not (x @ v).is_nonneg():
        raise ArithmeticError("mixed-sign vector postcondition check failed")
    return v
