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
by B B^{-1} = I; the rectangular B, the top rows of a square one, by B times
the first columns of that B^{-1} being I.  Each identity is decided by
``ratmat._is_identity_product``, one packed big-integer dot product per row
of B, with no product formed.  Each case of a square builder returns only
the entries it sets, {column: value}, and each row of B is stored from
those entries as an integer row, so no builder writes a dense row or runs an
elimination.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    SingularMatrixError,
    Vector,
    _is_identity_product,
)

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


def _numerators(v: Vector) -> tuple[int, ...]:
    """v's stored numerators, over one positive denominator: each has the
    sign of its entry."""
    ((_, nums),) = v.integer_rows()
    return nums


def _permuted(v: Vector, order: Sequence[int]) -> Vector:
    """The vector whose entry k is entry order[k] of v, read from v's stored
    row: a permutation of its numerators keeps them in lowest terms."""
    ((den, nums),) = v.integer_rows()
    return Vector._from_integer_rows([(den, tuple(nums[i] for i in order))])


def _sparse_row(n: int, entries: dict[int, Fraction]) -> tuple[int, list[int]]:
    """The row of length n that holds ``entries`` (column: value) and zeros
    elsewhere, as the lcm of the entries' denominators and the numerators
    over it, with no ``Fraction`` built for the zeros."""
    lcm = math.lcm(*(x.denominator for x in entries.values()))
    nums = [0] * n
    for j, x in entries.items():
        nums[j] = x.numerator * (lcm // x.denominator)
    return lcm, nums


def _np_permutations(v: Vector, w: Vector) -> tuple[list[int], list[int]]:
    """Coordinate orders putting a positive entry of v first, a negative one
    last, and a nonzero entry of w first.  Inputs already in that shape are
    left alone (the orders reduce to the identity)."""
    n = v.dim
    vs, ws = _numerators(v), _numerators(w)
    i_pos = next(i for i in range(n) if vs[i] > 0)
    i_neg = max(i for i in range(n) if vs[i] < 0)
    sigma = [i_pos] + [i for i in range(n) if i not in (i_pos, i_neg)] + [i_neg]
    j_nonzero = next(j for j in range(n) if ws[j] != 0)
    tau = [j_nonzero] + [j for j in range(n) if j != j_nonzero]
    return sigma, tau


def _np_head_row(vp: Vector, wp: Vector) -> tuple[dict[int, Fraction], str]:
    n = vp.dim
    if wp[0] > 0:
        return {0: wp[0] / vp[0]}, "a"
    return {n - 1: wp[0] / vp[n - 1]}, "b"


def _np_interior_row(i: int, vp: Vector, wp: Vector) -> tuple[dict[int, Fraction], str]:
    n = vp.dim
    v1, vn = vp[0], vp[n - 1]
    vi, wi = vp[i], wp[i]
    if wi > 0 and vi > 0:
        return {0: wi / (2 * v1), i: wi / (2 * vi)}, "a"
    if wi > 0 and vi < 0:
        return {0: (wi + 1) / v1, i: -1 / vi}, "b"
    if wi > 0:
        return {0: wi / v1, i: _ONE}, "c"
    if wi < 0 and vi > 0:
        return {i: 1 / vi, n - 1: (wi - 1) / vn}, "d"
    if wi < 0 and vi < 0:
        return {i: wi / (2 * vi), n - 1: wi / (2 * vn)}, "e"
    if wi < 0:
        return {i: _ONE, n - 1: wi / vn}, "f"
    if vi > 0:
        return {i: 1 / vi, n - 1: -1 / vn}, "g"
    if vi < 0:
        return {0: 1 / v1, i: -1 / vi}, "h"
    return {i: _ONE}, "i"


def _np_tail_row(vp: Vector, wp: Vector) -> tuple[dict[int, Fraction], str]:
    n = vp.dim
    v1, vn = vp[0], vp[n - 1]
    w1, wn = wp[0], wp[n - 1]
    if wn > 0 and w1 < 0:
        return {0: wn / v1}, "a"
    if wn > 0:
        return {0: (wn + 1) / v1, n - 1: -1 / vn}, "b"
    if wn < 0 and w1 < 0:
        return {0: 1 / v1, n - 1: (wn - 1) / vn}, "c"
    if wn < 0:
        return {n - 1: wn / vn}, "d"
    return {0: 1 / v1, n - 1: -1 / vn}, "e"


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
    form and ``_checked`` proves it by B B^{-1} = I.  Each case returns only
    the entries it sets, as {normalized column: value}, and row tau[k] of B
    is stored from row k's entries, as integers over their lcm
    (``_sparse_row``), with no dense row built.
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
    vp = _permuted(v, sigma)
    wp = _permuted(w, tau)

    head, case1 = _np_head_row(vp, wp)
    interior = [_np_interior_row(i, vp, wp) for i in range(1, n - 1)]
    tail, case3 = _np_tail_row(vp, wp)
    stored: list[tuple[int, list[int]]] = [(1, [])] * n  # row tau[k] set at step k
    for k, entries in enumerate([head, *(row for row, _ in interior), tail]):
        stored[tau[k]] = _sparse_row(n, {sigma[l]: x for l, x in entries.items()})
    b = Matrix.from_integer_rows(stored)
    ends = [0, n - 1] + list(range(1, n - 1))
    inv = _block_inverse(b, [tau[k] for k in ends], [sigma[k] for k in ends], 2, "build_np")
    cases2 = tuple(case for _, case in interior)
    trace = NpCaseTrace(case1, cases2, case3, tuple(sigma), tuple(tau), inv)
    return _checked(b, v, w, "build_np", inv), trace


def positive_first_permutation(v: Vector) -> tuple[int, ...]:
    """Coordinate order listing the positive entries of v first, stable."""
    nums = _numerators(v)
    positive = [i for i in range(v.dim) if nums[i] > 0]
    rest = [i for i in range(v.dim) if nums[i] <= 0]
    return tuple(positive + rest)


def build_pos(v: Vector, w: Vector) -> tuple[Matrix, Matrix]:
    """(B, B^{-1}) for the nonnegative invertible B with B v = w, for v >= 0
    nonzero and w > 0.

    With sigma from ``positive_first_permutation(v)``, v' = v permuted by
    sigma and k the number of positive entries of v, row i of B is built
    directly, as an integer row from its one or two entries: it holds
    w_i / v'_0 in column sigma[0], halved when 0 < i < k, and for i > 0 also
    w_i / (2 v'_i) when i < k, or 1 otherwise, in column sigma[i].  Its
    columns taken in the order sigma form a lower triangular matrix with
    nonzero diagonal whose off-diagonal entries all lie in the first column,
    a 1 x 1 block above a diagonal; ``_block_inverse`` reads B^{-1} off that
    form and ``_checked`` proves it by B B^{-1} = I.
    """
    if v.dim != w.dim:
        raise InvalidInputError("v and w must have the same dimension")
    if not v.is_nonneg() or v.is_zero():
        raise InvalidInputError("v must be nonnegative and nonzero")
    if not w.is_positive():
        raise InvalidInputError("w must be strictly positive")

    sigma = positive_first_permutation(v)
    vp = _permuted(v, sigma)
    n = v.dim
    k = sum(1 for x in _numerators(vp) if x > 0)

    stored: list[tuple[int, list[int]]] = []
    for i in range(n):
        entries = {sigma[0]: w[i] / (2 * vp[0] if 0 < i < k else vp[0])}
        if i:
            entries[sigma[i]] = w[i] / (2 * vp[i]) if i < k else _ONE
        stored.append(_sparse_row(n, entries))
    b = Matrix.from_integer_rows(stored)
    inv = _block_inverse(b, range(n), sigma, 1, "build_pos")
    return _checked(b, v, w, "build_pos", inv), inv


def build_rect(v: Vector, w: Vector) -> Matrix:
    """Nonnegative full-row-rank B with B v = w, for v longer than w.

    The target is padded with ones to the length of v, the square construction
    matching v's sign pattern is applied, and the top m rows are kept.  The
    first m columns of the square B^{-1} are a right inverse of those rows,
    which proves their full row rank.
    """
    n, m = v.dim, w.dim
    if n <= m:
        raise InvalidInputError("v must be strictly longer than w")
    padded = Vector(w.entries + (_ONE,) * (n - m))
    if v.has_mixed_signs():
        full, trace = build_np(v, padded)
        inv = trace.inverse
    elif v.is_nonneg() and not v.is_zero() and w.is_positive():
        full, inv = build_pos(v, padded)
    else:
        raise InvalidInputError(
            "need v with both signs, or v >= 0 nonzero together with w > 0"
        )
    right = Matrix.from_integer_rows((den, nums[:m]) for den, nums in inv.integer_rows())
    return _checked(full.take_rows(m), v, w, "build_rect", right)


def _checked(b: Matrix, v: Vector, w: Vector, name: str, inv: Matrix) -> Matrix:
    """B, after checking B >= 0, B v = w and full row rank, the last by
    B inv = I for a right inverse ``inv`` of B, decided exactly by
    ``ratmat._is_identity_product`` without forming B inv."""
    if not b.is_nonneg() or b @ v != w or not _is_identity_product(b, inv):
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
    proves the result by B B^{-1} = I, one packed dot product per row of B.
    A singular L or a zero on D's diagonal raises the builder's postcondition
    error before any division.
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
