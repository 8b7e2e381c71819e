"""Exact feasibility deciders for small linear systems over the rationals.

Two questions are answered, both with verified witnesses:

* ``feasible_nonneg``:        is  {x >= 0 : A x >= b}  nonempty?
* ``equality_feasible_nonneg``: is  {y >= 0 : M y = c}  nonempty?

Both run a phase-one simplex on an equality tableau using Bland's
smallest-index pivot rule, which rules out cycling, so the solver terminates
on every input.  The tableau is kept in integers, as in lrs (Avis 2000): each
row starts as a stored ``Matrix`` row over its own scale, and pivots take
``ratmat._pivot``, the fraction-free step of Edmonds (1967) that ratmat's
elimination also runs.  Row i is ``row_scales[i] * grid[i]``, the Edmonds
row; scales and the previous pivot ``d`` are positive, so every sign and
ratio test, and hence every pivot and witness, is the one the rational
tableau gives.

A brute-force vertex-enumeration oracle over the same systems is provided for
cross-validation at small sizes.  It runs no simplex, but each candidate
basis is solved by one ``Matrix.inverse``, which reaches ``_pivot`` too and
raises ``SingularMatrixError`` on a singular basis; each inverse is
self-checked by an integer product, and ``_pivot`` is checked against
plain-``Fraction`` Gauss-Jordan in the ratmat tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .ratmat import DimensionError, Matrix, SingularMatrixError, Vector, _pivot, _reduced

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: Vector | None = None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _phase1(
    rows: Iterable[tuple[int, Sequence[int]]], rhs: Vector
) -> tuple[int, list[int]] | None:
    """Solve min sum(artificials) for  M z = rhs, z >= 0, M given by its
    integer rows (denominator, numerators) as ``Matrix.integer_rows`` yields them.

    Returns a structural solution z when the optimum is zero, as (d, the
    integers d z), else None.
    Entering rule: smallest structural index with negative reduced cost;
    leaving rule: smallest basic index among minimum ratios (Bland).

    The grid holds the structural columns and the rhs only.  The artificial
    columns are never read: entering candidates are structural, and the end
    test reads the rhs and the basis labels, in which the artificial of row i
    is k + i.  With the rhs stored as integers u over one denominator e, row i
    and its rhs start as the rational row times its own scale
    ``s_i = lcm(den_i, e)``, negated when the rhs is negative.  The
    objective row, last in the grid, starts as ``L`` times the rational one, L
    the lcm of the s_i, built as ``-sum (L / s_i) * row_i``; its entries in the
    artificial columns would be 0, as the artificials start basic at cost 1.
    Each pivot is one ``ratmat._pivot`` step on the grid.  Invariant: row i is
    ``row_scales[i] * grid[i]``, the Edmonds row; scales and ``d`` are
    positive, because every simplex pivot is.  The factors are shared by a
    row's entries, so every sign and every cross-multiplied ratio is the one
    the rational tableau gives, and Bland's rule picks the same pivots.  A row
    whose basic variable is structural is its rational row times ``d``, so a
    witness entry is ``row_scales[i] * rhs_i / d``: every entry is an integer
    over the one ``d``, and no ``Fraction`` is built.
    """
    m = rhs.dim
    grid: list[list[int]] = []
    start_scales: list[int] = []
    ((e, u),) = rhs.integer_rows()
    for (den, nums), r in zip(rows, u):
        s = math.lcm(den, e)
        f = s // den if r >= 0 else -(s // den)
        grid.append([x * f for x in nums] + [abs(r) * (s // e)])
        start_scales.append(s)
    k = len(grid[0]) - 1
    basis = list(range(k, k + m))
    # reduced costs of the phase-one objective
    lcm = math.lcm(*start_scales)
    grid.append([-sum(lcm // s * x for s, x in zip(start_scales, col)) for col in zip(*grid)])
    row_scales = [1] * (m + 1)

    d = 1
    while True:
        entering = next((j for j in range(k) if grid[m][j] < 0), None)
        if entering is None:
            break
        pivot_row = -1
        for i in range(m):
            coeff = grid[i][entering]
            if coeff > 0:
                if pivot_row < 0:
                    pivot_row = i
                    continue
                # rhs_i / coeff against rhs_best / best, cross-multiplied (both > 0);
                # both sides carry the positive factor row_scales[i] * row_scales[pivot_row]
                best = grid[pivot_row][entering]
                lhs = grid[i][-1] * best
                rhs_best = grid[pivot_row][-1] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row < 0:
            raise ArithmeticError("phase-one objective unbounded; tableau corrupt")
        d = _pivot(grid, row_scales, pivot_row, entering, d)
        basis[pivot_row] = entering

    if any(grid[i][-1] for i in range(m) if basis[i] >= k):
        return None
    z = [0] * k
    for i in range(m):
        if basis[i] < k:
            z[basis[i]] = row_scales[i] * grid[i][-1]
    return d, z


def feasible_nonneg(a: Matrix, b: Vector) -> FeasibilityResult:
    """Decide whether some x >= 0 satisfies A x >= b; witness verified."""
    if b.dim != a.rows:
        raise DimensionError(f"b has dimension {b.dim}, matrix has {a.rows} rows")
    # A x - s = b over (x, s) >= 0: row i gains the surplus column -e_i
    surplus = (
        (den, nums + tuple(-den if j == i else 0 for j in range(a.rows)))
        for i, (den, nums) in enumerate(a.integer_rows())
    )
    solution = _phase1(surplus, b)
    if solution is None:
        return FeasibilityResult(False)
    d, z = solution
    x = Vector._from_integer_rows([_reduced(d, z[: a.cols])])
    if not x.is_nonneg() or not (a @ x + -b).is_nonneg():
        raise ArithmeticError("simplex produced an invalid witness")
    return FeasibilityResult(True, x)


def equality_feasible_nonneg(m: Matrix, c: Vector) -> FeasibilityResult:
    """Decide whether some y >= 0 satisfies M y = c; witness verified."""
    if c.dim != m.rows:
        raise DimensionError(f"c has dimension {c.dim}, matrix has {m.rows} rows")
    solution = _phase1(m.integer_rows(), c)
    if solution is None:
        return FeasibilityResult(False)
    y = Vector._from_integer_rows([_reduced(*solution)])
    if not y.is_nonneg() or m @ y != c:
        raise ArithmeticError("simplex produced an invalid witness")
    return FeasibilityResult(True, y)


# -- brute-force oracle (vertex enumeration) ----------------------------------


def feasible_nonneg_bruteforce(a: Matrix, b: Vector) -> FeasibilityResult:
    """Independent oracle for feasible_nonneg; only usable at small sizes.

    The region {x >= 0 : A x >= b} is pointed, so it is nonempty iff it has a
    vertex, and every vertex solves some n independent active constraints from
    the stacked system [A; I] x >= [b; 0].  All n-subsets are enumerated,
    except those holding a row and its negation, which are singular.
    """
    if b.dim != a.rows:
        raise DimensionError(f"b has dimension {b.dim}, matrix has {a.rows} rows")
    n = a.cols
    stacked = [list(row) for row in a.entries]
    rhs = list(b.entries)
    for i in range(n):
        row = [_ZERO] * n
        row[i] = _ONE
        stacked.append(row)
        rhs.append(_ZERO)
    negated = {
        (i, j)
        for i, j in itertools.combinations(range(len(stacked)), 2)
        if stacked[i] == [-x for x in stacked[j]]
    }
    for combo in itertools.combinations(range(len(stacked)), n):
        if any(pair in negated for pair in itertools.combinations(combo, 2)):
            continue
        try:
            inv = Matrix([stacked[i] for i in combo]).inverse()
        except SingularMatrixError:
            continue
        x = inv @ Vector([rhs[i] for i in combo])
        if x.is_nonneg():
            ax = a @ x
            if all(ax[i] >= b[i] for i in range(b.dim)):
                return FeasibilityResult(True, x)
    return FeasibilityResult(False)


def equality_feasible_nonneg_bruteforce(m: Matrix, c: Vector) -> FeasibilityResult:
    """Independent oracle for equality_feasible_nonneg via the inequality form."""
    rows = [[s * x for x in r] for s in (1, -1) for r in m.entries]
    rhs = [s * x for s in (1, -1) for x in c.entries]
    res = feasible_nonneg_bruteforce(Matrix(rows), Vector(rhs))
    if not res.feasible:
        return FeasibilityResult(False)
    y = res.witness
    if y is None or m @ y != c:
        raise ArithmeticError("brute-force witness violates M y = c")
    return FeasibilityResult(True, y)
