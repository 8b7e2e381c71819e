"""Exact feasibility deciders for small linear systems over the rationals.

Two questions are answered, both with verified witnesses:

* ``feasible_nonneg``:        is  {x >= 0 : A x >= b}  nonempty?
* ``equality_feasible_nonneg``: is  {y >= 0 : M y = c}  nonempty?

Both run a phase-one simplex on an equality tableau using Bland's
smallest-index pivot rule, which rules out cycling, so the solver terminates
on every input.  ``equality_feasible_nonneg_each`` asks the second question
for several c at once, as a tall matrix's left inverse does for its n unit
vectors: one simplex drives on the first c and carries the others as extra
tableau columns, each read off the final basis when that basis shows a
solution, and each c it does not show gets a simplex of its own, so every
"no" comes from a run on its own c.  ``equality_feasible_nonneg`` is its
one-column case.  The tableau is kept in integers, as in lrs (Avis 2000): each
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
    rows: Iterable[tuple[int, Sequence[int]]], rhss: Sequence[Vector]
) -> list[tuple[int, list[int]] | None]:
    """Solve min sum(artificials) for  M z = rhss[0], z >= 0, M given by its
    integer rows (denominator, numerators) as ``Matrix.integer_rows`` yields
    them, and read every right-hand side off the final basis.

    Returns one entry per rhs: a structural solution z as (den, the integers
    den z), or None.  For ``rhss[0]``, the driving rhs, None means
    infeasible.  The others ride along as extra grid columns that no pivot
    choice reads, so the driving solve's pivots, ``d`` and z are the ones it
    gets alone; for a rider, None means only that this basis does not show a
    solution.
    Entering rule: smallest structural index with negative reduced cost;
    leaving rule: smallest basic index among minimum ratios (Bland).

    The grid holds the structural columns, the driving rhs and the riders.
    The artificial columns are never read: entering candidates are
    structural, and the end test reads the rhs columns and the basis labels,
    in which the artificial of row i is k + i.  With the driving rhs stored as
    integers u over one denominator e, row i and its rhs start as the rational
    row times its own scale ``s_i = lcm(den_i, e)``, negated when ``u_i`` is
    negative.  A rider stored as integers v over its own denominator f enters
    row i as ``s_i * v_i``, negated with the row: f times its rational column
    scaled like the row, so the row scales stay the driving solve's.  The
    objective row, last in the grid, starts as ``L`` times the rational one, L
    the lcm of the s_i, built as ``-sum (L / s_i) * row_i``; its entries in the
    artificial columns would be 0, as the artificials start basic at cost 1.
    Each pivot is one ``ratmat._pivot`` step on the grid.  Invariant: row i is
    ``row_scales[i] * grid[i]``, the Edmonds row; scales and ``d`` are
    positive, because every simplex pivot is.  The factors are shared by a
    row's entries, so every sign and every cross-multiplied ratio is the one
    the rational tableau gives, and Bland's rule picks the same pivots.

    At the end, setting the nonbasic columns to 0 solves the system for a
    rhs column exactly when its entries are >= 0 and 0 in every row whose
    basic label is artificial; the driving column is >= 0 throughout, by the
    ratio test.  A row whose basic variable is structural is its rational
    row times ``d``, so a solution entry is ``row_scales[i] * grid[i][col]``
    over ``d * f`` (f = 1 for the driving rhs): every entry is an integer over
    one denominator, and no ``Fraction`` is built.
    """
    m = rhss[0].dim
    grid: list[list[int]] = []
    start_scales: list[int] = []
    ((e, u),) = rhss[0].integer_rows()
    riders = [row for c in rhss[1:] for row in c.integer_rows()]
    for i, ((den, nums), r) in enumerate(zip(rows, u)):
        s = math.lcm(den, e)
        f = s // den if r >= 0 else -(s // den)
        t = f * den  # s, negated with the row
        grid.append([x * f for x in nums] + [abs(r) * (s // e)] + [v[i] * t for _, v in riders])
        start_scales.append(s)
    k = len(grid[0]) - len(rhss)
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
                lhs = grid[i][k] * best
                rhs_best = grid[pivot_row][k] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row < 0:
            raise ArithmeticError("phase-one objective unbounded; tableau corrupt")
        d = _pivot(grid, row_scales, pivot_row, entering, d)
        basis[pivot_row] = entering

    artificial = [i for i in range(m) if basis[i] >= k]
    solutions: list[tuple[int, list[int]] | None] = []
    for col, f in enumerate([1, *(den for den, _ in riders)], start=k):
        if any(grid[i][col] for i in artificial) or any(grid[i][col] < 0 for i in range(m)):
            solutions.append(None)
            continue
        z = [0] * k
        for i in range(m):
            if basis[i] < k:
                z[basis[i]] = row_scales[i] * grid[i][col]
        solutions.append((d * f, z))
    return solutions


def feasible_nonneg(a: Matrix, b: Vector) -> FeasibilityResult:
    """Decide whether some x >= 0 satisfies A x >= b; witness verified."""
    if b.dim != a.rows:
        raise DimensionError(f"b has dimension {b.dim}, matrix has {a.rows} rows")
    # A x - s = b over (x, s) >= 0: row i gains the surplus column -e_i
    surplus = (
        (den, nums + tuple(-den if j == i else 0 for j in range(a.rows)))
        for i, (den, nums) in enumerate(a.integer_rows())
    )
    (solution,) = _phase1(surplus, [b])
    if solution is None:
        return FeasibilityResult(False)
    d, z = solution
    x = Vector._from_integer_rows([_reduced(d, z[: a.cols])])
    if not x.is_nonneg() or not (a @ x + -b).is_nonneg():
        raise ArithmeticError("simplex produced an invalid witness")
    return FeasibilityResult(True, x)


def equality_feasible_nonneg(m: Matrix, c: Vector) -> FeasibilityResult:
    """Decide whether some y >= 0 satisfies M y = c; witness verified."""
    (result,) = equality_feasible_nonneg_each(m, [c])
    return result


def equality_feasible_nonneg_each(m: Matrix, cs: Sequence[Vector]) -> list[FeasibilityResult]:
    """``equality_feasible_nonneg`` for each c in ``cs`` in order, up to and
    including the first infeasible one; every witness verified.

    One phase-one run drives on ``cs[0]`` and carries the rest along; a c its
    final basis does not show gets a run of its own.  So every "no" comes
    from a run driven by its own c, and on columns that one basis solves,
    such as the unit vectors of a left inverse, n systems cost one simplex.
    """
    for c in cs:
        if c.dim != m.rows:
            raise DimensionError(f"c has dimension {c.dim}, matrix has {m.rows} rows")
    results: list[FeasibilityResult] = []
    solutions = _phase1(m.integer_rows(), cs) if cs else []
    for j, (c, solution) in enumerate(zip(cs, solutions)):
        if solution is None and j:
            (solution,) = _phase1(m.integer_rows(), [c])
        if solution is None:
            results.append(FeasibilityResult(False))
            break
        y = Vector._from_integer_rows([_reduced(*solution)])
        if not y.is_nonneg() or m @ y != c:
            raise ArithmeticError("simplex produced an invalid witness")
        results.append(FeasibilityResult(True, y))
    return results


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
