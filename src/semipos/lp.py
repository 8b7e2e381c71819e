"""Exact feasibility deciders for small linear systems over the rationals.

Two questions are answered, both with verified witnesses:

* ``feasible_nonneg``:        is  {x >= 0 : A x >= b}  nonempty?
* ``equality_feasible_nonneg``: is  {y >= 0 : M y = c}  nonempty?

Both run a phase-one simplex on an equality tableau of fractions using
Bland's smallest-index pivot rule, which rules out cycling, so the solver
terminates on every input.  A brute-force vertex-enumeration oracle over
the same systems is provided for cross-validation at small sizes; it shares
nothing with the simplex path beyond the matrix type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ratmat import DimensionError, Matrix, Vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Vector | None = None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _phase1(coeffs: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve min sum(artificials) for  coeffs*z = rhs, z >= 0.

    Returns a structural solution z when the optimum is zero, else None.
    Entering rule: smallest structural index with negative reduced cost;
    leaving rule: smallest basic index among minimum ratios (Bland).
    """
    m = len(coeffs)
    k = len(coeffs[0])
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = list(coeffs[i])
        r = rhs[i]
        if r < 0:
            row = [-x for x in row]
            r = -r
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(row + art + [r])
    basis = list(range(k, k + m))
    # reduced costs for the phase-one objective; artificials start basic at cost 1
    obj = [_ZERO] * (k + m + 1)
    for j in range(k + m + 1):
        col_sum = sum((tab[i][j] for i in range(m)), _ZERO)
        cost = _ONE if k <= j < k + m else _ZERO
        obj[j] = cost - col_sum

    while True:
        entering = next((j for j in range(k) if obj[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_key: tuple[Fraction, int] | None = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > 0:
                key = (tab[i][-1] / coeff, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    pivot_row = i
        if pivot_row is None:
            raise ArithmeticError("phase-one objective unbounded; tableau corrupt")
        pivot = tab[pivot_row][entering]
        tab[pivot_row] = [x / pivot for x in tab[pivot_row]]
        pivot_vals = tab[pivot_row]
        for i in range(m):
            if i != pivot_row and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_vals)]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [a - f * b for a, b in zip(obj, pivot_vals)]
        basis[pivot_row] = entering

    residual = sum((tab[i][-1] for i in range(m) if basis[i] >= k), _ZERO)
    if residual != 0:
        return None
    z = [_ZERO] * k
    for i in range(m):
        if basis[i] < k:
            z[basis[i]] = tab[i][-1]
    return z


def feasible_nonneg(a: Matrix, b: Vector) -> FeasibilityResult:
    """Decide whether some x >= 0 satisfies A x >= b; witness verified."""
    if b.dim != a.rows:
        raise DimensionError(f"b has dimension {b.dim}, matrix has {a.rows} rows")
    n = a.cols
    coeffs = []
    for i in range(a.rows):
        surplus = [_ZERO] * a.rows
        surplus[i] = -_ONE
        coeffs.append(list(a.entries[i]) + surplus)
    z = _phase1(coeffs, list(b.entries))
    if z is None:
        return FeasibilityResult(False)
    x = Vector(z[:n])
    _check_witness_ge(a, x, b)
    return FeasibilityResult(True, x)


def equality_feasible_nonneg(m: Matrix, c: Vector) -> FeasibilityResult:
    """Decide whether some y >= 0 satisfies M y = c; witness verified."""
    if c.dim != m.rows:
        raise DimensionError(f"c has dimension {c.dim}, matrix has {m.rows} rows")
    z = _phase1([list(row) for row in m.entries], list(c.entries))
    if z is None:
        return FeasibilityResult(False)
    y = Vector(z)
    if not y.is_nonneg() or m @ y != c:
        raise ArithmeticError("simplex produced an invalid witness")
    return FeasibilityResult(True, y)


def _check_witness_ge(a: Matrix, x: Vector, b: Vector) -> None:
    if not x.is_nonneg():
        raise ArithmeticError("simplex witness violates x >= 0")
    ax = a @ x
    if any(ax[i] < b[i] for i in range(b.dim)):
        raise ArithmeticError("simplex witness violates A x >= b")


# -- brute-force oracle (vertex enumeration) ----------------------------------


def feasible_nonneg_bruteforce(a: Matrix, b: Vector) -> FeasibilityResult:
    """Independent oracle for feasible_nonneg; only usable at small sizes.

    The region {x >= 0 : A x >= b} is pointed, so it is nonempty iff it has a
    vertex, and every vertex solves some n independent active constraints from
    the stacked system [A; I] x >= [b; 0].  All n-subsets are enumerated.
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
    for combo in itertools.combinations(range(len(stacked)), n):
        sub = Matrix([stacked[i] for i in combo])
        if sub.det() == 0:
            continue
        x = sub.inverse() @ Vector([rhs[i] for i in combo])
        if x.is_nonneg():
            ax = a @ x
            if all(ax[i] >= b[i] for i in range(b.dim)):
                return FeasibilityResult(True, x)
    return FeasibilityResult(False)


def equality_feasible_nonneg_bruteforce(m: Matrix, c: Vector) -> FeasibilityResult:
    """Independent oracle for equality_feasible_nonneg via the inequality form."""
    rows = [list(r) for r in m.entries] + [[-x for x in r] for r in m.entries]
    rhs = list(c.entries) + [-x for x in c.entries]
    res = feasible_nonneg_bruteforce(Matrix(rows), Vector(rhs))
    if not res.feasible:
        return FeasibilityResult(False)
    y = res.witness
    if y is None or m @ y != c:
        raise ArithmeticError("brute-force witness violates M y = c")
    return FeasibilityResult(True, y)
