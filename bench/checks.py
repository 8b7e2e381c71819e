"""Output checks that share no code path with the library.

Every check works on plain lists of ``Fraction`` with hand-written products
and elimination, so a defect in ``semipos.ratmat`` cannot make a wrong result
look right.  Each checker returns ``None`` for an accepted output or a short
reason for a rejected one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Grid = list[list[Fraction]]


def grid(m) -> Grid:
    """Plain rows of a ``Matrix``, or of a nested list of rational strings."""
    rows = m.entries if hasattr(m, "entries") else m
    return [[Fraction(x) for x in row] for row in rows]


def vec(v) -> list[Fraction]:
    return [Fraction(x) for x in (v.entries if hasattr(v, "entries") else v)]


def mul(a: Grid, b: Grid) -> Grid:
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for row in a
    ]


def apply(a: Grid, x: Sequence[Fraction]) -> list[Fraction]:
    return [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a]


def is_identity(a: Grid) -> bool:
    return all(a[i][j] == (1 if i == j else 0) for i in range(len(a)) for j in range(len(a[0])))


def rank(a: Grid) -> int:
    rows = [list(r) for r in a]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def nonneg(a: Grid) -> bool:
    return all(x >= 0 for row in a for x in row)


def sp_witness(a: Grid, x: Sequence[Fraction] | None) -> str | None:
    """x > 0 and A x > 0."""
    if x is None or len(x) != len(a[0]):
        return "missing semipositivity witness"
    if not all(v > 0 for v in x):
        return "witness not strictly positive"
    if not all(v > 0 for v in apply(a, x)):
        return "A x not strictly positive"
    return None


def left_inverse(a: Grid, n: Grid | None) -> str | None:
    """N >= 0 and N A = I."""
    if n is None:
        return "missing left inverse"
    if not nonneg(n):
        return "left inverse has a negative entry"
    if not is_identity(mul(n, a)):
        return "N A is not the identity"
    return None


def image(b: Grid, v: Sequence[Fraction], w: Sequence[Fraction], rows: int) -> str | None:
    """B >= 0, B has full row rank ``rows`` and B v = w."""
    if len(b) != rows or len(b[0]) != len(v):
        return f"B has shape {len(b)}x{len(b[0])}"
    if not nonneg(b):
        return "B has a negative entry"
    if rank(b) != rows:
        return "B is not of full row rank"
    if apply(b, v) != list(w):
        return "B v != w"
    return None


def mixed_sign(x: Grid, v: Sequence[Fraction]) -> str | None:
    """v has entries of both signs and X v >= 0."""
    if not (any(t > 0 for t in v) and any(t < 0 for t in v)):
        return "v lacks entries of both signs"
    if not all(t >= 0 for t in apply(x, v)):
        return "X v has a negative entry"
    return None


def verdict(x, y, planted: str, result) -> str | None:
    """A ``PreserverVerdict`` against the planted status.  A "no" needs a
    certificate for the map (or, for an onto question refuted through the
    inverse map, for the inverse map), whose image is X A Y by plain products
    and which passes ``verify()``."""
    if result.status.value != planted:
        return f"status {result.status.value}, planted {planted}"
    cert = result.certificate
    if planted != "no":
        return None if cert is None else "certificate on a non-negative verdict"
    if cert is None:
        return "no certificate on a negative verdict"
    if result.reason == "inverse-not-into":
        # onto fails because the inverse map is not into: the certificate is for (X^-1, Y^-1)
        if not (is_identity(mul(grid(cert.x), grid(x))) and is_identity(mul(grid(cert.y), grid(y)))):
            return "certificate map is not the inverse map"
    elif cert.x != x or cert.y != y:
        return "certificate names another map"
    if cert.kind == "image-leaves-class":
        if cert.image is None or grid(cert.image) != mul(mul(grid(cert.x), grid(cert.a)), grid(cert.y)):
            return "certificate image != X A Y"
    if not cert.verify():
        return "certificate fails verify()"
    return None
