"""LP verdicts and witnesses pinned byte for byte.

``golden_lp.json`` holds the ``feasible_nonneg`` and ``equality_feasible_nonneg``
results on a seeded corpus of systems of shape 2x2 to 6x6, one system a line:
fractional entries with denominators up to 97, negative right-hand sides,
infeasible systems, and degenerate systems whose minimum ratios tie, so that
the pivot rule's tie-break decides the witness.  Regenerate it only when a witness is meant to
change, with the one writer of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import golden
from semipos import genfuzz, lp
from semipos.ratmat import Matrix, Vector

GOLDEN = golden.path("lp")
PER_FAMILY = 60


def _fractional(rng: random.Random, m: int, n: int) -> tuple[list, list]:
    """Each row over its own denominator, 1 or 97, so that scaling rows apart
    would change the phase-one reduced costs."""
    rows = []
    for _ in range(m):
        den = rng.choice((1, 97))
        rows.append([Fraction(rng.randint(-12, 12), den) for _ in range(n + 1)])
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _negative_rhs(rng: random.Random, m: int, n: int) -> tuple[list, list]:
    a = genfuzz.int_rows(rng, m, n, -4, 4)
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
    b[rng.randrange(m)] = -Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return a, b


def _infeasible(rng: random.Random, m: int, n: int) -> tuple[list, list]:
    """Row 1 is minus row 0 with the same positive rhs, so 0 >= 2 rhs_0 follows
    for the inequalities and rhs_0 = -rhs_0 for the equalities."""
    def entry():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 97))

    a = [[entry() for _ in range(n)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    a[1] = [-x for x in a[0]]
    b[0] = b[1] = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    return a, b


def _degenerate(rng: random.Random, m: int, n: int) -> tuple[list, list]:
    """Entries in 0..2 and rhs in 1..2, so minimum ratios often tie between
    rows that are not proportional; row m-1 repeats row 0 half the time."""
    a = genfuzz.int_rows(rng, m, n, 0, 2)
    b = [rng.randint(1, 2) for _ in range(m)]
    if rng.random() < 0.5:
        a[-1], b[-1] = list(a[0]), b[0]
    return a, b


FAMILIES = {
    "fractional": _fractional,
    "negative-rhs": _negative_rhs,
    "infeasible": _infeasible,
    "degenerate": _degenerate,
}


def _result(r: lp.FeasibilityResult) -> dict:
    return {"feasible": r.feasible, "witness": r.witness and r.witness.to_strings()}


def cases():
    for family, draw in FAMILIES.items():
        rng = random.Random(f"golden-lp:{family}")
        for t in range(PER_FAMILY):
            a, b = draw(rng, rng.randint(2, 6), rng.randint(2, 6))
            yield f"{family}:{t}", Matrix(a), Vector(b)


def _solved(a: Matrix, b: Vector) -> dict:
    return {
        "a": a.to_strings(),
        "b": b.to_strings(),
        "feasible_nonneg": _result(lp.feasible_nonneg(a, b)),
        "equality_feasible_nonneg": _result(lp.equality_feasible_nonneg(a, b)),
    }


def render() -> str:
    """Every system with both solvers' results, one system a line."""
    return golden.dump((label, _solved(a, b)) for label, a, b in cases())


def test_lp_results_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_lp_covers_both_verdicts():
    pinned = json.loads(GOLDEN.read_text())
    assert len(pinned) == len(FAMILIES) * PER_FAMILY
    for family in ("fractional", "negative-rhs", "degenerate"):
        entries = [v for k, v in pinned.items() if k.startswith(f"{family}:")]
        for solver in ("feasible_nonneg", "equality_feasible_nonneg"):
            assert {v[solver]["feasible"] for v in entries} == {True, False}, (family, solver)
    infeasible = [v for k, v in pinned.items() if k.startswith("infeasible:")]
    assert not any(v["feasible_nonneg"]["feasible"] for v in infeasible)
    assert not any(v["equality_feasible_nonneg"]["feasible"] for v in infeasible)
