"""Metamorphic relations of the square preserver verdicts.

Semipositivity and minimal semipositivity are both invariant under
A -> M A M' for positive monomial M and M' (a permutation times a positive
diagonal).  So the map A -> (M1 X M2) A (M3 Y M4) preserves a class exactly
when A -> X A Y does, and (cX, Y/c) for c > 0 is the same map as (X, Y).
"""

import random
from fractions import Fraction

from semipos import preserver
from semipos.preserver import PreserverMap
from semipos.ratmat import Matrix
from test_preserver import GRID_2X2

POSITIVE = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2))
VERDICTS = (
    preserver.into_sp_preserver,
    preserver.into_msp_preserver,
    preserver.onto_sp_preserver,
    preserver.onto_msp_preserver,
)


def positive_monomial(rng, n):
    perm = rng.sample(range(n), n)
    return Matrix([[rng.choice(POSITIVE) if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def test_verdicts_keep_status_and_reason_under_positive_monomials_and_scaling():
    """Every X of the 2x2 {-1, 0, 1} grid, each with five seeded Y from the
    grid: the status and reason of (X, Y) equal those of (M1 X M2, M3 Y M4)
    and of (cX, Y/c), and every certificate of a transformed pair verifies."""
    rng = random.Random("metamorphic")
    compared = 0
    for x in GRID_2X2:
        for y in rng.sample(GRID_2X2, 5):
            m1, m2, m3, m4 = (positive_monomial(rng, 2) for _ in range(4))
            c = rng.choice(POSITIVE[1:])
            base = PreserverMap(x, y)
            moved = PreserverMap(m1 @ x @ m2, m3 @ y @ m4)
            scaled = PreserverMap(x * c, y * (1 / c))
            for op in VERDICTS:
                want = op(base)
                for lmap in (moved, scaled):
                    got = op(lmap)
                    assert (got.status, got.reason) == (want.status, want.reason), (
                        op.__name__, x, y, lmap.x, lmap.y
                    )
                    assert got.certificate is None or got.certificate.verify(), (op.__name__, lmap)
                    compared += 1
    assert compared == 81 * 5 * 4 * 2
