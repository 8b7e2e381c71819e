"""Metamorphic relations of the classify deciders and the square preserver
verdicts.

Semipositivity (SP) and minimal semipositivity (MSP) are both invariant under
A -> M A M' for positive monomial M and M' (a permutation times a positive
diagonal).  So the map A -> (M1 X M2) A (M3 Y M4) preserves a class exactly
when A -> X A Y does, and (cX, Y/c) for c > 0 is the same map as (X, Y).
"""

import random
from collections import Counter
from fractions import Fraction

from semipos import classify, genfuzz, preserver
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


def classify_corpus():
    """400 seeded matrices up to 5x5, square, tall and one column: a quarter drawn
    by ``gen_msp``, the rest integer draws, a third of those with the last row
    repeating the first."""
    rng = random.Random("metamorphic-classify")
    cfg = genfuzz.GenConfig(11)
    shapes = ((1, 1), (3, 1), (5, 1), (2, 2), (3, 2), (3, 3), (4, 2))
    shapes += ((4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (5, 5))
    for t in range(400):
        m, n = shapes[rng.randrange(len(shapes))]
        if t % 4 == 0:
            yield genfuzz.gen_msp(m, n, cfg, ("metamorphic", t))
        elif t % 4 == 1:
            yield genfuzz.int_matrix(rng, m, n)
        else:
            a = genfuzz.int_matrix(rng, m, n, -1, 3)
            yield genfuzz.singular(a) if t % 4 == 3 else a


def test_deciders_respect_the_symmetries_of_the_classes():
    """For each A of the corpus: SP and MSP of P D1 A D2 Q equal those of A,
    and a witness x of A maps to the witness (D2 Q)^-1 x; [A | 0] is SP
    exactly when A is and never MSP; A with a nonnegative nonzero row appended
    is SP exactly when A is (A's witness is strictly positive); and a square A
    is MSP by its inverse exactly when A^T is by column deletion, the LP route,
    as (A^T)^-1 = (A^-1)^T."""
    rng = random.Random("metamorphic-classify-maps")
    seen = Counter()
    for a in classify_corpus():
        sp, x = classify.is_semipositive(a)
        msp = classify.is_minimally_semipositive(a)
        left, right = positive_monomial(rng, a.rows), positive_monomial(rng, a.cols)
        b = left @ a @ right
        assert (classify.is_semipositive(b)[0], classify.is_minimally_semipositive(b)) == (sp, msp), a
        assert not sp or classify.is_sp_witness(b, right.inverse() @ x), a
        zero_column = Matrix([[*row, 0] for row in a.entries])
        assert classify.is_semipositive(zero_column)[0] == sp, a
        assert not classify.is_minimally_semipositive(zero_column), a
        extra_row = Matrix([*a.entries, genfuzz.nonzero_int_vector(rng, a.cols, 0, 3).entries])
        assert classify.is_semipositive(extra_row)[0] == sp, a
        if a.is_square:
            assert msp == classify.msp_by_deletion(a.transpose()), a
        seen[sp, msp, a.is_square] += 1
    # (SP, MSP, square): yes and no cases of both classes, square and not
    assert seen == {
        (False, False, False): 113, (False, False, True): 34,
        (True, False, False): 63, (True, False, True): 55,
        (True, True, False): 76, (True, True, True): 59,
    }


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
