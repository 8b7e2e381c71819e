"""The hand-picked example matrices and their class facts, one table.

Each named matrix is defined here once, and every test that needs it imports
it.  ``MATRICES`` holds one ``Example`` a matrix: a label, A, and every fact
the tests assert about A.  ``tests/test_classify.py::test_matrix_example``
checks each row with the library (``det``, ``rank``, ``inverse``, each
``classify`` decider and every field of ``classify_all``) and with the
independent oracles (the Leibniz expansion, vertex enumeration,
``msp_by_deletion`` and the evidence checkers), and
``tests/test_cli.py::test_classify_identity`` runs every row through
``semipos classify``.

pytest does not collect this file.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from semipos.ratmat import Matrix

I2, I3, I4 = (Matrix.identity(n) for n in (2, 3, 4))
# the worked example: build_np maps (1, 0, -5, -1) to (3, 2, -10, 0) by it
EXAMPLE_B = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])
ONES_2 = Matrix([[1, 1], [1, 1]])
M_2 = Matrix([[2, -1], [-1, 2]])
LOWER = Matrix([[1, 0], [1, 1]])
UPPER = Matrix([[1, 1], [0, 1]])
SWAP = Matrix([[0, 1], [1, 0]])
DIAG_NEG = Matrix([[-1, 0], [0, 1]])
ZERO_ROW = Matrix([[1, 1], [0, 0]])
# [I; 1^T], minimally semipositive with the left inverse [I 0]
LIFT = Matrix([[1, 0], [0, 1], [1, 1]])
# row 1 is nonpositive, so no positive vector has a positive image
SIGNED_X = Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]])
# the tall into-MSP search finds no counterexample for (NEAR_IDENTITY, I2)
NEAR_IDENTITY = Matrix([[1, "-1/10", 0], [0, 1, 0], [0, 0, 1]])

# the class fields of ``classify.ClassReport``; two are decided on square A only
NONNEGATIVE, POSITIVE, ROW_POSITIVE, MONOMIAL = "nonnegative", "positive", "row_positive", "monomial"
INVERSE_NONNEGATIVE, SP, MSP = "inverse_nonnegative", "semipositive", "minimally_semipositive"
CLASSES = (NONNEGATIVE, POSITIVE, ROW_POSITIVE, MONOMIAL, INVERSE_NONNEGATIVE, SP, MSP)
SQUARE_ONLY = (MONOMIAL, INVERSE_NONNEGATIVE)

# a positive diagonal scaling of a permutation is in every class but the positive one
MONOMIAL_CLASSES = set(CLASSES) - {POSITIVE}


class Example(NamedTuple):
    """A matrix and its facts.  ``det`` and ``inverse`` are None on a
    non-square A, and ``inverse`` also on a singular one.  ``left_inverse``
    is the nonnegative N with N A = I that ``has_nonneg_left_inverse``
    returns (a square A's is its inverse), None when there is none and on a
    wide A.  ``holds`` is the set of ``CLASSES`` that A is in."""

    label: str
    a: Matrix
    det: Fraction | int | None
    rank: int
    inverse: Matrix | None
    left_inverse: Matrix | None
    holds: set[str]

    def verdicts(self) -> dict[str, bool | None]:
        """Whether A is in each class, in ``CLASSES`` order; None for a
        square-only class on a non-square A."""
        square = self.a.is_square
        return {c: c in self.holds if square or c not in SQUARE_ONLY else None for c in CLASSES}


CYCLE, CYCLE_INV = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
SCALED_SWAP, SCALED_SWAP_INV = Matrix([[0, 2], [3, 0]]), Matrix([[0, "1/3"], ["1/2", 0]])
M_2_INV = Matrix([["2/3", "1/3"], ["1/3", "2/3"]])
FRACTIONAL = Matrix([["1/2", "1/3"], ["1/4", "1/5"]])
EXAMPLE_B_INV = Matrix([["1/3", 0, 0, 0], ["-2/3", 1, 0, 0], ["5/3", 0, 1, -5], ["-1/3", 0, 0, 1]])
NONNEGATIVE_SP = {NONNEGATIVE, ROW_POSITIVE, SP}

# (label, A, det, rank, inverse, left inverse, classes)
MATRICES = [
    Example("I2", I2, 1, 2, I2, I2, MONOMIAL_CLASSES),
    Example("I3", I3, 1, 3, I3, I3, MONOMIAL_CLASSES),
    Example("I4", I4, 1, 4, I4, I4, MONOMIAL_CLASSES),
    Example("cycle", CYCLE, 1, 3, CYCLE_INV, CYCLE_INV, MONOMIAL_CLASSES),
    Example("scaled-swap", SCALED_SWAP, -6, 2, SCALED_SWAP_INV, SCALED_SWAP_INV, MONOMIAL_CLASSES),
    Example("M_2", M_2, 3, 2, M_2_INV, M_2_INV, {INVERSE_NONNEGATIVE, SP, MSP}),
    Example("-I2", -I2, 1, 2, -I2, None, set()),
    Example("DIAG_NEG", DIAG_NEG, -1, 2, DIAG_NEG, None, set()),
    Example("SIGNED_X", SIGNED_X, -1, 3, Matrix([[1, 0, 0], [0, -1, 0], [-1, 1, 1]]), None, set()),
    # nonnegative and invertible, but each inverse has a negative entry
    Example("EXAMPLE_B", EXAMPLE_B, 3, 4, EXAMPLE_B_INV, None, NONNEGATIVE_SP),
    Example("LOWER", LOWER, 1, 2, Matrix([[1, 0], [-1, 1]]), None, NONNEGATIVE_SP),
    Example("fractional", FRACTIONAL, Fraction(1, 60), 2, Matrix([[12, -20], [-15, 30]]), None, NONNEGATIVE_SP | {POSITIVE}),
    Example("ONES_2", ONES_2, 0, 1, None, None, NONNEGATIVE_SP | {POSITIVE}),
    # one nonzero entry a row, but column 0 holds two
    Example("one-column", Matrix([[1, 0], [2, 0]]), 0, 1, None, None, NONNEGATIVE_SP),
    Example("ZERO_ROW", ZERO_ROW, 0, 1, None, None, {NONNEGATIVE}),
    Example("opposing-rows", Matrix([[1, -1], [-1, 1]]), 0, 1, None, None, set()),
    Example("LIFT", LIFT, None, 2, None, Matrix([[1, 0, 0], [0, 1, 0]]), NONNEGATIVE_SP | {MSP}),
    Example("positive-column", Matrix([[1], [2]]), None, 1, None, Matrix([[1, 0]]), NONNEGATIVE_SP | {POSITIVE, MSP}),
    # a nonnegative left inverse, but a zero row, so not semipositive
    Example("zero-row-column", Matrix([[1], [0]]), None, 1, None, Matrix([[1, 0]]), {NONNEGATIVE}),
    Example("zeros-2x3", Matrix.zeros(2, 3), None, 0, None, None, {NONNEGATIVE}),
]
