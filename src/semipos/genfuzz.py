"""Seeded generators for each matrix class, input families, the fixed MSP
spanning family (``msp_basis_search``, which draws nothing) and randomized
verification campaigns.

Draws come in two kinds.  Class generators (``gen_*``) are pure functions of
(config, dimensions, draw index): the PRNG is a Mersenne Twister
(``random.Random``) seeded with a string derived from the config seed and the
draw tags, so identical inputs reproduce bit-identical matrices across runs and
platforms.  Input families (``int_rows`` to ``with_zero_row``) draw integers
from the caller's ``random.Random``, for the campaigns, golden corpora and
tests alike; each keeps the ``rng`` calls, in order, of the code it replaced.

Campaigns stress one guarantee each over many seeded trials and return a
``CampaignResult`` with failure counts and coverage counters.  They are also
exposed through the command-line ``fuzz`` subcommand.  A campaign is one trial
function run by ``run_campaign`` with ``random.Random(f"{seed}:{name}")`` and
``GenConfig(seed)``: ``failures`` counts failed trials, a trial that raises an
``Exception`` is a failure noted with its type and message, and at most the
first 5 failure notes are kept.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, TypeVar

from . import classify, construct, lp
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    Vector,
    _integer_row,
    basis_vector,
    ones_vector,
    permutation_matrix,
)


# Generator numerators lie in [-ENTRY_BOUND, ENTRY_BOUND] (sign restricted per
# generator) and denominators in DENOMINATORS; small denominators keep exact
# arithmetic cheap over long campaigns.
ENTRY_BOUND = 5
DENOMINATORS = (1, 2, 3, 4)


class GenConfig(NamedTuple):
    """Deterministic generator configuration: the seed every draw derives from."""

    seed: int

    def rng(self, *tags: object) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.seed, *tags)))


_T = TypeVar("_T")


def _first(draw: Callable[[], _T], accept: Callable[[_T], bool]) -> _T:
    """Rejection sampling: the first value ``draw()`` returns that ``accept`` takes."""
    while True:
        value = draw()
        if accept(value):
            return value


def _entry(rng: random.Random, low: int) -> Fraction:
    """A numerator in [low, ENTRY_BOUND] over a denominator from DENOMINATORS."""
    return Fraction(rng.randint(low, ENTRY_BOUND), rng.choice(DENOMINATORS))


def int_rows(rng: random.Random, m: int, n: int, lo: int = -3, hi: int = 3) -> list[list[int]]:
    """m rows of n integers from [lo, hi], drawn row by row."""
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def int_matrix(rng: random.Random, m: int, n: int, lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix(int_rows(rng, m, n, lo, hi))


def int_vector(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> Vector:
    return Vector([rng.randint(lo, hi) for _ in range(n)])


def nonzero_int_vector(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> Vector:
    if lo == hi == 0:
        raise InvalidInputError("a nonzero vector needs entries other than 0")
    return _first(lambda: int_vector(rng, n, lo, hi), lambda v: not v.is_zero())


def mixed_int_vector(rng: random.Random, n: int, bound: int = 5) -> Vector:
    """The first ``int_vector`` in [-bound, bound] with both signs."""
    if n < 2 or bound < 1:
        raise InvalidInputError(f"a mixed-sign vector needs n >= 2 and bound >= 1, got n={n}, bound={bound}")
    return _first(lambda: int_vector(rng, n, -bound, bound), Vector.has_mixed_signs)


def invertible_int_matrix(rng: random.Random, n: int, bound: int = 3) -> Matrix:
    if bound < 1:
        raise InvalidInputError(f"an invertible matrix needs bound >= 1, got {bound}")
    return _first(lambda: int_matrix(rng, n, n, -bound, bound), lambda a: a.det() != 0)


def row_positive_int_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    """m rows, each a ``nonzero_int_vector`` of entries in [0, 3]."""
    return Matrix.from_rows([nonzero_int_vector(rng, n, 0, 3) for _ in range(m)])


def non_monomial_row_positive_matrix(rng: random.Random, n: int) -> Matrix:
    """n x n, nonnegative, no zero row, and never monomial: row 0 has two positive entries."""
    if n < 2:
        raise InvalidInputError(f"row 0 needs two entries, got n={n}")
    rows = int_rows(rng, n, n, 0, 3)
    for row in rows:
        row[rng.randrange(n)] = rng.randint(1, 3)
    rows[0][0], rows[0][1] = rng.randint(1, 3), rng.randint(1, 3)
    return Matrix(rows)


def mixed_row_matrix(rng: random.Random, n: int) -> Matrix:
    """n x n with row 0 of both signs, so neither X nor -X is row positive."""
    if n < 2:
        raise InvalidInputError(f"row 0 needs two entries, got n={n}")
    rows = int_rows(rng, n, n)
    rows[0][0], rows[0][1] = rng.randint(1, 3), -rng.randint(1, 3)
    return Matrix(rows)


def singular(a: Matrix) -> Matrix:
    """A with its last row replaced by its first."""
    rows = list(a.integer_rows())
    return Matrix._from_integer_rows(rows[:-1] + rows[:1])


def with_zero_row(rng: random.Random, a: Matrix) -> Matrix:
    """A with one row, drawn after A, set to zero."""
    rows = list(a.integer_rows())
    rows[rng.randrange(a.rows)] = (1, (0,) * a.cols)
    return Matrix._from_integer_rows(rows)


def gen_monomial(n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random permutation matrix with a random positive diagonal scaling."""
    if n < 1:
        raise DimensionError("dimension must be positive")
    rng = cfg.rng("monomial", n, index)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = _entry(rng, 1)
    return Matrix(rows)


def gen_inverse_nonneg(n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random matrix whose inverse is nonnegative, by inverting a random
    nonnegative strictly diagonally dominant matrix."""
    a, _ = gen_inverse_nonneg_with_inverse(n, cfg, index)
    return a


def gen_inverse_nonneg_with_inverse(
    n: int, cfg: GenConfig, index: object = 0
) -> tuple[Matrix, Matrix]:
    """As ``gen_inverse_nonneg`` but also returning the nonnegative inverse."""
    if n < 1:
        raise DimensionError("dimension must be positive")
    rng = cfg.rng("inverse-nonneg", n, index)
    rows = []
    for i in range(n):
        row = [_entry(rng, 0) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + _entry(rng, 1)
        rows.append(row)
    dominant = Matrix(rows)
    return dominant.inverse(), dominant


def gen_sp(m: int, n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random semipositive matrix; see the witness-returning variant."""
    a, _ = gen_sp_with_witness(m, n, cfg, index)
    return a


def gen_sp_with_witness(
    m: int, n: int, cfg: GenConfig, index: object = 0
) -> tuple[Matrix, Vector]:
    """Plant a positive witness x, then draw rows and flip any row whose
    product with x is negative; rows orthogonal to x are redrawn."""
    if m < 1 or n < 1:
        raise DimensionError("dimensions must be positive")
    rng = cfg.rng("sp", m, n, index)
    x = Vector([_entry(rng, 1) for _ in range(n)])

    def row() -> Vector:
        r = Vector([_entry(rng, -ENTRY_BOUND) for _ in range(n)])
        return -r if r.dot(x) < 0 else r

    a = Matrix([_first(row, lambda r: r.dot(x) > 0) for _ in range(m)])
    if not classify.is_sp_witness(a, x):
        raise ArithmeticError("planted witness lost")
    return a, x


def gen_msp(m: int, n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random minimally semipositive matrix: an inverse-nonnegative square top
    block plus random row-positive extra rows.

    With N the top block's nonnegative inverse, [N | 0] is a nonnegative left
    inverse: ``Matrix.inverse``'s self-check gives N top = I exactly.  Only
    the witness is checked here, before return: N applied to the all-ones
    vector is strictly positive with a strictly positive image.
    """
    if m < n or n < 1:
        raise DimensionError("need m >= n >= 1")
    top, dominant = gen_inverse_nonneg_with_inverse(n, cfg, index)
    rng = cfg.rng("msp-extra", m, n, index)
    extra = [_first(lambda: [_entry(rng, 0) for _ in range(n)], any) for _ in range(m - n)]
    a = Matrix._from_integer_rows([*top.integer_rows(), *map(_integer_row, extra)])
    witness = dominant @ ones_vector(n)
    if not witness.is_positive() or not classify.is_sp_witness(a, witness):
        raise ArithmeticError("minimally semipositive sample lost its witness")
    return a


def iter_msp_mixture(m: int, n: int, cfg: GenConfig, count: int) -> Iterator[Matrix]:
    """Minimally semipositive samples alternating the structured generator with
    rejection-sampled random integer matrices (filtered through the deletion
    oracle), since the structured generator does not reach the whole class."""
    rng = cfg.rng("msp-mixture", m, n)
    for t in range(count):
        if t % 2 == 0:
            yield gen_msp(m, n, cfg, index=t)
            continue
        for _ in range(40):
            cand = int_matrix(rng, m, n, -ENTRY_BOUND, ENTRY_BOUND)
            if classify.msp_by_deletion(cand):
                yield cand
                break
        else:
            yield gen_msp(m, n, cfg, index=("fallback", t))


# The largest m*n msp_basis_search builds: its (m*n)**3 rank check took ~1 s at 16x16.
MAX_BASIS_MEMBERS = 256


def msp_basis_search(m: int, n: int) -> list[Matrix]:
    """m*n linearly independent minimally semipositive (MSP) m x n matrices.

    With B0 = [I_n; J] (J all ones), cell (i, j) in row-major order gives
    B0 + s E_ij, with s = -1 off the diagonal of the top n x n block and +1
    elsewhere.  MSP is semipositive with a nonnegative left inverse (Johnson,
    Kerr & Stanford, 1994).  The top block T is I + E_ii, I - E_ij or I, so
    T^-1 is I - E_ii/2, I + E_ij or I, [T^-1 0] is a nonnegative left inverse,
    and T^-1 1 >= 0 is a semipositivity witness: A T^-1 1 = [1; J T^-1 1] > 0.
    Independence: if sum c_k (B0 + s_k E_k) = 0 with S = sum c_k, cell k reads
    b_k S + s_k c_k = 0, so c_k = -s_k b_k S.  As b_k = 1 only where s_k = 1,
    on n + (m-n) n cells, summing gives S (1 + n (m-n+1)) = 0, so every c_k = 0.
    Both facts are checked exactly, with no LP, before the family is returned.
    """
    if not (m >= n >= 1 and m * n <= MAX_BASIS_MEMBERS):
        raise DimensionError(f"need m >= n >= 1 and m*n <= {MAX_BASIS_MEMBERS}, got m={m}, n={n}")
    family = []
    for i in range(m):
        for j in range(n):
            s = -1 if i < n and i != j else 1
            rows = [[int(r >= n or r == c) for c in range(n)] for r in range(m)]
            rows[i][j] += s
            left = [[int(r == c) for c in range(m)] for r in range(n)]
            if i < n:
                left[i][j] -= Fraction(s, 1 + s * (i == j))
            a, left = Matrix(rows), Matrix(left)
            if not (
                classify.is_nonneg_left_inverse(a, left)
                and classify.is_sp_witness(a, left @ ones_vector(m))
            ):
                raise ArithmeticError(f"member ({i}, {j}) failed its MSP self-check")
            family.append(a)
    if Matrix([x for row in a.entries for x in row] for a in family).rank() != m * n:
        raise ArithmeticError("the family failed its independence self-check")
    return family


# -- campaigns -----------------------------------------------------------------


class CampaignResult(NamedTuple):
    name: str
    trials: int
    failures: int
    counters: dict[str, int]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _not_inverse_nonneg(rng: random.Random, n: int, s: int) -> Matrix:
    """An ``invertible_int_matrix`` Y such that s * Y is not inverse nonnegative."""
    return _first(
        lambda: invertible_int_matrix(rng, n),
        lambda y: not classify.is_inverse_nonnegative(y * s)[0],
    )


def _forced_uniform_column_matrix(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """(X, X^-1) for an invertible X whose inverse has every column uniformly
    signed, with both signs present: forces the combination path of the
    mixed-sign search."""
    rows = []
    for i in range(n):
        row = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + rng.randint(1, 5)
        rows.append(row)
    signs = _first(lambda: [rng.choice((1, -1)) for _ in range(n)], lambda s: 1 in s and -1 in s)
    inv = Matrix([[x * s for x, s in zip(row, signs)] for row in rows])
    return inv.inverse(), inv


def _falsified(
    falsify: Callable, x: Matrix, y: Matrix, counts: Counter[str]
) -> str | None:
    """The falsifier returns a certificate for (X, Y), so the verdict is "no",
    and the certificate verifies again."""
    from . import preserver

    cert = falsify(preserver.PreserverMap(x, y))
    counts[cert.note] += 1
    if not cert.verify():
        return f"{cert.note} certificate does not verify"
    return None


def _sound(
    verdict: Callable,
    x: Matrix,
    y: Matrix,
    samples: Iterator[Matrix],
    in_class: Callable[[Matrix], tuple],
) -> str | None:
    """The verdict on (X, Y) is yes, and X A Y stays in the class (``in_class``,
    a decider returning (bool, evidence)) for each sample A, drawn in turn."""
    from . import preserver

    status = verdict(preserver.PreserverMap(x, y)).status
    if status is not preserver.Verdict.YES:
        return f"verdict {status.value}, expected yes"
    for i, a in enumerate(samples):
        if not in_class(x @ a @ y)[0]:
            return f"image of sample {i} left the class"
    return None


# A trial draws its inputs from the campaign's rng (generators draw from cfg by
# index), counts what it covered, and returns None or a failure description.
Trial = Callable[[random.Random, GenConfig, int, Counter[str]], str | None]


def _trial_build_np(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Mixed-source construction: nonnegative, invertible, exact image, and
    coverage of every interior and tail construction case."""
    n = rng.randint(2, 8)
    v = mixed_int_vector(rng, n)
    w = nonzero_int_vector(rng, n)
    b, trace = construct.build_np(v, w)
    if not (b.is_nonneg() and b.det() != 0 and b @ v == w):
        return f"v={v} w={w}"
    counts[f"step1-{trace.step1_case}"] += 1
    counts.update(f"step2-{c}" for c in trace.step2_cases)
    counts[f"step3-{trace.step3_case}"] += 1
    return None


def _trial_build_pos(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Nonnegative-source construction: exact image, invertibility, and lower
    triangularity after the recorded permutation."""
    n = rng.randint(1, 8)
    v = nonzero_int_vector(rng, n, 0)
    w = int_vector(rng, n, 1, 5)
    b, _ = construct.build_pos(v, w)
    perm = construct.positive_first_permutation(v)
    normalized = (b @ permutation_matrix(perm).transpose()).entries
    # lower triangular with a nonzero diagonal
    triangular = all((normalized[i][j] != 0) == (i == j) for i in range(n) for j in range(i, n))
    if not (b.is_nonneg() and b.det() != 0 and b @ v == w and triangular):
        return f"v={v} w={w}"
    counts[f"positives-{sum(1 for x in v.entries if x > 0)}"] += 1
    return None


def _trial_build_rect(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Rectangular construction: nonnegative, full row rank, exact image."""
    n = rng.randint(2, 8)
    m = rng.randint(1, n - 1)
    if t % 2 == 0:
        v = mixed_int_vector(rng, n)
        w = int_vector(rng, m, -5, 5)
        branch = "mixed"
    else:
        v = nonzero_int_vector(rng, n, 0)
        w = int_vector(rng, m, 1, 5)
        branch = "nonneg"
    b = construct.build_rect(v, w)
    if not (b.is_nonneg() and b.rank() == m and b @ v == w):
        return f"v={v} w={w}"
    counts[f"branch-{branch}"] += 1
    return None


def _trial_key1(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Mixed-sign vector search: output has both signs and nonnegative image.

    Every fifth trial uses a generator that forces the two-column combination
    path; the rest are generic random matrices meeting the precondition.
    """
    n = rng.randint(2, 6)
    if t % 5 == 0:
        x, inv = _forced_uniform_column_matrix(rng, n)
        counts["family-forced"] += 1
    else:
        x, inv = _first(
            lambda: (a := invertible_int_matrix(rng, n, bound=5), a.inverse()),
            lambda pair: not (pair[1].is_nonneg() or pair[1].is_nonpos()),
        )
        counts["family-generic"] += 1
    v, path = construct.mixed_sign_vector_with_path(x, inv)
    if not (v.has_mixed_signs() and (x @ v).is_nonneg()):
        return f"path {path} gave v={v}"
    counts[f"path-{path}"] += 1
    return None


def _trial_msp_equivalence(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """The decider, the deletion oracle, and on square inputs, which the
    decider settles by the inverse, the equality-LP left inverse
    (``classify.left_inverse_by_lp``) must agree on minimal semipositivity:
    a square A with a nonnegative left inverse is semipositive.  On tall
    inputs, where ``left_inverse_by_lp`` reads every row of N off one simplex
    basis, its verdict must match n independent ``lp.equality_feasible_nonneg``
    solves of A^T y = e_j.  A wide
    matrix, drawn from its own stream so the other draws stay as they were,
    must be outside the class by both the shape rule and the deletion oracle."""
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4)]
    m, n = shapes[rng.randrange(len(shapes))]
    a = int_matrix(rng, m, n)
    fast = classify.is_minimally_semipositive(a)
    agree = fast == classify.msp_by_deletion(a)
    if a.is_square:
        counts["square"] += 1
        agree = agree and fast == classify.left_inverse_by_lp(a)[0]
    elif m > n:
        at = a.transpose()
        each = all(lp.equality_feasible_nonneg(at, basis_vector(n, j)).feasible for j in range(n))
        agree = agree and classify.left_inverse_by_lp(a)[0] == each
    if fast:
        counts["msp"] += 1
    if not agree:
        return f"disagreement on\n{a}"
    wide_rng = cfg.rng("msp-wide", t)
    rows = wide_rng.randint(1, 4)
    w = int_matrix(wide_rng, rows, wide_rng.randint(rows + 1, 6))
    counts["wide"] += 1
    if classify.is_semipositive(w)[0]:
        counts["wide-sp"] += 1
    if classify.is_minimally_semipositive(w) or classify.msp_by_deletion(w):
        return f"wide matrix called minimally semipositive\n{w}"
    return None


def _trial_into_msp_soundness(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Pairs satisfying the square decision rule map structured random
    minimally semipositive samples back into the class (20 samples each)."""
    from . import preserver

    n = rng.randint(2, 4)
    s = 1 if t % 2 == 0 else -1
    x = gen_inverse_nonneg(n, cfg, index=("sound-x", t)) * s
    y = gen_inverse_nonneg(n, cfg, index=("sound-y", t)) * s
    counts["negated" if s < 0 else "plain"] += 1
    # square: minimally semipositive iff inverse nonnegative
    samples = (gen_msp(n, n, cfg, index=("sound-a", t, i)) for i in range(20))
    return _sound(preserver.into_msp_preserver, x, y, samples, classify.is_inverse_nonnegative)


def _trial_into_msp_falsification(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Pairs violating the square decision rule always yield a verified
    counterexample certificate."""
    from . import preserver

    n = rng.randint(2, 4)
    family = t % 4
    if family in (0, 1):
        x, y = _first(
            lambda: (invertible_int_matrix(rng, n), invertible_int_matrix(rng, n)),
            lambda xy: not preserver.into_msp_square_condition(*xy),
        )
    elif family == 2:
        s = 1 if t % 8 < 4 else -1
        x = gen_inverse_nonneg(n, cfg, index=("fals-x", t)) * s
        y = _not_inverse_nonneg(rng, n, s)
    else:
        x = singular(int_matrix(rng, n, n))
        y = invertible_int_matrix(rng, n)
    return _falsified(preserver.falsify_into_msp, x, y, counts)


def _trial_into_sp_soundness(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Pairs satisfying the semipositivity decision rule map planted-witness
    semipositive samples back into the class (20 samples each)."""
    from . import preserver

    m = rng.randint(2, 4)
    n = rng.randint(2, 4)
    s = 1 if t % 2 == 0 else -1
    x = row_positive_int_matrix(rng, m, m) * s
    y = gen_inverse_nonneg(n, cfg, index=("sp-sound-y", t)) * s
    counts["negated" if s < 0 else "plain"] += 1
    samples = (gen_sp(m, n, cfg, index=("sp-sound-a", t, i)) for i in range(20))
    return _sound(preserver.into_sp_preserver, x, y, samples, classify.is_semipositive)


def _trial_into_sp_falsification(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Pairs violating the semipositivity decision rule always yield a verified
    certificate; trials cycle through four families of X (a zero row, a mixed
    row, rows of both signs, and s times a row-positive X with s Y singular or
    not inverse nonnegative), which reach every note of the falsifier."""
    from . import preserver

    m = rng.randint(2, 4)
    n = rng.randint(2, 4)
    family = t % 4
    y = int_matrix(rng, n, n)
    if family == 0:
        x = with_zero_row(rng, int_matrix(rng, m, m))
    elif family == 1:
        rows = int_rows(rng, 1, m)
        rows[0][0], rows[0][1] = rng.randint(1, 3), -rng.randint(1, 3)
        x = Matrix(rows + [nonzero_int_vector(rng, m, -3, 3).entries for _ in range(m - 1)])
    elif family == 2:
        rows = row_positive_int_matrix(rng, m, m).entries
        x = Matrix([[-v for v in row] if i % 2 else row for i, row in enumerate(rows)])
    else:
        s = 1 if (t // 4) % 2 == 0 else -1
        x = row_positive_int_matrix(rng, m, m) * s
        if (t // 8) % 2 == 0:
            y = singular(int_matrix(rng, n, n)) * s
        else:
            y = _not_inverse_nonneg(rng, n, s)
    return _falsified(preserver.falsify_into_sp, x, y, counts)


def _trial_onto_consistency(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Monomial pairs are onto preservers whose forward and inverse maps both
    pass spot checks; inverse-nonnegative non-monomial pairs are not onto."""
    from . import preserver

    yes = preserver.Verdict.YES
    n = rng.randint(2, 4)
    s = 1 if t % 2 == 0 else -1
    x = gen_monomial(n, cfg, index=("onto-x", t)) * s
    y = gen_monomial(n, cfg, index=("onto-y", t)) * s
    lmap = preserver.PreserverMap(x, y)
    inverse_map = lmap.inverse_map()
    counts["monomial-pair"] += 1
    if not (
        preserver.onto_msp_preserver(lmap).status is yes
        and preserver.onto_sp_preserver(lmap).status is yes
        and preserver.into_msp_preserver(lmap).status is yes
        and preserver.into_msp_preserver(inverse_map).status is yes
        and preserver.into_sp_preserver(lmap).status is yes
        and preserver.into_sp_preserver(inverse_map).status is yes
    ):
        return "monomial pair not recognised as a preserver"
    for i in range(20):
        a = gen_msp(n, n, cfg, index=("onto-a", t, i))
        # square: minimally semipositive iff inverse nonnegative
        if not classify.is_inverse_nonnegative(preserver.apply(lmap, a))[0]:
            return f"image of sample {i} left the class"
        if not classify.is_inverse_nonnegative(preserver.apply(inverse_map, a))[0]:
            return f"inverse image of sample {i} left the class"
    attempts = itertools.count()
    xn = _first(
        lambda: gen_inverse_nonneg(n, cfg, index=("onto-nm", t, next(attempts))),
        lambda a: not classify.is_monomial(a),
    )
    counts["non-monomial"] += 1
    ym = gen_monomial(n, cfg, index=("onto-ym", t))
    verdict = preserver.onto_msp_preserver(preserver.PreserverMap(xn, ym))
    if verdict.status is not preserver.Verdict.NO:
        return f"non-monomial pair: verdict {verdict.status.value}, expected no"
    return None


def _trial_lp_oracle(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Simplex feasibility decisions agree with brute-force vertex enumeration
    on random small systems (every third trial is an equality system)."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 8 - n)
    a = int_matrix(rng, m, n)
    b = int_vector(rng, m)
    if t % 3 == 2:
        counts["equality"] += 1
        simplex = lp.equality_feasible_nonneg(a, b)
        oracle = lp.equality_feasible_nonneg_bruteforce(a, b)
    else:
        counts["inequality"] += 1
        simplex = lp.feasible_nonneg(a, b)
        oracle = lp.feasible_nonneg_bruteforce(a, b)
    counts["feasible" if simplex.feasible else "infeasible"] += 1
    if simplex.feasible != oracle.feasible:
        return f"simplex={simplex.status} oracle={oracle.status}"
    return None


CAMPAIGNS: dict[str, tuple[Trial, int]] = {
    "build-np": (_trial_build_np, 1000),
    "build-pos": (_trial_build_pos, 1000),
    "build-rect": (_trial_build_rect, 500),
    "key1": (_trial_key1, 500),
    "msp-equivalence": (_trial_msp_equivalence, 300),
    "into-msp-soundness": (_trial_into_msp_soundness, 200),
    "into-msp-falsification": (_trial_into_msp_falsification, 200),
    "into-sp-soundness": (_trial_into_sp_soundness, 200),
    "into-sp-falsification": (_trial_into_sp_falsification, 200),
    "onto-consistency": (_trial_onto_consistency, 100),
    "lp-oracle": (_trial_lp_oracle, 200),
}


def run_campaign(name: str, seed: int, trials: int | None = None) -> CampaignResult:
    """Run ``trials`` trials of a campaign (its default count when None) under
    the rules in the module docstring; notes read ``"trial {t}: ..."``."""
    if name not in CAMPAIGNS:
        raise InvalidInputError(
            f"unknown campaign {name!r}; choose from {', '.join(sorted(CAMPAIGNS))}"
        )
    trial, default_trials = CAMPAIGNS[name]
    trials = trials if trials is not None else default_trials
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")
    rng = random.Random(f"{seed}:{name}")
    cfg = GenConfig(seed)
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        try:
            failure = trial(rng, cfg, t, counts)
        except Exception as exc:  # noqa: BLE001 - a raised check is a failed trial
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: {failure}")
    return CampaignResult(name, trials, failures, dict(counts), tuple(notes))
