"""Seeded generators for each matrix class, the fixed MSP spanning family
(``msp_basis_search``, which draws nothing) and randomized verification campaigns.

Generators are pure functions of (config, dimensions, draw index): the PRNG is
a Mersenne Twister (``random.Random``) seeded with a string derived from the
config seed and the draw tags, so identical inputs reproduce bit-identical
matrices across runs and platforms.

Campaigns stress one guarantee each over many seeded trials and return a
``CampaignResult`` with failure counts and coverage counters.  They are also
exposed through the command-line ``fuzz`` subcommand.  A campaign is one trial
function run by ``run_campaign`` with ``random.Random(f"{seed}:{name}")`` and
``GenConfig(seed)``: ``failures`` counts failed trials, a trial that raises an
``Exception`` is a failure noted with its type and message, and at most the
first 5 failure notes are kept.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import classify, construct, lp
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    Vector,
    ones_vector,
    permutation_matrix,
)


# Generator numerators lie in [-ENTRY_BOUND, ENTRY_BOUND] (sign restricted per
# generator) and denominators in DENOMINATORS; small denominators keep exact
# arithmetic cheap over long campaigns.
ENTRY_BOUND = 5
DENOMINATORS = (1, 2, 3, 4)


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generator configuration: the seed every draw derives from."""

    seed: int

    def rng(self, *tags: object) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.seed, *tags)))


def _positive_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, ENTRY_BOUND), rng.choice(DENOMINATORS))


def _nonneg_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, ENTRY_BOUND), rng.choice(DENOMINATORS))


def _signed_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND), rng.choice(DENOMINATORS))


def gen_monomial(n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random permutation matrix with a random positive diagonal scaling."""
    if n < 1:
        raise DimensionError("dimension must be positive")
    rng = cfg.rng("monomial", n, index)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = _positive_entry(rng)
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
        row = [_nonneg_entry(rng) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + _positive_entry(rng)
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
    x = Vector([_positive_entry(rng) for _ in range(n)])
    rows: list[list[Fraction]] = []
    for _ in range(m):
        while True:
            row = [_signed_entry(rng) for _ in range(n)]
            d = sum((row[j] * x[j] for j in range(n)), Fraction(0))
            if d == 0:
                continue
            rows.append([-v for v in row] if d < 0 else row)
            break
    a = Matrix(rows)
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
    rows = [list(r) for r in top.entries]
    rng = cfg.rng("msp-extra", m, n, index)
    for _ in range(m - n):
        while True:
            row = [_nonneg_entry(rng) for _ in range(n)]
            if any(v > 0 for v in row):
                rows.append(row)
                break
    a = Matrix(rows)
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
            cand = Matrix(
                [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)] for _ in range(m)]
            )
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


@dataclass(frozen=True)
class CampaignResult:
    name: str
    trials: int
    failures: int
    counters: dict[str, int]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_mixed_int_vector(rng: random.Random, n: int) -> Vector:
    while True:
        v = Vector([rng.randint(-5, 5) for _ in range(n)])
        if v.has_mixed_signs():
            return v


def _random_nonzero_int_vector(
    rng: random.Random, n: int, low: int = -5, high: int = 5
) -> Vector:
    while True:
        v = Vector([rng.randint(low, high) for _ in range(n)])
        if not v.is_zero():
            return v


def _random_int_matrix(rng: random.Random, m: int, n: int, bound: int = 3) -> Matrix:
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def _random_invertible_int_matrix(rng: random.Random, n: int, bound: int = 3) -> Matrix:
    while True:
        a = _random_int_matrix(rng, n, n, bound)
        if a.det() != 0:
            return a


def _random_singular_int_matrix(rng: random.Random, n: int) -> Matrix:
    """Random integer matrix whose last row repeats its first (n >= 2)."""
    rows = _random_int_matrix(rng, n, n).entries
    return Matrix(rows[:-1] + rows[:1])


def _random_not_inverse_nonneg(rng: random.Random, n: int, s: int) -> Matrix:
    """Random invertible integer Y such that s * Y is not inverse nonnegative."""
    while True:
        y = _random_invertible_int_matrix(rng, n)
        if not classify.is_inverse_nonnegative(y * s)[0]:
            return y


def _random_row_positive(rng: random.Random, m: int) -> Matrix:
    rows = [_random_nonzero_int_vector(rng, m, low=0, high=3) for _ in range(m)]
    return Matrix(v.entries for v in rows)


def _forced_uniform_column_matrix(rng: random.Random, n: int) -> Matrix:
    """Invertible X whose inverse has every column uniformly signed, with both
    signs present: forces the combination path of the mixed-sign search."""
    rows = []
    for i in range(n):
        row = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + rng.randint(1, 5)
        rows.append(row)
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if 1 in signs and -1 in signs:
            break
    inv = Matrix([[x * s for x, s in zip(row, signs)] for row in rows])
    return inv.inverse()


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


# A trial draws its inputs from the campaign's rng (generators draw from cfg by
# index), counts what it covered, and returns None or a failure description.
Trial = Callable[[random.Random, GenConfig, int, Counter[str]], str | None]


def _trial_build_np(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Mixed-source construction: nonnegative, invertible, exact image, and
    coverage of every interior and tail construction case."""
    n = rng.randint(2, 8)
    v = _random_mixed_int_vector(rng, n)
    w = _random_nonzero_int_vector(rng, n)
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
    v = _random_nonzero_int_vector(rng, n, low=0)
    w = Vector([rng.randint(1, 5) for _ in range(n)])
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
        v = _random_mixed_int_vector(rng, n)
        w = Vector([rng.randint(-5, 5) for _ in range(m)])
        branch = "mixed"
    else:
        v = _random_nonzero_int_vector(rng, n, low=0)
        w = Vector([rng.randint(1, 5) for _ in range(m)])
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
        x = _forced_uniform_column_matrix(rng, n)
        counts["family-forced"] += 1
    else:
        while True:
            x = _random_invertible_int_matrix(rng, n, bound=5)
            inv = x.inverse()
            if not (inv.is_nonneg() or inv.is_nonpos()):
                break
        counts["family-generic"] += 1
    v, path = construct.mixed_sign_vector_with_path(x)
    if not (v.has_mixed_signs() and (x @ v).is_nonneg()):
        return f"path {path} gave v={v}"
    counts[f"path-{path}"] += 1
    return None


def _trial_msp_equivalence(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """The left-inverse route, the deletion oracle, and (on square inputs) the
    nonnegative-inverse test must agree on minimal semipositivity.  A wide
    matrix, drawn from its own stream so the other draws stay as they were,
    must be outside the class by both the shape rule and the deletion oracle."""
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4)]
    m, n = shapes[rng.randrange(len(shapes))]
    a = _random_int_matrix(rng, m, n)
    fast = classify.is_minimally_semipositive(a)
    agree = fast == classify.msp_by_deletion(a)
    if a.is_square:
        counts["square"] += 1
        agree = agree and fast == classify.is_inverse_nonnegative(a)[0]
    if fast:
        counts["msp"] += 1
    if not agree:
        return f"disagreement on\n{a}"
    wide_rng = cfg.rng("msp-wide", t)
    rows = wide_rng.randint(1, 4)
    w = _random_int_matrix(wide_rng, rows, wide_rng.randint(rows + 1, 6))
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
    verdict = preserver.into_msp_preserver(preserver.PreserverMap(x, y))
    if verdict.status is not preserver.Verdict.YES:
        return f"verdict {verdict.status.value}, expected yes"
    for i in range(20):
        a = gen_msp(n, n, cfg, index=("sound-a", t, i))
        # square: minimally semipositive iff inverse nonnegative
        if not classify.is_inverse_nonnegative(x @ a @ y)[0]:
            return f"image of sample {i} left the class"
    return None


def _trial_into_msp_falsification(
    rng: random.Random, cfg: GenConfig, t: int, counts: Counter[str]
) -> str | None:
    """Pairs violating the square decision rule always yield a verified
    counterexample certificate."""
    from . import preserver

    n = rng.randint(2, 4)
    family = t % 4
    if family in (0, 1):
        while True:
            x = _random_invertible_int_matrix(rng, n)
            y = _random_invertible_int_matrix(rng, n)
            if not preserver.into_msp_square_condition(x, y):
                break
    elif family == 2:
        s = 1 if t % 8 < 4 else -1
        x = gen_inverse_nonneg(n, cfg, index=("fals-x", t)) * s
        y = _random_not_inverse_nonneg(rng, n, s)
    else:
        x = _random_singular_int_matrix(rng, n)
        y = _random_invertible_int_matrix(rng, n)
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
    x = _random_row_positive(rng, m) * s
    y = gen_inverse_nonneg(n, cfg, index=("sp-sound-y", t)) * s
    counts["negated" if s < 0 else "plain"] += 1
    verdict = preserver.into_sp_preserver(preserver.PreserverMap(x, y))
    if verdict.status is not preserver.Verdict.YES:
        return f"verdict {verdict.status.value}, expected yes"
    for i in range(20):
        a = gen_sp(m, n, cfg, index=("sp-sound-a", t, i))
        if not classify.is_semipositive(x @ a @ y)[0]:
            return f"image of sample {i} left the class"
    return None


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
    y = _random_int_matrix(rng, n, n)
    if family == 0:
        rows = [list(r) for r in _random_int_matrix(rng, m, m).entries]
        rows[rng.randrange(m)] = [0] * m
        x = Matrix(rows)
    elif family == 1:
        rows = [[rng.randint(-3, 3) for _ in range(m)]]
        rows[0][0], rows[0][1] = rng.randint(1, 3), -rng.randint(1, 3)
        for _ in range(m - 1):
            rows.append(_random_nonzero_int_vector(rng, m, low=-3, high=3).entries)
        x = Matrix(rows)
    elif family == 2:
        rows = _random_row_positive(rng, m).entries
        x = Matrix([[-v for v in row] if i % 2 else row for i, row in enumerate(rows)])
    else:
        s = 1 if (t // 4) % 2 == 0 else -1
        x = _random_row_positive(rng, m) * s
        if (t // 8) % 2 == 0:
            y = _random_singular_int_matrix(rng, n) * s
        else:
            y = _random_not_inverse_nonneg(rng, n, s)
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
    attempt = 0
    while True:
        xn = gen_inverse_nonneg(n, cfg, index=("onto-nm", t, attempt))
        if not classify.is_monomial(xn):
            break
        attempt += 1
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
    a = _random_int_matrix(rng, m, n)
    b = Vector([rng.randint(-3, 3) for _ in range(m)])
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
