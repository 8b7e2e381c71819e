"""Seeded generators for each matrix class and randomized verification campaigns.

Generators are pure functions of (config, dimensions, draw index): the PRNG is
a Mersenne Twister (``random.Random``) seeded with a string derived from the
config seed and the draw tags, so identical inputs reproduce bit-identical
matrices across runs and platforms.

Campaigns stress one guarantee each over many seeded trials and return a
``CampaignResult`` with failure counts and coverage counters.  They are also
exposed through the command-line ``fuzz`` subcommand.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import classify, construct
from .ratmat import (
    DimensionError,
    InvalidInputError,
    Matrix,
    Vector,
    ones_vector,
    permutation_matrix,
)


class SearchExhaustedError(RuntimeError):
    """A randomized search hit its trial budget without finishing."""


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generator configuration.

    Numerators are drawn from [-entry_bound, entry_bound] (sign restricted per
    generator) and denominators from the given tuple; small denominators keep
    exact arithmetic cheap over long campaigns.
    """

    seed: int
    entry_bound: int = 5
    denominators: tuple[int, ...] = (1, 2, 3, 4)

    def rng(self, *tags: object) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.seed, *tags)))


def _positive_entry(rng: random.Random, cfg: GenConfig) -> Fraction:
    return Fraction(rng.randint(1, cfg.entry_bound), rng.choice(cfg.denominators))


def _nonneg_entry(rng: random.Random, cfg: GenConfig) -> Fraction:
    return Fraction(rng.randint(0, cfg.entry_bound), rng.choice(cfg.denominators))


def _signed_entry(rng: random.Random, cfg: GenConfig) -> Fraction:
    return Fraction(
        rng.randint(-cfg.entry_bound, cfg.entry_bound), rng.choice(cfg.denominators)
    )


def gen_monomial(n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random permutation matrix with a random positive diagonal scaling."""
    if n < 1:
        raise DimensionError("dimension must be positive")
    rng = cfg.rng("monomial", n, index)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = _positive_entry(rng, cfg)
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
        row = [_nonneg_entry(rng, cfg) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + _positive_entry(rng, cfg)
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
    x = Vector([_positive_entry(rng, cfg) for _ in range(n)])
    rows: list[list[Fraction]] = []
    for _ in range(m):
        while True:
            row = [_signed_entry(rng, cfg) for _ in range(n)]
            d = sum((row[j] * x[j] for j in range(n)), Fraction(0))
            if d == 0:
                continue
            rows.append([-v for v in row] if d < 0 else row)
            break
    a = Matrix(rows)
    if not (a @ x).is_positive():
        raise ArithmeticError("planted witness lost")
    return a, x


def gen_msp(m: int, n: int, cfg: GenConfig, index: object = 0) -> Matrix:
    """Random minimally semipositive matrix: an inverse-nonnegative square top
    block plus random row-positive extra rows.

    Verified before return: the stacked [N | 0] with N the top block's
    nonnegative inverse is a nonnegative left inverse, and N applied to the
    all-ones vector is a strictly positive semipositivity witness.
    """
    if m < n or n < 1:
        raise DimensionError("need m >= n >= 1")
    top, dominant = gen_inverse_nonneg_with_inverse(n, cfg, index)
    rows = [list(r) for r in top.entries]
    rng = cfg.rng("msp-extra", m, n, index)
    for _ in range(m - n):
        while True:
            row = [_nonneg_entry(rng, cfg) for _ in range(n)]
            if any(v > 0 for v in row):
                rows.append(row)
                break
    a = Matrix(rows)
    witness = dominant @ ones_vector(n)
    if not witness.is_positive() or not (a @ witness).is_positive():
        raise ArithmeticError("minimally semipositive sample lost its witness")
    return a


def iter_msp_mixture(m: int, n: int, cfg: GenConfig, count: int) -> Iterator[Matrix]:
    """Minimally semipositive samples alternating the structured generator with
    rejection-sampled random integer matrices (filtered through the deletion
    oracle), since the structured generator does not reach the whole class."""
    rng = cfg.rng("msp-mixture", m, n)
    produced = 0
    t = 0
    while produced < count:
        if t % 2 == 0:
            yield gen_msp(m, n, cfg, index=t)
            produced += 1
        else:
            hit = None
            for _ in range(40):
                cand = Matrix(
                    [
                        [rng.randint(-cfg.entry_bound, cfg.entry_bound) for _ in range(n)]
                        for _ in range(m)
                    ]
                )
                if classify.msp_by_deletion(cand):
                    hit = cand
                    break
            yield hit if hit is not None else gen_msp(m, n, cfg, index=("fallback", t))
            produced += 1
        t += 1


def msp_basis_search(
    m: int, n: int, cfg: GenConfig, max_trials: int
) -> list[Matrix]:
    """Greedily accumulate m*n linearly independent minimally semipositive
    matrices (as vectors in the m*n-dimensional space)."""
    if m < n or n < 1:
        raise DimensionError(f"need m >= n >= 1, got m={m}, n={n}")
    target = m * n
    kept: list[Matrix] = []
    flat_rows: list[list[Fraction]] = []
    for t in range(max_trials):
        a = gen_msp(m, n, cfg, index=t)
        flat = [x for row in a.entries for x in row]
        candidate = flat_rows + [flat]
        if Matrix(candidate).rank() == len(candidate):
            flat_rows = candidate
            kept.append(a)
            if len(kept) == target:
                return kept
    raise SearchExhaustedError(
        f"no spanning set of {target} matrices within {max_trials} trials"
    )


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


def _random_mixed_int_vector(rng: random.Random, n: int, bound: int = 5) -> Vector:
    while True:
        v = Vector([rng.randint(-bound, bound) for _ in range(n)])
        if v.has_mixed_signs():
            return v


def _random_nonzero_int_vector(rng: random.Random, n: int, bound: int = 5) -> Vector:
    while True:
        v = Vector([rng.randint(-bound, bound) for _ in range(n)])
        if not v.is_zero():
            return v


def _random_int_matrix(rng: random.Random, m: int, n: int, bound: int = 3) -> Matrix:
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def _random_invertible_int_matrix(rng: random.Random, n: int, bound: int = 3) -> Matrix:
    while True:
        a = _random_int_matrix(rng, n, n, bound)
        if a.det() != 0:
            return a


def _random_row_positive(rng: random.Random, m: int, bound: int = 3) -> Matrix:
    rows = []
    for _ in range(m):
        while True:
            row = [rng.randint(0, bound) for _ in range(m)]
            if any(v > 0 for v in row):
                rows.append(row)
                break
    return Matrix(rows)


def campaign_build_np(seed: int, trials: int) -> CampaignResult:
    """Mixed-source construction: nonnegative, invertible, exact image, and
    coverage of every interior and tail construction case."""
    rng = random.Random(f"{seed}:build-np")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(2, 8)
        v = _random_mixed_int_vector(rng, n)
        w = _random_nonzero_int_vector(rng, n)
        try:
            b, trace = construct.build_np(v, w)
            ok = b.is_nonneg() and b.det() != 0 and b @ v == w
        except Exception as exc:  # noqa: BLE001 - campaign records any failure
            ok = False
            notes.append(f"trial {t}: {exc}")
            trace = None
        if ok and trace is not None:
            counts[f"step1-{trace.step1_case}"] += 1
            for c in trace.step2_cases:
                counts[f"step2-{c}"] += 1
            counts[f"step3-{trace.step3_case}"] += 1
        else:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: v={v} w={w}")
    return CampaignResult("build-np", trials, failures, dict(counts), tuple(notes[:5]))


def campaign_build_pos(seed: int, trials: int) -> CampaignResult:
    """Nonnegative-source construction: exact image, invertibility, and lower
    triangularity after the recorded permutation."""
    rng = random.Random(f"{seed}:build-pos")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(1, 8)
        while True:
            v = Vector([rng.randint(0, 5) for _ in range(n)])
            if not v.is_zero():
                break
        w = Vector([rng.randint(1, 5) for _ in range(n)])
        try:
            b = construct.build_pos(v, w)
            perm = construct.positive_first_permutation(v)
            normalized = b @ permutation_matrix(perm).transpose()
            triangular = all(
                normalized.entries[i][j] == 0
                for i in range(n)
                for j in range(i + 1, n)
            ) and all(normalized.entries[i][i] != 0 for i in range(n))
            ok = b.is_nonneg() and b.det() != 0 and b @ v == w and triangular
        except Exception as exc:  # noqa: BLE001
            ok = False
            notes.append(f"trial {t}: {exc}")
        if ok:
            counts[f"positives-{sum(1 for x in v.entries if x > 0)}"] += 1
        else:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: v={v} w={w}")
    return CampaignResult("build-pos", trials, failures, dict(counts), tuple(notes[:5]))


def campaign_build_rect(seed: int, trials: int) -> CampaignResult:
    """Rectangular construction: nonnegative, full row rank, exact image."""
    rng = random.Random(f"{seed}:build-rect")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(2, 8)
        m = rng.randint(1, n - 1)
        if t % 2 == 0:
            v = _random_mixed_int_vector(rng, n)
            w = Vector([rng.randint(-5, 5) for _ in range(m)])
            branch = "mixed"
        else:
            while True:
                v = Vector([rng.randint(0, 5) for _ in range(n)])
                if not v.is_zero():
                    break
            w = Vector([rng.randint(1, 5) for _ in range(m)])
            branch = "nonneg"
        try:
            b = construct.build_rect(v, w)
            ok = b.is_nonneg() and b.rank() == m and b @ v == w
        except Exception as exc:  # noqa: BLE001
            ok = False
            notes.append(f"trial {t}: {exc}")
        if ok:
            counts[f"branch-{branch}"] += 1
        else:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: v={v} w={w}")
    return CampaignResult("build-rect", trials, failures, dict(counts), tuple(notes[:5]))


def _forced_uniform_column_matrix(rng: random.Random, n: int) -> Matrix:
    """Invertible X whose inverse has every column uniformly signed, with both
    signs present: forces the combination path of the mixed-sign search."""
    rows = []
    for i in range(n):
        row = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        row[i] = sum(row[:i] + row[i + 1 :], Fraction(0)) + rng.randint(1, 5)
        rows.append(row)
    dominant = Matrix(rows)
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if 1 in signs and -1 in signs:
            break
    inv = Matrix(
        [[dominant.entries[i][j] * signs[j] for j in range(n)] for i in range(n)]
    )
    return inv.inverse()


def campaign_key1(seed: int, trials: int) -> CampaignResult:
    """Mixed-sign vector search: output has both signs and nonnegative image.

    Every fifth trial uses a generator that forces the two-column combination
    path; the rest are generic random matrices meeting the precondition.
    """
    rng = random.Random(f"{seed}:key1")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(2, 6)
        if t % 5 == 0:
            x = _forced_uniform_column_matrix(rng, n)
            counts["family-forced"] += 1
        else:
            while True:
                x = _random_invertible_int_matrix(rng, n, bound=5)
                inv = x.inverse()
                has_neg = any(v < 0 for row in inv.entries for v in row)
                has_pos = any(v > 0 for row in inv.entries for v in row)
                if has_neg and has_pos:
                    break
            counts["family-generic"] += 1
        try:
            v, path = construct.mixed_sign_vector_with_path(x)
            ok = v.has_mixed_signs() and (x @ v).is_nonneg()
        except Exception as exc:  # noqa: BLE001
            ok = False
            notes.append(f"trial {t}: {exc}")
            path = "error"
        if ok:
            counts[f"path-{path}"] += 1
        else:
            failures += 1
    return CampaignResult("key1", trials, failures, dict(counts), tuple(notes[:5]))


def campaign_msp_equivalence(seed: int, trials: int) -> CampaignResult:
    """The left-inverse route, the deletion oracle, and (on square inputs) the
    nonnegative-inverse test must agree on minimal semipositivity."""
    rng = random.Random(f"{seed}:msp-equivalence")
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4)]
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        m, n = shapes[rng.randrange(len(shapes))]
        a = _random_int_matrix(rng, m, n, bound=3)
        fast = classify.is_minimally_semipositive(a)
        oracle = classify.msp_by_deletion(a)
        ok = fast == oracle
        if a.is_square:
            counts["square"] += 1
            inv_ok, _ = classify.is_inverse_nonnegative(a)
            ok = ok and fast == inv_ok
        if fast:
            counts["msp"] += 1
        if not ok:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: disagreement on\n{a}")
    return CampaignResult(
        "msp-equivalence", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_into_msp_soundness(seed: int, trials: int) -> CampaignResult:
    """Pairs satisfying the square decision rule map structured random
    minimally semipositive samples back into the class (20 samples each)."""
    from . import preserver

    rng = random.Random(f"{seed}:into-msp-soundness")
    cfg = GenConfig(seed)
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(2, 4)
        s = 1 if t % 2 == 0 else -1
        x = gen_inverse_nonneg(n, cfg, index=("sound-x", t)) * s
        y = gen_inverse_nonneg(n, cfg, index=("sound-y", t)) * s
        lmap = preserver.PreserverMap(x, y)
        ok = preserver.into_msp_preserver(lmap).status is preserver.Verdict.YES
        for i in range(20):
            a = gen_msp(n, n, cfg, index=("sound-a", t, i))
            if not classify.is_minimally_semipositive(x @ a @ y):
                ok = False
                break
        counts["negated" if s < 0 else "plain"] += 1
        if not ok:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: image left the class")
    return CampaignResult(
        "into-msp-soundness", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_into_msp_falsification(seed: int, trials: int) -> CampaignResult:
    """Pairs violating the square decision rule always yield a verified
    counterexample certificate."""
    from . import preserver

    rng = random.Random(f"{seed}:into-msp-falsification")
    cfg = GenConfig(seed)
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
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
            while True:
                y = _random_invertible_int_matrix(rng, n)
                inv_ok, _ = classify.is_inverse_nonnegative(y * s)
                if not inv_ok:
                    break
        else:
            x = _random_int_matrix(rng, n, n)
            rows = list(x.entries[:-1]) + [x.entries[0]]
            x = Matrix(rows)  # repeated row forces singularity
            y = _random_invertible_int_matrix(rng, n)
        lmap = preserver.PreserverMap(x, y)
        try:
            cert = preserver.falsify_into_msp(lmap)
            verdict = preserver.into_msp_preserver(lmap)
            ok = cert.verify() and verdict.status is preserver.Verdict.NO
            counts[cert.note] += 1
        except Exception as exc:  # noqa: BLE001
            ok = False
            notes.append(f"trial {t}: {exc}")
        if not ok:
            failures += 1
    return CampaignResult(
        "into-msp-falsification", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_into_sp_soundness(seed: int, trials: int) -> CampaignResult:
    """Pairs satisfying the semipositivity decision rule map planted-witness
    semipositive samples back into the class (20 samples each)."""
    from . import preserver

    rng = random.Random(f"{seed}:into-sp-soundness")
    cfg = GenConfig(seed)
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        s = 1 if t % 2 == 0 else -1
        x = _random_row_positive(rng, m) * s
        y = gen_inverse_nonneg(n, cfg, index=("sp-sound-y", t)) * s
        lmap = preserver.PreserverMap(x, y)
        ok = preserver.into_sp_preserver(lmap).status is preserver.Verdict.YES
        for i in range(20):
            a = gen_sp(m, n, cfg, index=("sp-sound-a", t, i))
            if not classify.is_semipositive(x @ a @ y)[0]:
                ok = False
                break
        counts["negated" if s < 0 else "plain"] += 1
        if not ok:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: image left the class")
    return CampaignResult(
        "into-sp-soundness", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_into_sp_falsification(seed: int, trials: int) -> CampaignResult:
    """Pairs violating the semipositivity decision rule always yield a verified
    certificate; trials cycle through the four counterexample constructions."""
    from . import preserver

    rng = random.Random(f"{seed}:into-sp-falsification")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        family = t % 4
        y = _random_int_matrix(rng, n, n)
        if family == 0:
            x = _random_int_matrix(rng, m, m)
            rows = [list(r) for r in x.entries]
            rows[rng.randrange(m)] = [Fraction(0)] * m
            x = Matrix(rows)
        elif family == 1:
            rows = []
            for i in range(m):
                while True:
                    row = [rng.randint(-3, 3) for _ in range(m)]
                    if i == 0:
                        row[0] = rng.randint(1, 3)
                        row[1] = -rng.randint(1, 3)
                    if any(v != 0 for v in row):
                        rows.append(row)
                        break
            x = Matrix(rows)
        elif family == 2:
            rows = []
            for i in range(m):
                while True:
                    row = [rng.randint(0, 3) for _ in range(m)]
                    if any(v > 0 for v in row):
                        break
                if i % 2 == 1:
                    row = [-v for v in row]
                rows.append(row)
            x = Matrix(rows)
        else:
            s = 1 if (t // 4) % 2 == 0 else -1
            x = _random_row_positive(rng, m) * s
            if (t // 8) % 2 == 0:
                base = _random_int_matrix(rng, n, n)
                rows = list(base.entries[:-1]) + [base.entries[0]]
                y = Matrix(rows) * s
            else:
                while True:
                    y = _random_invertible_int_matrix(rng, n)
                    inv_ok, _ = classify.is_inverse_nonnegative(y * s)
                    if not inv_ok:
                        break
                y = y * s
        lmap = preserver.PreserverMap(x, y)
        try:
            cert = preserver.falsify_into_sp(lmap)
            verdict = preserver.into_sp_preserver(lmap)
            ok = cert.verify() and verdict.status is preserver.Verdict.NO
            counts[cert.note] += 1
        except Exception as exc:  # noqa: BLE001
            ok = False
            notes.append(f"trial {t}: {exc}")
        if not ok:
            failures += 1
    return CampaignResult(
        "into-sp-falsification", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_onto_consistency(seed: int, trials: int) -> CampaignResult:
    """Monomial pairs are onto preservers whose forward and inverse maps both
    pass spot checks; inverse-nonnegative non-monomial pairs are not onto."""
    from . import preserver

    rng = random.Random(f"{seed}:onto-consistency")
    cfg = GenConfig(seed)
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(2, 4)
        s = 1 if t % 2 == 0 else -1
        x = gen_monomial(n, cfg, index=("onto-x", t)) * s
        y = gen_monomial(n, cfg, index=("onto-y", t)) * s
        lmap = preserver.PreserverMap(x, y)
        inverse_map = preserver.PreserverMap(x.inverse(), y.inverse())
        ok = (
            preserver.onto_msp_preserver(lmap).status is preserver.Verdict.YES
            and preserver.onto_sp_preserver(lmap).status is preserver.Verdict.YES
            and preserver.into_msp_preserver(lmap).status is preserver.Verdict.YES
            and preserver.into_msp_preserver(inverse_map).status is preserver.Verdict.YES
            and preserver.into_sp_preserver(lmap).status is preserver.Verdict.YES
            and preserver.into_sp_preserver(inverse_map).status is preserver.Verdict.YES
        )
        for i in range(20):
            a = gen_msp(n, n, cfg, index=("onto-a", t, i))
            if not classify.is_minimally_semipositive(x @ a @ y):
                ok = False
                break
            if not classify.is_minimally_semipositive(x.inverse() @ a @ y.inverse()):
                ok = False
                break
        counts["monomial-pair"] += 1
        if not ok:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: monomial pair not consistent")
        attempt = 0
        while True:
            xn = gen_inverse_nonneg(n, cfg, index=("onto-nm", t, attempt))
            if not classify.is_monomial(xn):
                break
            attempt += 1
        counts["non-monomial"] += 1
        try:
            verdict = preserver.onto_msp_preserver(
                preserver.PreserverMap(xn, gen_monomial(n, cfg, index=("onto-ym", t)))
            )
            refused = verdict.status is preserver.Verdict.NO
        except Exception as exc:  # noqa: BLE001
            refused = False
            notes.append(f"trial {t}: {exc}")
        if not refused:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: non-monomial pair not refused")
    return CampaignResult(
        "onto-consistency", trials, failures, dict(counts), tuple(notes[:5])
    )


def campaign_lp_oracle(seed: int, trials: int) -> CampaignResult:
    """Simplex feasibility decisions agree with brute-force vertex enumeration
    on random small systems (every third trial is an equality system)."""
    from . import lp

    rng = random.Random(f"{seed}:lp-oracle")
    counts: Counter[str] = Counter()
    failures = 0
    notes: list[str] = []
    for t in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8 - n)
        a = _random_int_matrix(rng, m, n)
        b = Vector([rng.randint(-3, 3) for _ in range(m)])
        if t % 3 == 2:
            r1 = lp.equality_feasible_nonneg(a, b)
            r2 = lp.equality_feasible_nonneg_bruteforce(a, b)
            counts["equality"] += 1
        else:
            r1 = lp.feasible_nonneg(a, b)
            r2 = lp.feasible_nonneg_bruteforce(a, b)
            counts["inequality"] += 1
        counts["feasible" if r1.feasible else "infeasible"] += 1
        if r1.feasible != r2.feasible:
            failures += 1
            if len(notes) < 5:
                notes.append(f"trial {t}: simplex={r1.status} oracle={r2.status}")
    return CampaignResult("lp-oracle", trials, failures, dict(counts), tuple(notes[:5]))


CAMPAIGNS: dict[str, tuple[Callable[[int, int], CampaignResult], int]] = {
    "build-np": (campaign_build_np, 1000),
    "build-pos": (campaign_build_pos, 1000),
    "build-rect": (campaign_build_rect, 500),
    "key1": (campaign_key1, 500),
    "msp-equivalence": (campaign_msp_equivalence, 300),
    "into-msp-soundness": (campaign_into_msp_soundness, 200),
    "into-msp-falsification": (campaign_into_msp_falsification, 200),
    "into-sp-soundness": (campaign_into_sp_soundness, 200),
    "into-sp-falsification": (campaign_into_sp_falsification, 200),
    "onto-consistency": (campaign_onto_consistency, 100),
    "lp-oracle": (campaign_lp_oracle, 200),
}


def run_campaign(name: str, seed: int, trials: int | None = None) -> CampaignResult:
    if name not in CAMPAIGNS:
        raise InvalidInputError(
            f"unknown campaign {name!r}; choose from {', '.join(sorted(CAMPAIGNS))}"
        )
    func, default_trials = CAMPAIGNS[name]
    return func(seed, trials if trials is not None else default_trials)
