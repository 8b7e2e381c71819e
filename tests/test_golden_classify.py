"""Class reports pinned byte for byte.

``golden_classify.json`` holds ``cli._report_dict(classify.classify_all(a))``
for a seeded set of square, tall and wide matrices with 1..5 rows and 1..5
columns, one case a line.  Each shape has up to four cases: minimally
semipositive, semipositive but not minimally so, rank-deficient, and not
semipositive.  The labels come from the definitional oracles
(``lp.feasible_nonneg_bruteforce``, ``classify.msp_by_deletion``), not from
the deciders the report runs.  Regenerate the file only when a report is
meant to change, with the one writer of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write
"""

from __future__ import annotations

import json
import random

import golden
from semipos import classify, cli, genfuzz, lp
from semipos.ratmat import Matrix, ones_vector

GOLDEN = golden.path("classify")
DIMS = (1, 2, 3, 4, 5)
DRAWS = 200


def _sp(a: Matrix) -> bool:
    return lp.feasible_nonneg_bruteforce(a, ones_vector(a.rows)).feasible


def _sp_not_msp(rng: random.Random, m: int, n: int) -> Matrix:
    """Full rank and semipositive, yet not minimally so (first passing draw)."""
    for _ in range(DRAWS):
        a = genfuzz.int_matrix(rng, m, n, -1, 4)
        if a.rank() == min(m, n) and _sp(a) and not classify.msp_by_deletion(a):
            return a
    raise RuntimeError(f"no {m}x{n} draw is semipositive but not minimally so")


def _rank_deficient(rng: random.Random, m: int, n: int) -> Matrix:
    """Zero when one side is 1; else a positive matrix whose last column (or,
    when wide, last row) repeats its first."""
    if min(m, n) == 1:
        return Matrix.zeros(m, n)
    rows = genfuzz.int_rows(rng, m, n, 1, 4)
    if m < n:
        return genfuzz.singular(Matrix(rows))
    for row in rows:
        row[-1] = row[0]
    return Matrix(rows)


def _not_sp(rng: random.Random, m: int, n: int) -> Matrix:
    """A nonpositive row: (A x)_0 <= 0 for every x >= 0."""
    rows = genfuzz.int_rows(rng, m, n)
    rows[0] = [-abs(v) for v in rows[0]]
    return Matrix(rows)


def cases():
    """(label, category, matrix) for the whole set."""
    cfg = genfuzz.GenConfig(2024)
    for m in DIMS:
        for n in DIMS:
            rng = random.Random(f"golden:classify:{m}x{n}")
            if m >= n:
                yield f"msp-{m}x{n}", "msp", genfuzz.gen_msp(m, n, cfg, ("golden", m, n))
            # an m x 1 matrix is minimally semipositive iff semipositive
            if n >= 2:
                yield f"sp-not-msp-{m}x{n}", "sp-not-msp", _sp_not_msp(rng, m, n)
            yield f"rank-deficient-{m}x{n}", "rank-deficient", _rank_deficient(rng, m, n)
            yield f"not-sp-{m}x{n}", "not-sp", _not_sp(rng, m, n)


def render() -> str:
    """Every case's report, one case a line."""
    return golden.dump((label, cli._report_dict(classify.classify_all(a))) for label, _, a in cases())


def test_class_reports_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_labels_match_the_oracles(entries_reads):
    pinned = json.loads(GOLDEN.read_text())
    for label, category, a in cases():
        # the deciders run on the integer rows and never read the Fraction grid
        entries_reads.clear()
        classify.classify_all(a)
        assert entries_reads == [], label
        verdicts = pinned[label]["verdicts"]
        assert verdicts["semipositive"] is _sp(a), label
        assert verdicts["minimally_semipositive"] is (category == "msp"), label
        assert (a.rank() < min(a.shape)) is (category == "rank-deficient"), label
        if category == "not-sp":
            assert verdicts["semipositive"] is False, label
