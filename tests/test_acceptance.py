"""Acceptance suite: one test per shipped guarantee.

Criteria 01, 11, 12 and 13 each check one worked example or construction, and
criterion 06 every small sign matrix.
Every campaign in ``genfuzz.CAMPAIGNS`` runs through one parametrized test,
``test_campaign_at_its_default_budget``, at seed ``SEED`` and at the default
budget ``CAMPAIGNS`` gives it: no trial may fail, the campaign must run exactly
that many trials, and each counter that the ``MINIMUM_COUNTS`` table lists for
it (a construction case or a falsifier family) must reach its floor.  So a
budget is written once, in ``CAMPAIGNS``, and a floor once, in
``MINIMUM_COUNTS``, whose every key must name a campaign.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion and campaign.  Every check is exact; there are no tolerances anywhere.
"""

from itertools import product

import pytest

from examples import EXAMPLE_B, ONES_2, SIGNED_X
from semipos import classify, construct, genfuzz, lp, preserver
from semipos.preserver import PreserverMap, Verdict
from semipos.ratmat import Matrix, Vector

SEED = 1

# the least count each campaign must reach of its counters at SEED
MINIMUM_COUNTS = {
    "build-np": dict.fromkeys([*(f"step2-{c}" for c in "abcdefghi"), *(f"step3-{c}" for c in "abcde")], 1),
    "key1": {"path-combination": 20},
    "into-sp-falsification": dict.fromkeys(
        ["zero-row", "mixed-row", "uniform-sign-rows", "y-singular", "y-inverse-negative-entry"], 10
    ),
}


def _criterion(label, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {label} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_01_worked_example_reproduction():
    v = Vector([1, 0, -5, -1])
    w = Vector([3, 2, -10, 0])
    b, _ = construct.build_np(v, w)
    ok = b == EXAMPLE_B and b @ v == w
    _criterion("01", "worked example reproduced exactly", ok)


def test_06_msp_characterization_crosscheck():
    # every 2x2 and 3x2 matrix over {-1, 0, 1}: the decider, the deletion
    # oracle and "semipositive with a nonnegative left inverse" by LP agree
    counts = {}
    ok = True
    for m, n in ((2, 2), (3, 2)):
        counts[(m, n)] = 0
        for entries in product((-1, 0, 1), repeat=m * n):
            a = Matrix([entries[i * n : (i + 1) * n] for i in range(m)])
            fast = classify.is_minimally_semipositive(a)
            by_lp = classify.is_semipositive(a)[0] and classify.left_inverse_by_lp(a)[0]
            ok = ok and fast == classify.msp_by_deletion(a) == by_lp
            counts[(m, n)] += fast
    ok = ok and counts == {(2, 2): 6, (3, 2): 48}
    name = "minimal semipositivity routes agree on every small sign matrix"
    _criterion("06", name, ok, f"MSP counts {counts}")


def test_11_column_counterexample():
    verdict = preserver.into_msp_preserver(PreserverMap(ONES_2, Matrix([[1]])))
    ok = verdict.status is Verdict.YES and not classify.is_monomial(ONES_2)
    _criterion(
        "11",
        "single-column map preserved by a non-monomial X",
        ok,
        f"verdict={verdict.status.value}, reason={verdict.reason}",
    )


def test_12_no_positive_vector_with_zero_image_entry():
    ok = not classify.is_monomial(SIGNED_X) and not classify.is_monomial(-SIGNED_X)
    infeasible_rows = 0
    n = SIGNED_X.cols
    for i in range(n):
        row = list(SIGNED_X.entries[i])
        system = Matrix(
            [[1 if k == j else 0 for k in range(n)] for j in range(n)]
            + [row, [-v for v in row]]
        )
        rhs = Vector([1] * n + [0, 0])
        if not lp.feasible_nonneg(system, rhs).feasible:
            infeasible_rows += 1
    ok = ok and infeasible_rows == n
    _criterion(
        "12",
        "no positive vector zeroes an image entry",
        ok,
        f"{infeasible_rows}/{n} rows infeasible",
    )


def test_13_msp_basis_search():
    shapes = [(1, 1), (2, 2), (3, 2), (3, 3), (4, 3), (8, 6), (12, 8)]
    results = {}
    ok = True
    for m, n in shapes:
        found = genfuzz.msp_basis_search(m, n)
        flat = Matrix([[x for row in a.entries for x in row] for a in found])
        good = len(found) == m * n and flat.rank() == m * n
        results[(m, n)] = good
        ok = ok and good
    _criterion("13", "independent class members span the space", ok, str(results))


def test_every_floor_names_a_campaign():
    assert set(MINIMUM_COUNTS) <= set(genfuzz.CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(genfuzz.CAMPAIGNS))
def test_campaign_at_its_default_budget(name):
    r = genfuzz.run_campaign(name, SEED)
    floors = MINIMUM_COUNTS.get(name, {})
    counts = {key: r.counters.get(key, 0) for key in floors}
    ok = (
        r.failures == 0
        and r.trials == genfuzz.CAMPAIGNS[name][1]
        and all(counts[key] >= floor for key, floor in floors.items())
    )
    detail = f"{r.trials - r.failures}/{r.trials}, floored counters {counts}"
    _criterion(name, "campaign at its default budget", ok, "; ".join([detail, *r.notes]))
