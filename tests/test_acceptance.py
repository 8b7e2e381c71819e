"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.  Every check is exact; there are no tolerances anywhere.
"""

from semipos import classify, construct, genfuzz, lp, preserver
from semipos.preserver import PreserverMap, Verdict
from semipos.ratmat import Matrix, Vector

SEED = 1

EXAMPLE_B = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])
COUNTEREXAMPLE_X = Matrix([[1, 0, 0], [0, -1, 0], [1, 1, 1]])


def _criterion(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_01_worked_example_reproduction():
    v = Vector([1, 0, -5, -1])
    w = Vector([3, 2, -10, 0])
    b, _ = construct.build_np(v, w)
    ok = b == EXAMPLE_B and b @ v == w
    _criterion(1, "worked example reproduced exactly", ok)


def test_02_build_np_campaign():
    r = genfuzz.run_campaign("build-np", SEED, 1000)
    covered = all(r.counters.get(f"step2-{c}", 0) >= 1 for c in "abcdefghi") and all(
        r.counters.get(f"step3-{c}", 0) >= 1 for c in "abcde"
    )
    _criterion(
        2,
        "mixed-source construction property",
        r.failures == 0 and covered,
        f"{r.trials - r.failures}/{r.trials}, all cases covered={covered}",
    )


def test_03_build_pos_campaign():
    r = genfuzz.run_campaign("build-pos", SEED, 1000)
    _criterion(
        3,
        "nonnegative-source construction property",
        r.failures == 0,
        f"{r.trials - r.failures}/{r.trials}",
    )


def test_04_build_rect_campaign():
    r = genfuzz.run_campaign("build-rect", SEED, 500)
    _criterion(
        4,
        "rectangular construction property",
        r.failures == 0,
        f"{r.trials - r.failures}/{r.trials}",
    )


def test_05_mixed_sign_vector_campaign():
    r = genfuzz.run_campaign("key1", SEED, 500)
    combos = r.counters.get("path-combination", 0)
    _criterion(
        5,
        "mixed-sign vector property",
        r.failures == 0 and combos >= 20,
        f"{r.trials - r.failures}/{r.trials}, combination path {combos}x",
    )


def test_06_msp_characterization_crosscheck():
    r = genfuzz.run_campaign("msp-equivalence", SEED, 300)
    _criterion(
        6,
        "minimal semipositivity routes agree",
        r.failures == 0,
        f"{r.trials - r.failures}/{r.trials}, square instances {r.counters.get('square', 0)}",
    )


def test_07_into_msp_soundness():
    r = genfuzz.run_campaign("into-msp-soundness", SEED, 200)
    _criterion(
        7,
        "square pairs meeting the rule preserve the class",
        r.failures == 0,
        f"{(r.trials - r.failures) * 20}/{r.trials * 20} images",
    )


def test_08_into_msp_completeness():
    r = genfuzz.run_campaign("into-msp-falsification", SEED, 200)
    _criterion(
        8,
        "square pairs violating the rule are falsified",
        r.failures == 0,
        f"{r.trials - r.failures}/{r.trials} certificates verified",
    )


def test_09_into_sp_soundness_and_completeness():
    sound = genfuzz.run_campaign("into-sp-soundness", SEED, 200)
    fals = genfuzz.run_campaign("into-sp-falsification", SEED, 200)
    per_case = {
        "zero-row": fals.counters.get("zero-row", 0),
        "mixed-row": fals.counters.get("mixed-row", 0),
        "uniform-sign-rows": fals.counters.get("uniform-sign-rows", 0),
        "y-singular": fals.counters.get("y-singular", 0),
        "y-inverse-negative-entry": fals.counters.get("y-inverse-negative-entry", 0),
    }
    coverage = all(count >= 10 for count in per_case.values())
    ok = sound.failures == 0 and fals.failures == 0 and coverage
    _criterion(
        9,
        "semipositivity preserver rule sound and complete",
        ok,
        f"soundness {sound.trials - sound.failures}/{sound.trials}, "
        f"falsifications {fals.trials - fals.failures}/{fals.trials}, cases {per_case}",
    )


def test_10_onto_consistency():
    r = genfuzz.run_campaign("onto-consistency", SEED, 100)
    _criterion(
        10,
        "onto verdicts consistent with both into directions",
        r.failures == 0,
        f"monomial pairs {r.counters.get('monomial-pair', 0)}, "
        f"non-monomial refusals {r.counters.get('non-monomial', 0)}",
    )


def test_11_column_counterexample():
    x = Matrix([[1, 1], [1, 1]])
    verdict = preserver.into_msp_preserver(PreserverMap(x, Matrix([[1]])))
    ok = verdict.status is Verdict.YES and not classify.is_monomial(x)
    _criterion(
        11,
        "single-column map preserved by a non-monomial X",
        ok,
        f"verdict={verdict.status.value}, reason={verdict.reason}",
    )


def test_12_no_positive_vector_with_zero_image_entry():
    ok = not classify.is_monomial(COUNTEREXAMPLE_X) and not classify.is_monomial(
        -COUNTEREXAMPLE_X
    )
    infeasible_rows = 0
    n = COUNTEREXAMPLE_X.cols
    for i in range(n):
        row = list(COUNTEREXAMPLE_X.entries[i])
        system = Matrix(
            [[1 if k == j else 0 for k in range(n)] for j in range(n)]
            + [row, [-v for v in row]]
        )
        rhs = Vector([1] * n + [0, 0])
        if not lp.feasible_nonneg(system, rhs).feasible:
            infeasible_rows += 1
    ok = ok and infeasible_rows == n
    _criterion(
        12,
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
    _criterion(13, "independent class members span the space", ok, str(results))


def test_14_lp_oracle_agreement():
    r = genfuzz.run_campaign("lp-oracle", SEED, 200)
    _criterion(
        14,
        "simplex agrees with vertex enumeration",
        r.failures == 0,
        f"{r.trials - r.failures}/{r.trials}",
    )
