import pytest

from semipos import classify, genfuzz
from semipos.ratmat import DimensionError, InvalidInputError, Matrix


CFG = genfuzz.GenConfig(seed=424242)


def test_determinism_same_config():
    a = genfuzz.gen_monomial(3, genfuzz.GenConfig(seed=5), index=7)
    b = genfuzz.gen_monomial(3, genfuzz.GenConfig(seed=5), index=7)
    assert a == b
    c = genfuzz.gen_msp(4, 2, genfuzz.GenConfig(seed=5), index=9)
    d = genfuzz.gen_msp(4, 2, genfuzz.GenConfig(seed=5), index=9)
    assert c == d


def test_different_seeds_differ():
    a = genfuzz.gen_inverse_nonneg(3, genfuzz.GenConfig(seed=1))
    b = genfuzz.gen_inverse_nonneg(3, genfuzz.GenConfig(seed=2))
    assert a != b


def test_gen_monomial_predicate():
    for i in range(30):
        n = 1 + i % 5
        assert classify.is_monomial(genfuzz.gen_monomial(n, CFG, index=i))


def test_gen_monomial_1x1_positive():
    m = genfuzz.gen_monomial(1, CFG)
    assert m.entries[0][0] > 0


def test_gen_inverse_nonneg_predicate():
    for i in range(30):
        n = 1 + i % 4
        a = genfuzz.gen_inverse_nonneg(n, CFG, index=i)
        ok, _ = classify.is_inverse_nonnegative(a)
        assert ok


def test_gen_sp_predicate_and_witness():
    for i in range(30):
        m, n = 1 + i % 4, 1 + (i // 2) % 3
        a, x = genfuzz.gen_sp_with_witness(m, n, CFG, index=i)
        assert x.is_positive()
        assert (a @ x).is_positive()
        assert classify.is_semipositive(a)[0]


def test_gen_msp_predicate():
    for i in range(20):
        n = 1 + i % 3
        m = n + i % 3
        a = genfuzz.gen_msp(m, n, CFG, index=i)
        assert classify.is_minimally_semipositive(a)
        assert classify.msp_by_deletion(a)


def test_gen_msp_positive_column():
    a = genfuzz.gen_msp(2, 1, CFG)
    assert a.shape == (2, 1) and a.is_positive()


def test_gen_msp_needs_tall():
    with pytest.raises(DimensionError):
        genfuzz.gen_msp(2, 3, CFG)


def test_msp_basis_search_small():
    # the fixed family against the LP and deletion oracles on every small shape
    for m in range(1, 6):
        for n in range(1, m + 1):
            found = genfuzz.msp_basis_search(m, n)
            assert len(found) == m * n
            flat = Matrix([[x for row in a.entries for x in row] for a in found])
            assert flat.rank() == m * n, (m, n)
            assert all(classify.is_minimally_semipositive(a) for a in found), (m, n)
            if m * n <= 20:
                assert all(classify.msp_by_deletion(a) for a in found), (m, n)


def test_msp_basis_search_needs_tall_nonempty_shape():
    bound = genfuzz.MAX_BASIS_MEMBERS
    for m, n in [(2, 0), (-1, 1), (0, 0), (1, 2), (bound + 1, 1), (17, 16)]:
        with pytest.raises(DimensionError, match=f"m\\*n <= {bound}"):
            genfuzz.msp_basis_search(m, n)


def test_iter_msp_mixture_all_members():
    samples = list(genfuzz.iter_msp_mixture(3, 2, CFG, 6))
    assert len(samples) == 6
    assert all(classify.msp_by_deletion(a) for a in samples)


def test_a_lost_planted_witness_raises(monkeypatch):
    # every row is drawn with a positive product with the planted x; negated, none has
    monkeypatch.setattr(genfuzz, "Matrix", lambda rows: -Matrix(rows))
    with pytest.raises(ArithmeticError, match="planted witness lost"):
        genfuzz.gen_sp_with_witness(2, 2, CFG)


@pytest.mark.parametrize(
    "top, dominant",
    [
        # x = 1 > 0, but A x < 0
        pytest.param(-Matrix.identity(2), Matrix.identity(2), id="ax-negative"),
        # A x > 0, but x = (1, 0) is not strictly positive
        pytest.param(Matrix([[1, 0], [1, 0]]), Matrix([[1, 0], [0, 0]]), id="x-not-positive"),
    ],
)
def test_a_lost_msp_witness_raises(monkeypatch, top, dominant):
    # the witness is dominant @ 1; on a square shape A is the top block alone
    monkeypatch.setattr(genfuzz, "gen_inverse_nonneg_with_inverse", lambda n, cfg, index: (top, dominant))
    with pytest.raises(ArithmeticError, match="lost its witness"):
        genfuzz.gen_msp(2, 2, CFG)


def test_a_basis_member_that_fails_its_check_raises(monkeypatch):
    # negating both A and its left inverse N keeps N A = I, but N is not >= 0
    monkeypatch.setattr(genfuzz, "Matrix", lambda rows: -Matrix(rows))
    with pytest.raises(ArithmeticError, match=r"member \(0, 0\) failed its MSP self-check"):
        genfuzz.msp_basis_search(2, 2)


def test_run_campaign_rejects_unknown_name():
    with pytest.raises(InvalidInputError):
        genfuzz.run_campaign("no-such-campaign", seed=0)


def test_trial_budgets_below_one_are_input_errors():
    for name, trials in (("build-np", 0), ("lp-oracle", -3)):
        with pytest.raises(InvalidInputError, match="must be at least 1"):
            genfuzz.run_campaign(name, 0, trials)


def test_small_campaigns_pass():
    for name in ["build-np", "build-pos", "build-rect", "key1", "lp-oracle"]:
        result = genfuzz.run_campaign(name, seed=11, trials=25)
        assert result.passed, f"{name}: {result.notes}"
        assert result.trials == 25


def test_campaign_result_reports_failures_honestly():
    result = genfuzz.run_campaign("msp-equivalence", seed=11, trials=30)
    assert result.failures == 0 and result.passed


def test_a_trial_with_two_failing_halves_counts_once(monkeypatch):
    from semipos import preserver

    # the monomial pair is not recognised and the non-monomial pair not refused
    unknown = preserver.PreserverVerdict(preserver.Verdict.UNKNOWN, "patched")
    monkeypatch.setattr(preserver, "onto_msp_preserver", lambda lmap: unknown)
    result = genfuzz.run_campaign("onto-consistency", seed=0, trials=7)
    assert result.failures == 7 <= result.trials
    assert [note.split(":")[0] for note in result.notes] == [f"trial {t}" for t in range(5)]

