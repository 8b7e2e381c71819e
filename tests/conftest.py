import pytest

from semipos import lp
from semipos.ratmat import Matrix, Vector


@pytest.fixture
def entries_reads(monkeypatch):
    """The list of matrices and vectors whose ``entries`` are read, one item a
    read, while the test runs: each read builds ``Fraction``s anew."""
    reads = []
    for cls in (Matrix, Vector):
        built = cls.entries.fget

        def counted(value, built=built):
            reads.append(value)
            return built(value)

        monkeypatch.setattr(cls, "entries", property(counted))
    return reads


@pytest.fixture
def lp_calls(monkeypatch):
    """The names of the public LP entry points called while the test runs,
    one item a call, in order."""
    calls = []
    for name in ("feasible_nonneg", "equality_feasible_nonneg", "equality_feasible_nonneg_each"):
        solve = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *args, solve=solve, name=name: calls.append(name) or solve(*args))
    return calls


@pytest.fixture
def phase1_runs(monkeypatch):
    """The number of right-hand sides of each ``lp._phase1`` simplex run while
    the test runs, one item a run, in order."""
    runs = []
    phase1 = lp._phase1
    monkeypatch.setattr(lp, "_phase1", lambda rows, rhss: runs.append(len(rhss)) or phase1(rows, rhss))
    return runs
