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
