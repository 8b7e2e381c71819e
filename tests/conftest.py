import pytest

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
