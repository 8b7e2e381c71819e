import pytest

from semipos.ratmat import Matrix


@pytest.fixture
def entries_reads(monkeypatch):
    """The list of matrices whose ``Matrix.entries`` grid is read, one item a
    read, while the test runs."""
    reads = []
    grid = Matrix.entries.fget

    def counted(m):
        reads.append(m)
        return grid(m)

    monkeypatch.setattr(Matrix, "entries", property(counted))
    return reads
