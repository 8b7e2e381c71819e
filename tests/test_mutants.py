"""The mutation table in ``mutants.py`` still applies to the source: a refactor
that moves or rewrites a mutated line fails here, not only in the runner."""

import pytest

import mutants


def test_each_mutant_applies_once_and_names_existing_tests():
    """Each test is a file that exists, or a node id ``file::test`` whose file
    defines that test."""
    for name, old, new, tests in mutants.MUTANTS:
        assert (mutants.ROOT / "src" / "semipos" / name).read_text().count(old) == 1, (name, old)
        assert old != new and tests, (name, old)
        for test in tests:
            path, _, function = test.partition("::")
            assert (mutants.ROOT / path).is_file(), test
            assert not function or f"\ndef {function}(" in (mutants.ROOT / path).read_text(), test


def test_replace_once_refuses_a_missing_or_repeated_text(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("x = 1\ny = 1\n")
    for old in ("z = 1", "= 1"):
        with pytest.raises(ValueError, match="occurs [02] times"):
            mutants.replace_once(path, old, "w = 2")
    assert path.read_text() == "x = 1\ny = 1\n"
    mutants.replace_once(path, "y = 1", "y = 2")
    assert path.read_text() == "x = 1\ny = 2\n"
