"""The golden harness in ``golden.py``: its writer names every golden file
and golden test module, and takes ``--write`` alone."""

from pathlib import Path

import pytest

import golden

HERE = Path(golden.__file__).parent


def test_the_writer_names_every_golden_file_and_module():
    names = sorted(golden.NAMES)
    assert names == sorted(p.stem.removeprefix("golden_") for p in HERE.glob("golden_*.json"))
    assert names == sorted(p.stem.removeprefix("test_golden_") for p in HERE.glob("test_golden_*.py"))
    assert all(golden.path(name).is_file() for name in names)


def test_the_writer_takes_only_write():
    for argv in ([], ["--write", "lp"], ["lp"]):
        with pytest.raises(SystemExit, match="tests/golden.py --write"):
            golden.main(argv)
