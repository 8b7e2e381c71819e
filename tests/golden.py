"""The golden corpora: one file format and one writer.

The corpora draw their inputs from ``semipos.genfuzz``'s input families, and
from ``flip_columns`` here, which no library code draws.

Each ``golden_<name>.json`` next to this file, for ``name`` in ``NAMES``,
holds ``test_golden_<name>.render()``: one JSON object written by ``dump``,
one ``"label": value`` a line, so a regenerated file's diff lists the cases
that changed.  ``test_golden_<name>.py`` checks that its file matches a fresh
render.  Regenerate every file, only when a pinned output is meant to change:

    PYTHONPATH=src python3 tests/golden.py --write

pytest does not collect this file; ``tests/test_golden.py`` checks that
``NAMES`` covers every golden file and golden test module.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path
from typing import Iterable

from semipos.ratmat import Matrix

NAMES = ("campaigns", "classify", "cli", "lp", "verdicts")


def path(name: str) -> Path:
    return Path(__file__).with_name(f"golden_{name}.json")


def dump(cases: Iterable[tuple[str, object]]) -> str:
    """(label, value) pairs as one JSON object, one ``"label": value`` a line."""
    lines = [f"{json.dumps(label)}: {json.dumps(value)}" for label, value in cases]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def flip_columns(rng: random.Random, m: Matrix) -> Matrix:
    """M D for a sign diagonal D of both signs: neither inverse sign is nonnegative."""
    n = m.rows
    flips = set(rng.sample(range(n), rng.randint(1, n - 1)))
    return Matrix([[-v if j in flips else v for j, v in enumerate(row)] for row in m.entries])


def main(argv: list[str]) -> None:
    """Write every golden file from its module's ``render()``."""
    if argv != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python3 tests/golden.py --write")
    for name in NAMES:
        path(name).write_text(importlib.import_module(f"test_golden_{name}").render())


if __name__ == "__main__":
    main(sys.argv[1:])
