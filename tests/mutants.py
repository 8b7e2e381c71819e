"""Mutation check: each mutant in ``MUTANTS`` must make its tests fail.

Run from anywhere as ``python3 tests/mutants.py`` (no arguments).  Each row is
(file under src/semipos, old text, new text, tests), each test a path or a
pytest node id (``path::test``).  For each row the
old text, which must occur exactly once in the file, is replaced in a copy of
``src`` made in a temporary directory, and ``python -m pytest <paths>`` runs
against that copy, stopped after ``TIMEOUT_S`` seconds.  The mutant is killed
only when pytest exits 1 (a test failed); exit 0 means it survived, and any
other code (a wrong path, a collection error, an interrupt) or a run that
times out tested nothing.  One line is printed per mutant, with its outcome
and the seconds it took, and the exit code is 1 unless every mutant is
killed.

pytest does not collect this file; ``tests/test_mutants.py`` checks the table
itself in tier-1.  Adding a mutant takes one row here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# far above the slowest killed mutant, so only a mutant that hangs its tests reaches it
TIMEOUT_S = 60

CLASSIFY = ["tests/test_classify.py", "tests/test_preserver.py"]

MUTANTS = [
    # each evidence checker in classify, cut to one of its two conditions
    ("classify.py", "return (a @ x).is_positive() and x.is_nonneg()", "return (a @ x).is_positive()", CLASSIFY),
    ("classify.py", "return (a @ x).is_positive() and x.is_nonneg()", "return x.is_nonneg()", CLASSIFY),
    ("classify.py", "return _is_identity_product(n, a) and n.is_nonneg()", "return _is_identity_product(n, a)", CLASSIFY),
    ("classify.py", "return _is_identity_product(n, a) and n.is_nonneg()", "return n.is_nonneg()", CLASSIFY),
    ("classify.py", "return au.is_nonneg() and not u.is_nonneg()", "return au.is_nonneg()", CLASSIFY),
    ("classify.py", "return au.is_nonneg() and not u.is_nonneg()", "return not u.is_nonneg()", CLASSIFY),
    # the monomial test reads rows only, not columns, and the row-positive test misses a zero row:
    # of the classify tests, only a row of examples.MATRICES tells either apart
    ("classify.py", "(*rows, *zip(*rows))", "rows", ["tests/test_classify.py::test_matrix_example"]),
    ("classify.py", "return a.is_nonneg() and not a.has_zero_row()", "return a.is_nonneg()", ["tests/test_classify.py::test_matrix_example"]),
    # verify() with its stored-image comparison cut
    ("preserver.py", "elif self.image != image:", "elif False:", ["tests/test_preserver.py"]),
    # the (X, Y) / (-X, -Y) sign symmetry, and the nonpositive-inverse sign
    ("preserver.py", "return x_sign if x_sign == y_sign else 0", "return x_sign", ["tests/test_preserver.py"]),
    ("preserver.py", "else -1 if inv.is_nonpos() else 0", "else 0", ["tests/test_preserver.py"]),
    # the into-SP rule ignoring Y: X's sign alone
    (
        "preserver.py",
        "x_sign = _sign(classify.is_row_positive, lmap.x)\n    return x_sign and _pair_sign(x_sign, _inverse_sign(lmap.y_inv))",
        "x_sign = _sign(classify.is_row_positive, lmap.x)\n    return x_sign",
        ["tests/test_preserver.py::test_every_2x2_pair_over_minus_one_zero_one"],
    ),
    # a negated pair reported under its rule's reason, a verified certificate verified again by its verdict,
    # and onto's singular-X branch skipped
    ("preserver.py", "reason if sign > 0 else REASON_NEGATED_PAIR", "reason", ["tests/test_preserver.py"]),
    ("preserver.py", "if not (cert.verified or cert.verify()):", "if not cert.verify():", ["tests/test_preserver.py"]),
    (
        "preserver.py",
        "if lmap.x_inv is None:\n        return _no(REASON_X_SINGULAR",
        "if False:\n        return _no(REASON_X_SINGULAR",
        ["tests/test_preserver.py"],
    ),
    # the into-MSP falsifier refusing a map whose X and Y differ in size
    (
        "preserver.py",
        "    return _certificate(into_msp_preserver(lmap))",
        '    if lmap.x.rows != lmap.y.rows:\n        raise DimensionError("square falsifier")\n    return _certificate(into_msp_preserver(lmap))',
        ["tests/test_preserver.py::test_example"],
    ),
    # each no-preimage condition cut
    ("preserver.py", "or not (self.x.transpose() @ q).is_zero()", "or False", ["tests/test_preserver.py"]),
    ("preserver.py", "or (self.a.transpose() @ q).is_zero()", "or False", ["tests/test_preserver.py"]),
    # the square builders' closed-form inverse: lower-left block negated, B B^-1 = I check cut
    ("construct.py", "row[rows[j]] = -sum(", "row[rows[j]] = sum(", ["tests/test_construct.py", "tests/test_preserver.py"]),
    ("construct.py", "not _is_identity_product(b, inv)", "False", ["tests/test_construct.py", "tests/test_preserver.py"]),
    # a build_np case-table entry: case "d"'s last column off by two
    ("construct.py", "(wi - 1) / vn", "(wi + 1) / vn", ["tests/test_construct.py"]),
    # genfuzz's rejection sampler keeping every draw, and its entry sampler stopping one short of the bound
    ("genfuzz.py", "if accept(value):", "if True:", ["tests/test_golden_campaigns.py"]),
    ("genfuzz.py", "rng.randint(low, ENTRY_BOUND)", "rng.randint(low, ENTRY_BOUND - 1)", ["tests/test_golden_verdicts.py"]),
    # into-sp-falsification never drawing its Y-inverse-negative family: every trial still passes, a floor fails
    ("genfuzz.py", "if (t // 8) % 2 == 0:", "if True:", ["tests/test_acceptance.py"]),
    # Bland's tie-break reversed, and a negative right-hand side's row left unsigned
    ("lp.py", "basis[i] < basis[pivot_row]", "basis[i] > basis[pivot_row]", ["tests/test_golden_lp.py"]),
    ("lp.py", "f = s // den if r >= 0 else -(s // den)", "f = s // den", ["tests/test_lp.py"]),
    # a rider read off past a basic artificial's nonzero entry, a rider left unsigned when its row is negated,
    # and a rider the final basis does not show called infeasible without its own LP
    ("lp.py", "if any(grid[i][col] for i in artificial) or any(", "if any(", ["tests/test_lp.py"]),
    ("lp.py", "t = f * den", "t = s", ["tests/test_lp.py"]),
    ("lp.py", "if solution is None and j:", "if False:", ["tests/test_classify.py"]),
    # Matrix and Vector: assignment guard a no-op, equality cut to the numerators
    ("ratmat.py", 'raise AttributeError(f"cannot assign to {name!r} of {type(self).__name__}")', "object.__setattr__(self, name, value)", ["tests/test_ratmat.py"]),
    ("ratmat.py", "return self._dens == other._dens and self._nums == other._nums", "return self._nums == other._nums", ["tests/test_ratmat.py"]),
    # a zero row counted as positive, a negative denominator kept, the pivot row's content kept in its entries
    ("ratmat.py", "max(nums) <= 0", "max(nums) < 0", ["tests/test_classify.py"]),
    ("ratmat.py", "g = -g", "g = g", ["tests/test_ratmat.py"]),
    ("ratmat.py", "if g != 1:", "if False:", ["tests/test_ratmat.py"]),
    # the per-pivot scale factors: a zero-head row given the other factor, the per-row gcd read against d
    ("ratmat.py", "(rest, keep) if head else (rest0, keep0)", "(rest, keep)", ["tests/test_ratmat.py"]),
    ("ratmat.py", "g = math.gcd(rest_i, s)", "g = math.gcd(d, s)", ["tests/test_ratmat.py"]),
    # the inverse's joining unit column not divided by the pivot row's scale, and its starting index left behind on a row swap
    ("ratmat.py", "dens[origin[r]] * d // scales[r]", "dens[origin[r]] * d", ["tests/test_ratmat.py"]),
    ("ratmat.py", "origin[r], origin[p] = origin[p], origin[r]", "pass", ["tests/test_ratmat.py"]),
    # a zero-head row left undivided by the pivot step, and Matrix @ Matrix dropping the row denominators of the left factor
    (
        "ratmat.py",
        "elif q != 1:\n            grid[i] = [x // q for x in row]",
        "elif False:\n            pass",
        ["tests/test_ratmat.py::test_elimination_matches_plain_gauss_jordan"],
    ),
    (
        "ratmat.py",
        "_reduced(den * lcm, row) for den, row in zip(self._dens, rows)",
        "_reduced(lcm, row) for den, row in zip(self._dens, rows)",
        ["tests/test_ratmat.py::test_inverse_round_trip"],
    ),
    # the packed identity check: its slot width one bit short of the bound, the expected value t_ii left
    # out of the width, the shape check cut
    ("ratmat.py", "(max(x._dens) * lcm).bit_length()) + 1", "(max(x._dens) * lcm).bit_length())", ["tests/test_ratmat.py"]),
    ("ratmat.py", "w = max((reach * top).bit_length(), (max(x._dens) * lcm).bit_length()) + 1", "w = (reach * top).bit_length() + 1", ["tests/test_ratmat.py"]),
    ("ratmat.py", "if x.cols != y.rows:", "if False:", ["tests/test_ratmat.py"]),
    # the packed identity check's width bounding a row of X by its largest entry, not by the sum of its entries
    (
        "ratmat.py",
        "reach = max(sum(map(abs, nums)) for nums in x._nums)",
        "reach = max(max(map(abs, nums)) for nums in x._nums)",
        ["tests/test_ratmat.py::test_identity_product_rejects_rows_that_collide_one_bit_short"],
    ),
    # the packed identity check's width blind to the size of Y's entries, and the file cap cut to 2,049 bytes
    ("ratmat.py", "reach * top", "reach // top", ["tests/test_ratmat.py"]),
    ("ratmat.py", "MAX_DIM * MAX_DIM", "MAX_DIM // MAX_DIM", ["tests/test_cli.py"]),
    # the pivot search blind to the last row, so det() is 0 on every square matrix: a draw loop
    # waiting for det() != 0 must give up and fail, not hang
    (
        "ratmat.py",
        "for i in range(r, len(grid)) if grid[i][k] != 0",
        "for i in range(r, len(grid) - 1) if grid[i][k] != 0",
        ["tests/test_ratmat.py::test_identity_product_agrees_with_the_full_product"],
    ),
    # a zero row found only in row 0, and Vector addition cross-multiplied the wrong way round
    ("ratmat.py", "return any(not any(nums) for nums in self._nums)", "return not any(self._nums[0])", ["tests/test_preserver.py", "tests/test_metamorphic.py"]),
    ("ratmat.py", "a * e + b * d", "a * d + b * e", ["tests/test_ratmat.py"]),
]


def replace_once(path: Path, old: str, new: str) -> None:
    """Replace ``old`` in the file by ``new``; ValueError unless it occurs once."""
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times in {path.name}")
    path.write_text(text.replace(old, new))


def run(name: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'SURVIVED', or what kept the mutant from being tested."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            replace_once(src / "semipos" / name, old, new)
        except ValueError as e:
            return f"NOT APPLIED: {e}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", *tests, "-q", "-x", "-p", "no:cacheprovider"],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return f"NOT TESTED: timed out after {TIMEOUT_S} s"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"NOT TESTED: pytest exit {code}")


def main() -> int:
    failed = 0
    for name, old, new, tests in MUTANTS:
        started = time.perf_counter()
        outcome = run(name, old, new, tests)
        failed += outcome != "killed"
        print(f"{outcome} ({time.perf_counter() - started:.1f} s)  {name}: {old!r} -> {new!r}  [{' '.join(tests)}]", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
