"""The workloads: a seeded corpus of operations, how each runs, and its check.

A corpus is one pass over a workload's stated mix.  Every cell of the mix
appears in every pass, and only the entries of the inputs depend on the seed,
so two seeds measure the same shapes and the same planted answers.  Inputs are
generated here with ``genfuzz`` and ``random.Random`` seeded from the workload
seed; the library receives only the generated matrices and vectors.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import signal
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from semipos import cli, genfuzz, preserver
from semipos.preserver import PreserverMap
from semipos.ratmat import Matrix, Vector

import checks

MAX_DIM = 12
PRESERVER_SIZES = (2, 5, 8, 11)
PRESERVER_TALL = ((3, 2), (6, 4), (9, 6), (12, 8))
CLI_SIZES = (2, 3, 4, 5, 6)
# independent draws of every cell; more draws average out entry-dependent cost,
# which sets most of the seed-to-seed spread of the preserver median and tail
PRESERVER_DRAWS = 4
CLI_DRAWS = 3


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` names the call, ``label`` its cell of the mix,
    ``planted`` the answer the generator built in (a verdict status or an
    exit code)."""

    kind: str
    label: str
    args: tuple
    planted: object


def _plain(value):
    if isinstance(value, (Matrix, Vector)):
        return value.to_strings()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def digest(ops: list[Op]) -> str:
    """sha256 of the corpus, so two runs can show they measured the same work."""
    text = json.dumps([[op.kind, op.label, _plain(op.args), op.planted] for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()


# -- input generators -----------------------------------------------------------


def _ints(rng: random.Random, m: int, n: int, lo: int, hi: int) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _row_positive(rng: random.Random, n: int, singular: bool = False) -> Matrix:
    """Nonnegative, no zero row, and never monomial: row 0 has two positive entries."""
    rows = _ints(rng, n, n, 0, 3)
    for row in rows:
        row[rng.randrange(n)] = rng.randint(1, 3)
    rows[0][0], rows[0][1] = rng.randint(1, 3), rng.randint(1, 3)
    if singular:
        rows[-1] = list(rows[0])
    return Matrix(rows)


def _mixed_row(rng: random.Random, n: int) -> Matrix:
    """Row 0 has both signs, so neither X nor -X is row positive."""
    rows = _ints(rng, n, n, -3, 3)
    rows[0][0], rows[0][1] = rng.randint(1, 3), -rng.randint(1, 3)
    return Matrix(rows)


def _non_monomial_inverse_nonneg(n: int, cfg: genfuzz.GenConfig, tag: str) -> Matrix:
    """Invertible with nonnegative inverse and not monomial, redrawn until so."""
    for attempt in range(100):
        x = genfuzz.gen_inverse_nonneg(n, cfg, (tag, attempt))
        if any(sum(1 for v in row if v) > 1 for row in x.entries):
            return x
    raise RuntimeError(f"no non-monomial inverse-nonnegative {n}x{n} matrix drawn")


def _flip_columns(rng: random.Random, m: Matrix) -> Matrix:
    """X = M D for inverse-nonnegative M and a diagonal D of both signs.

    X^-1 = D M^-1 negates some rows of a nonnegative matrix whose diagonal is
    positive, so neither X^-1 nor -X^-1 is nonnegative.
    """
    n = m.rows
    flips = set(rng.sample(range(n), rng.randint(1, n - 1)))
    return Matrix([[-v if j in flips else v for j, v in enumerate(row)] for row in m.entries])


def _singular(x: Matrix) -> Matrix:
    rows = [list(r) for r in x.entries]
    rows[-1] = list(rows[0])
    return Matrix(rows)


def _with_zero_row(rng: random.Random, m: int) -> Matrix:
    rows = _ints(rng, m, m, -3, 3)
    rows[rng.randrange(m)] = [0] * m
    return Matrix(rows)


def _mixed_vector(rng: random.Random, n: int) -> Vector:
    while True:
        v = [rng.randint(-5, 5) for _ in range(n)]
        if any(x > 0 for x in v) and any(x < 0 for x in v):
            return Vector(v)


def _nonzero_vector(rng: random.Random, n: int) -> Vector:
    while True:
        v = [rng.randint(-5, 5) for _ in range(n)]
        if any(v):
            return Vector(v)


# -- preserver-verdicts -----------------------------------------------------------


def _pool(seed: int, n: int, draw: int, cfg: genfuzz.GenConfig) -> dict[str, Matrix]:
    """The n x n matrices the square cells combine; inverses are the costly part
    of generation, so each draw makes two and every cell shares them."""
    tag = f"{n}-{draw}"
    rng = random.Random(f"{seed}:preserver:{tag}")
    z1 = _non_monomial_inverse_nonneg(n, cfg, tag + "a")
    return {
        "z1": z1,
        "z2": genfuzz.gen_inverse_nonneg(n, cfg, tag + "b"),
        "p": genfuzz.gen_monomial(n, cfg, tag + "p"),
        "q": genfuzz.gen_monomial(n, cfg, tag + "q"),
        "r": _row_positive(rng, n),
        "r_singular": _row_positive(rng, n, singular=True),
        "mixed_row": _mixed_row(rng, n),
        "neither": _flip_columns(rng, z1),
    }


# (kind, cell, planted status, (X, Y) from the pool), on square spaces
_SQUARE_CELLS: tuple[tuple[str, str, str, Callable], ...] = (
    ("into_sp", "yes", "yes", lambda p: (p["r"], p["z2"])),
    ("into_sp", "yes-singular-x", "yes", lambda p: (p["r_singular"], p["z2"])),
    ("into_sp", "yes-negated", "yes", lambda p: (-p["r"], -p["z2"])),
    ("into_sp", "no-mixed-row", "no", lambda p: (p["mixed_row"], p["z2"])),
    ("into_sp", "no-negated-y", "no", lambda p: (p["r"], -p["z2"])),
    ("into_sp", "no-singular-y", "no", lambda p: (p["r"], _singular(p["z2"]))),
    ("onto_sp", "yes", "yes", lambda p: (p["p"], p["q"])),
    ("onto_sp", "yes-negated", "yes", lambda p: (-p["p"], -p["q"])),
    ("onto_sp", "no-inverse-not-into", "no", lambda p: (p["r"], p["z2"])),
    ("onto_sp", "no-singular-x", "no", lambda p: (p["r_singular"], p["z2"])),
    ("into_msp", "yes", "yes", lambda p: (p["z1"], p["z2"])),
    ("into_msp", "yes-negated", "yes", lambda p: (-p["z1"], -p["z2"])),
    ("into_msp", "no-neither-sign-x", "no", lambda p: (p["neither"], p["z2"])),
    ("into_msp", "no-negated-y", "no", lambda p: (p["z1"], -p["z2"])),
    ("into_msp", "no-singular-x", "no", lambda p: (_singular(p["z1"]), p["z2"])),
    ("onto_msp", "yes", "yes", lambda p: (p["p"], p["q"])),
    ("onto_msp", "no-inverse-not-into", "no", lambda p: (p["z1"], p["z2"])),
)

def _tall_pool(seed: int, m: int, n: int, draw: int, cfg: genfuzz.GenConfig) -> dict[str, Matrix]:
    tag = f"{m}x{n}-{draw}"
    rng = random.Random(f"{seed}:preserver:{tag}")
    return {
        "z": genfuzz.gen_inverse_nonneg(n, cfg, tag),
        "mono": genfuzz.gen_monomial(m, cfg, tag),
        "zero_row": _with_zero_row(rng, m),
        "rand": Matrix(_ints(rng, m, m, -3, 3)),
    }


# into_msp on m x n spaces with m > n >= 2, the regime decided by randomized search;
# a zero row in X gives a counterexample on the search's first draw
_TALL_CELLS: tuple[tuple[str, str, Callable], ...] = (
    ("yes", "yes", lambda p: (p["mono"], p["z"])),
    ("no-search", "no", lambda p: (p["zero_row"], p["z"])),
    ("no-singular-y", "no", lambda p: (p["rand"], _singular(p["z"]))),
)


def preserver_corpus(seed: int, max_dim: int = MAX_DIM) -> list[Op]:
    """Every verdict cell at sizes 2, 5, 8, 11 and on tall spaces up to 12x8, PRESERVER_DRAWS times."""
    cfg = genfuzz.GenConfig(seed)
    ops = []
    for draw in range(PRESERVER_DRAWS):
        for n in (s for s in PRESERVER_SIZES if s <= max_dim):
            pool = _pool(seed, n, draw, cfg)
            for kind, cell, status, pick in _SQUARE_CELLS:
                ops.append(Op(kind, f"{kind}-{cell}-{n}-{draw}", pick(pool), status))
        for m, n in (s for s in PRESERVER_TALL if s[0] <= max_dim):
            pool = _tall_pool(seed, m, n, draw, cfg)
            for cell, status, pick in _TALL_CELLS:
                ops.append(Op("into_msp", f"into_msp-tall-{cell}-{m}x{n}-{draw}", pick(pool), status))
    random.Random(f"{seed}:order").shuffle(ops)
    return ops


def preserver_warmup(seed: int) -> Op:
    cfg = genfuzz.GenConfig(seed)
    return Op("into_sp", "warm-up", (_mixed_row(random.Random(seed), 2), genfuzz.gen_inverse_nonneg(2, cfg, "warm-up")), "no")


def run_preserver(op: Op):
    # looked up at call time, so a traced run reaches the patched binding
    return getattr(preserver, op.kind + "_preserver")(PreserverMap(*op.args))


def check_preserver(op: Op, result) -> str | None:
    return checks.verdict(op.args[0], op.args[1], op.planted, result)


# -- cli-reports ------------------------------------------------------------------


def _write(path: Path, m: Matrix) -> str:
    path.write_text("\n".join(" ".join(row) for row in m.to_strings()) + "\n")
    return str(path)


def cli_corpus(seed: int, workdir: Path, max_dim: int = 6) -> list[Op]:
    """Seven commands on matrices of each size 2..6, CLI_DRAWS times, files under ``workdir``.

    ``planted`` is the expected exit code.  into-sp and into-msp alternate
    between a planted yes (exit 0) and a planted no (exit 1).
    """
    cfg = genfuzz.GenConfig(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for n, draw in ((n, d) for d in range(CLI_DRAWS) for n in CLI_SIZES if n <= max_dim):
        tag = f"{n}-{draw}"
        rng = random.Random(f"{seed}:cli:{tag}")
        f = lambda name, m: _write(workdir / f"{name}{tag}.mat", m)  # noqa: E731
        yes = (n + draw) % 2 == 0
        msp = f("msp", genfuzz.gen_msp(n, n, cfg, f"cli-{tag}"))
        sp = f("sp", genfuzz.gen_sp(n, n, cfg, f"cli-{tag}"))
        v, w = _mixed_vector(rng, n), _nonzero_vector(rng, n)
        z = genfuzz.gen_inverse_nonneg(n, cfg, f"cli-z-{tag}")
        key = f("key", _flip_columns(rng, z))
        sp_x = f("spx", _row_positive(rng, n) if yes else _mixed_row(rng, n))
        y = f("y", genfuzz.gen_inverse_nonneg(n, cfg, f"cli-y-{tag}"))
        msp_x = f("mspx", z if yes else _flip_columns(rng, z))
        ops += [
            Op("cli", f"classify-{tag}", ("classify", msp), 0),
            Op("cli", f"witness-{tag}", ("witness", "sp", sp), 0),
            Op("cli", f"build-np-{tag}", ("build", "np", "--v", str(v), "--w", str(w)), 0),
            Op("cli", f"key1-{tag}", ("key1", key), 0),
            Op("cli", f"into-sp-{tag}", ("preserver", "into-sp", "--x", sp_x, "--y", y), 0 if yes else 1),
            Op("cli", f"into-msp-{tag}", ("preserver", "into-msp", "--x", msp_x, "--y", y), 0 if yes else 1),
            Op("cli", f"falsify-{tag}", ("falsify", "into-msp", "--x", key, "--y", y), 0),
        ]
    return ops


def cli_warmup(seed: int, workdir: Path) -> Op:
    return Op("cli", "warm-up", ("build", "np", "--v", "1 -1", "--w", "1 1"), 0)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    peak_rss_kb: int


_SRC = str(Path(__file__).resolve().parent.parent / "src")
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run_cli(op: Op) -> CliResult:
    """``python -m semipos <args>`` as a child process; reads its stdout and waits for it."""
    read_end, write_end = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, write_end, 1), (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    try:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "semipos", *op.args], _CHILD_ENV, file_actions=actions)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    try:
        with open(read_end, "rb") as out:
            stdout = out.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return CliResult(os.waitstatus_to_exitcode(status), stdout.decode(), usage.ru_maxrss)


def run_cli_in_process(op: Op) -> CliResult:
    """The same argv through ``semipos.cli.run`` with stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(op.args))
    return CliResult(code, buf.getvalue(), 0)


def _matrix_file(path: str) -> checks.Grid:
    return checks.grid([line.split() for line in Path(path).read_text().splitlines() if line.strip()])


def check_cli(op: Op, result: CliResult) -> str | None:
    if result.code != op.planted:
        return f"exit code {result.code}, expected {op.planted}"
    try:
        out = json.loads(result.stdout)["result"]
    except (ValueError, KeyError):
        return "stdout is not a JSON report"
    command = op.args[0]
    if command == "classify":
        a = _matrix_file(op.args[1])
        if not out["verdicts"]["minimally_semipositive"]:
            return "planted MSP matrix reported not MSP"
        return checks.sp_witness(a, checks.vec(out["witnesses"]["semipositivity_vector"])) or checks.left_inverse(
            a, checks.grid(out["witnesses"]["left_inverse"])
        )
    if command == "witness":
        return checks.sp_witness(_matrix_file(op.args[2]), checks.vec(out["witness"]))
    if command == "build":
        v, w = (checks.vec(s.split()) for s in (op.args[3], op.args[5]))
        return checks.image(checks.grid(out["matrix"]), v, w, len(w))
    if command == "key1":
        return checks.mixed_sign(_matrix_file(op.args[1]), checks.vec(out["vector"]))
    cert = out["certificate"]
    if op.planted == 1 or command == "falsify":
        if cert is None or cert.get("verified") is not True:
            return "certificate missing or not verified"
    elif cert is not None:
        return "certificate on a yes verdict"
    return None


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[..., list[Op]]
    warmup: Callable[..., Op]
    run: Callable[[Op], object]
    check: Callable[[Op, object], str | None]
    needs_workdir: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("preserver-verdicts", preserver_corpus, preserver_warmup, run_preserver, check_preserver),
        Workload("cli-reports", cli_corpus, cli_warmup, run_cli, check_cli, needs_workdir=True),
    )
}
