"""semipos benchmark: one workload, one seed, one process, closed loop.

    python3 bench/run.py --workload preserver-verdicts --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
One client runs one operation at a time (one child process at a time for
``cli-reports``).  Set-up builds the seeded corpus, writes any input files and
runs one untimed warm-up operation.  The timed loop then repeats the corpus
until ``--seconds`` have passed, and completes it at least once.  Every
output is checked outside the timed section; a rejected output or a raised
exception counts as a failed operation and makes the exit code 1.

Each corpus operation's latency is the mean of its repeats in the loop, and
``latency_p50_ms``, ``latency_tail_ms`` and ``ops_per_s`` (corpus size over the
summed per-operation latencies, i.e. throughput at exactly the stated mix) are
taken over those per-operation latencies.  The host this was tuned on swings
between two speeds about 1.8x apart for seconds at a time; a mean moves
smoothly with the share of time spent in each, where a median of repeats
jumps between them.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median over
several fresh interpreters, each timed from spawn to the end of its set-up.

Every reported time is the measured wall time scaled to a reference host
speed (``calibrate.py``).  After each operation, outside its timed section,
the loop times a fixed rational elimination that shares no code with the
library; the mean of those samples over the run gives the host's speed during
the run, and each set-up probe is scaled by samples taken just around it.
This removes the host's own swings, which moved whole runs by up to 1.6x on
the machine this was tuned on, and leaves every change to the library's cost
in place.  The run pins itself, and so every child it starts, to one CPU, so
that the samples measure the CPU the work runs on: unpinned, the CLI's
children ran on the other CPU and their times did not follow the samples.
The unscaled times are printed and recorded beside the scaled ones.

``--trace 1`` runs every operation twice per pass, once with spans around
the public functions of each module and once without, alternating which goes
first, and reports the per-layer metrics per pass of the corpus plus the
tracing overhead, with its times scaled in the same way.  Spans, in
unscaled seconds, go to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# host-speed samples for each set-up probe span about as long as the probe itself
PROBE_WINDOW_S = 0.25
TAIL_BEYOND = 10


def _import_package():
    """Put the checkout's ``src`` first on the path and import semipos from it."""
    src = ROOT / "src"
    if not (src / "semipos" / "__init__.py").is_file():
        sys.exit(f"bench: no semipos package under {src}")
    sys.path.insert(0, str(src))
    import semipos

    if Path(semipos.__file__).resolve().parent != (src / "semipos").resolve():
        sys.exit(f"bench: semipos imported from {semipos.__file__}, not {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-dim", type=int, default=None, help="shrink the corpus (tests only)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed: int, max_dim: int | None):
    """Corpus, input files and one untimed warm-up operation; returns the corpus."""
    kwargs = {} if max_dim is None else {"max_dim": max_dim}
    if workload.needs_workdir:
        workdir = OUT / f"{workload.name}-s{seed}"
        ops = workload.corpus(seed, workdir, **kwargs)
        warm = workload.warmup(seed, workdir)
    else:
        ops = workload.corpus(seed, **kwargs)
        warm = workload.warmup(seed)
    workload.run(warm)
    return ops


def _probe_setup(args) -> tuple[float, float]:
    """Wall time of one fresh interpreter from spawn to the end of set-up, and the
    host scale from samples taken for a while just before and just after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.max_dim is not None:
        argv += ["--max-dim", str(args.max_dim)]
    host = calibrate.samples_for(PROBE_WINDOW_S)
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        # no timeout: with one, wait() polls in steps of up to 50 ms
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    seconds = time.perf_counter() - start
    if code:
        raise subprocess.CalledProcessError(code, argv)
    host += calibrate.samples_for(PROBE_WINDOW_S)
    return seconds, calibrate.scale(host)


class Loop:
    """Per-operation latencies, failures and peak child RSS of one timed loop."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        self.samples: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failures: list[str] = []
        self.child_rss_kb = 0
        self._accepted: dict[int, object] = {}

    def step(self, i: int, run) -> None:
        """Run corpus op ``i`` through ``run`` (which returns result, seconds) and check it."""
        op = self.ops[i]
        self.attempted += 1
        try:
            result, seconds = run(op)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return
        self.samples[i].append(seconds)
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "peak_rss_kb", 0))
        # an output equal to one already checked for this op is correct too
        if i in self._accepted and self._accepted[i] == result:
            return
        try:
            reason = self.workload.check(op, result)
        except Exception as exc:  # noqa: BLE001 - output the checker cannot read is rejected
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            self.failures.append(f"{op.label}: {reason}")
        else:
            self._accepted[i] = result

    def latencies(self) -> list[float]:
        return [statistics.fmean(s) for s in self.samples if s]


def _timed(run):
    def call(op):
        start = time.perf_counter()
        result = run(op)
        return result, time.perf_counter() - start

    return call


def latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return {
        "ops_per_s": n / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "samples": n,
    }


def run_untraced(workload, ops, seconds: float) -> tuple[Loop, float, list[float]]:
    """The timed loop; also returns one host-speed sample taken after each operation."""
    loop = Loop(workload, ops)
    run = _timed(workload.run)
    host = []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        loop.step(i % len(ops), run)
        host.append(calibrate.sample())
        i += 1
    return loop, time.perf_counter() - start, host


def run_traced(workload, ops, seconds: float):
    """Whole passes until ``seconds``; each op runs once traced and once untraced,
    alternating which goes first.  For the CLI, each op also runs once as a child
    process and the two in-process runs go through ``semipos.cli.run``."""
    import tracer
    import workloads

    spans = tracer.Tracer()
    traced, untraced = Loop(workload, ops), Loop(workload, ops)
    children = Loop(workload, ops) if workload.needs_workdir else None
    in_process = workloads.run_cli_in_process if children else workload.run
    stdout_bytes = 0
    op_id = 0

    def traced_run(op):
        nonlocal op_id, stdout_bytes
        result, seconds = spans.run(op_id, op.kind, in_process, op)
        op_id += 1
        if children:
            stdout_bytes += len(result.stdout.encode())
        return result, seconds

    runs = ((traced, traced_run), (untraced, _timed(in_process)))
    host = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i in range(len(ops)):
            if children:
                children.step(i, _timed(workload.run))
            for loop, run in runs if passes % 2 == 0 else runs[::-1]:
                loop.step(i, run)
            host.append(calibrate.sample())
        passes += 1
    loops = [traced, untraced] + ([children] if children else [])
    metrics = to_reference(layer_metrics(spans, passes, traced, untraced, children, stdout_bytes),
                           calibrate.scale(host))
    return metrics, loops, spans, passes


def layer_metrics(spans, passes: int, traced: Loop, untraced: Loop, children, stdout_bytes: int) -> dict:
    """Per-layer counts and self times per pass of the corpus, and the tracing overhead."""
    c = spans.counts

    def per_pass(value):
        return value / passes

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lp_calls = c["lp.feasible_nonneg.calls"] + c["lp.equality_feasible_nonneg.calls"]
    classify_calls = sum(
        c[f"classify.{f}.calls"]
        for f in ("is_semipositive", "has_nonneg_left_inverse", "is_minimally_semipositive",
                  "msp_by_deletion", "is_inverse_nonnegative", "classify_all")
    )
    m = {}
    for fn in ("parse", "det", "rank", "inverse", "kernel_vector", "matmul"):
        m[f"ratmat.{fn}.calls"] = per_pass(c[f"ratmat.{fn}.calls"])
        m[f"ratmat.{fn}.self_s"] = per_pass(spans.self_time(f"ratmat.{fn}"))
    m["ratmat.self_s"] = per_pass(spans.self_time("ratmat"))
    m["ratmat.max_bits"] = spans.max_bits
    for fn in ("feasible_nonneg", "equality_feasible_nonneg"):
        m[f"lp.{fn}.calls"] = per_pass(c[f"lp.{fn}.calls"])
    m["lp.self_s"] = per_pass(spans.self_time("lp"))
    m["lp.feasible_frac"] = ratio(c["lp.feasible"], lp_calls)
    m["lp.duplicate_frac"] = ratio(
        c["lp.feasible_nonneg.duplicates"] + c["lp.equality_feasible_nonneg.duplicates"], lp_calls
    )
    for fn in ("is_semipositive", "has_nonneg_left_inverse", "is_minimally_semipositive", "msp_by_deletion"):
        m[f"classify.{fn}.calls"] = per_pass(c[f"classify.{fn}.calls"])
    m["classify.self_s"] = per_pass(spans.self_time("classify"))
    m["classify.duplicate_frac"] = ratio(c["classify.duplicates"], classify_calls)
    for fn in ("build_np", "build_pos", "build_rect", "mixed_sign_vector"):
        m[f"construct.{fn}.calls"] = per_pass(c[f"construct.{fn}.calls"])
    m["construct.self_s"] = per_pass(spans.self_time("construct"))
    for fn in ("verdict", "falsify", "verify"):
        m[f"preserver.{fn}.calls"] = per_pass(c[f"preserver.{fn}.calls"])
    m["preserver.verify.duplicate_frac"] = ratio(c["preserver.verify.duplicates"], c["preserver.verify.calls"])
    m["preserver.self_s"] = per_pass(spans.self_time("preserver"))
    m["genfuzz.msp_mixture.draws"] = per_pass(c["genfuzz.msp_mixture.draws"])
    m["genfuzz.self_s"] = per_pass(spans.self_time("genfuzz"))
    m["cli.run.self_s"] = per_pass(spans.self_time("cli.run"))
    m["cli.stdout_bytes"] = per_pass(stdout_bytes)
    if children:
        walls = children.latencies()
        m["cli.call_ms"] = statistics.mean(walls) * 1e3
        m["cli.startup_ms"] = statistics.mean(w - u for w, u in zip(walls, untraced.latencies())) * 1e3
    else:
        m["cli.call_ms"] = m["cli.startup_ms"] = 0.0
    m["op.self_s"] = per_pass(spans.self_time("op"))
    fast = latency_metrics(untraced.latencies())["ops_per_s"]
    slow = latency_metrics(traced.latencies())["ops_per_s"]
    m["trace.op_s"] = sum(traced.latencies())
    m["trace.untraced_ops_per_s"] = fast
    m["trace.ops_per_s"] = slow
    m["trace.overhead_ops_per_s"] = fast - slow
    return m


def to_reference(metrics: dict, factor: float) -> dict:
    """Times and rates of this run converted to the reference host speed."""
    per = {"s": factor, "ms": factor, "1/s": 1 / factor}
    return {name: value * per.get(unit(name), 1) for name, value in metrics.items()}


def unit(name: str) -> str:
    for suffix, u in ((".calls", "count"), ("_frac", "ratio"), ("self_s", "s"), (".op_s", "s"),
                      ("_ms", "ms"), ("ops_per_s", "1/s"), (".max_bits", "bits"), (".draws", "count"),
                      (".stdout_bytes", "bytes"), ("setup_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    raise KeyError(name)


def _pin_to_one_cpu() -> int:
    """Run this process and its children on the last CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = len(os.sched_getaffinity(0))
    cpu = _pin_to_one_cpu()
    _import_package()
    os.chdir(ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed, args.max_dim)
        return 0

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": _commit(),
    }
    probes = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    ops = setup(workload, args.seed, args.max_dim)
    record["corpus_ops"] = len(ops)
    record["corpus_sha256"] = workloads.digest(ops)

    if args.trace:
        metrics, loops, spans, passes = run_traced(workload, ops, args.seconds)
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl.gz"
        spans.write(spans_path)
        record["passes"] = passes
        record["spans"] = str(spans_path.relative_to(ROOT))
        shares = ", ".join(
            f"{layer} {metrics[layer + '.self_s'] / metrics['trace.op_s']:.3f}"
            for layer in ("ratmat", "lp", "classify", "construct", "preserver", "genfuzz", "cli.run", "op")
        )
        lines = [
            f"passes {passes}, spans {len(spans.spans)} written to {record['spans']}",
            f"self-time share of traced op time: {shares}",
            f"tracing overhead {metrics['trace.overhead_ops_per_s']:.4g} ops/s, "
            f"{metrics['trace.overhead_ops_per_s'] / metrics['trace.untraced_ops_per_s']:.1%} of untraced",
        ]
        if workload.needs_workdir:
            lines.append(f"cli startup share of call wall time: {metrics['cli.startup_ms'] / metrics['cli.call_ms']:.3f}")
    else:
        loop, wall, host = run_untraced(workload, ops, args.seconds)
        loops = [loop]
        factor = calibrate.scale(host)
        lat = latency_metrics(loop.latencies())
        rss_kb = loop.child_rss_kb if workload.needs_workdir else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timings = {k: lat[k] for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")}
        metrics = {
            "setup_s": statistics.median(seconds * scale for seconds, scale in probes),
            **to_reference(timings, factor),
            "peak_rss_mb": rss_kb / 1024,
        }
        unscaled = {"setup_s": statistics.median(seconds for seconds, _ in probes), **timings}
        record["setup_probes"] = [{"s": seconds, "host_scale": scale} for seconds, scale in probes]
        record["loop_wall_s"] = wall
        record["host_scale"] = factor
        record["host_samples"] = len(host)
        record["unscaled"] = unscaled
        record["samples_ms_by_op"] = {op.label: [t * 1e3 for t in s] for op, s in zip(ops, loop.samples)}
        lines = [
            f"latency_tail_ms is p{lat['tail_percentile']:.1f}: {lat['tail_beyond']} of "
            f"{lat['samples']} per-op latencies lie beyond it",
            f"loop: {loop.attempted} ops in {wall:.3f} s wall",
            f"host scale {factor:.4f} from {len(host)} samples (mean sample "
            f"{calibrate.REFERENCE_S / factor * 1e3:.4f} ms, reference {calibrate.REFERENCE_S * 1e3:g} ms)",
            "unscaled: " + ", ".join(f"{k} {v:.6g} {unit(k)}" for k, v in unscaled.items()),
        ]

    attempted = sum(each.attempted for each in loops)
    failures = [f for each in loops for f in each.failures]
    lines.append(f"ops_failed_frac {len(failures) / attempted} ratio ({len(failures)} of {attempted})")
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20], metrics=metrics)
    (OUT / f"run-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for key in ("workload", "seed", "python", "nproc", "pinned_cpu", "loadavg", "commit", "corpus_ops", "corpus_sha256"):
        print(f"{key} {record[key]}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
