"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import run

run._import_package()

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from semipos import classify, cli, construct, genfuzz, preserver, ratmat  # noqa: E402
from semipos.ratmat import Matrix, Vector  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _emitted(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    metrics = _emitted(_bench("--workload", "preserver-verdicts", "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--max-dim", "2"))
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_emitted_with_its_unit():
    metrics = _emitted(_bench("--workload", "cli-reports", "--seed", "3", "--seconds", "0",
                              "--trace", "1", "--max-dim", "2"))
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["cli.startup_ms"]["value"] > 0 and metrics["ratmat.parse.calls"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_corpus_runs_without_failures():
    workload = workloads.WORKLOADS["preserver-verdicts"]
    ops = workload.corpus(5, max_dim=6)
    loop, _, host = run.run_untraced(workload, ops, 0)
    assert loop.failures == [] and loop.attempted == len(ops) == len(host)
    assert {op.planted for op in ops} == {"yes", "no"}


def test_corpus_depends_only_on_seed():
    a = workloads.digest(workloads.preserver_corpus(7, max_dim=5))
    assert a == workloads.digest(workloads.preserver_corpus(7, max_dim=5))
    assert a != workloads.digest(workloads.preserver_corpus(8, max_dim=5))


def test_every_binding_is_wrapped_during_an_op_only():
    spans = tracer.Tracer()
    originals = {id(owner.__dict__[attr]) for owner, attr, _ in tracer.TRACED}
    named = [(preserver, "build_np"), (preserver, "mixed_sign_vector"), (cli, "parse_matrix_text"),
             (ratmat.Matrix, "__matmul__"), (preserver.FalsifyCertificate, "verify")]

    def inside():
        for owner, attr in named:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        for module in [m for k, m in sys.modules.items() if k.startswith("semipos")]:
            for alias, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{alias} left unwrapped"

    spans.run(0, "test", inside)
    for owner, attr in named:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert {"semipos.preserver.build_np", "semipos.cli.parse_matrix_text"} <= set(spans.bound_names())


def test_spans_nest_and_self_time_excludes_children():
    spans = tracer.Tracer()
    a = genfuzz.gen_msp(4, 4, genfuzz.GenConfig(1), 0)
    spans.run(0, "classify_all", classify.classify_all, a)
    by_id = {s[0]: s for s in spans.spans}
    roots = [s for s in spans.spans if s[1] is None]
    assert [r[3] for r in roots] == ["op.classify_all"]
    for span_id, parent, op_id, name, start, end, self_s in spans.spans:
        assert op_id == 0 and 0 <= self_s <= end - start
        if parent is not None:
            p = by_id[parent]
            assert p[4] <= start <= end <= p[5]
    assert spans.counts["lp.feasible_nonneg.calls"] >= 2
    assert spans.counts["lp.feasible_nonneg.duplicates"] >= 1


def test_calls_and_max_bits_repeat_exactly_for_one_seed():
    def counts():
        workload = workloads.WORKLOADS["preserver-verdicts"]
        metrics, loops, _, _ = run.run_traced(workload, workload.corpus(11, max_dim=6), 0)
        assert all(not loop.failures for loop in loops)
        return {k: v for k, v in metrics.items() if k.endswith((".calls", ".draws", ".max_bits", "_frac"))}

    first = counts()
    assert first == counts()
    assert first["genfuzz.msp_mixture.draws"] > 0 and first["lp.feasible_nonneg.calls"] > 0
    assert first["preserver.verify.calls"] > first["preserver.falsify.calls"]


def test_checker_rejects_a_corrupted_witness():
    a = genfuzz.gen_msp(3, 3, genfuzz.GenConfig(2), 0)
    rep = classify.classify_all(a)
    grid = checks.grid(a)
    x = checks.vec(rep.sp_witness)
    assert checks.sp_witness(grid, x) is None
    assert checks.sp_witness(grid, [-v for v in x])
    left = checks.grid(rep.left_inv)
    assert checks.left_inverse(grid, left) is None
    left[0][0] += 1
    assert checks.left_inverse(grid, left)


def test_checker_rejects_a_corrupted_certificate():
    cfg = genfuzz.GenConfig(4)
    x = Matrix([[1, -1, 0], [0, 2, 1], [1, 0, 1]])
    y = genfuzz.gen_inverse_nonneg(3, cfg, 0)
    verdict = preserver.into_sp_preserver(preserver.PreserverMap(x, y))
    assert checks.verdict(x, y, "no", verdict) is None
    assert checks.verdict(x, y, "yes", verdict)

    cert = verdict.certificate
    image = [list(r) for r in cert.image.entries]
    image[0][0] += Fraction(1, 7)
    wrong_image = dataclasses.replace(cert, image=Matrix(image))
    # a member swapped for a non-member, with its image recomputed, fails verify()
    outside = Matrix([[-1] * 3] * 3)
    wrong_member = dataclasses.replace(cert, a=outside, image=x @ outside @ y)
    for bad in (wrong_image, wrong_member):
        forged = types.SimpleNamespace(status=verdict.status, reason=verdict.reason, certificate=bad)
        assert checks.verdict(x, y, "no", forged)


def test_cli_checker_rejects_bad_reports():
    op = workloads.Op("cli", "t", ("falsify", "into-msp", "--x", "x.mat", "--y", "y.mat"), 0)
    report = {"result": {"certificate": {"verified": True}}}
    assert workloads.check_cli(op, workloads.CliResult(0, json.dumps(report), 0)) is None
    report["result"]["certificate"]["verified"] = False
    for bad in (workloads.CliResult(1, json.dumps(report), 0), workloads.CliResult(0, json.dumps(report), 0),
                workloads.CliResult(0, "Traceback (most recent call last):", 0)):
        assert workloads.check_cli(op, bad)


def test_checker_rejects_a_wrong_construction():
    v, w = Vector([1, -2, 3]), Vector([1, 1, 0])
    b, _ = construct.build_np(v, w)
    assert checks.image(checks.grid(b), checks.vec(v), checks.vec(w), 3) is None
    assert checks.image(checks.grid(b), checks.vec(v), [1, 1, 1], 3)
    x = checks.grid(genfuzz.gen_inverse_nonneg(3, genfuzz.GenConfig(1), 0))
    assert checks.mixed_sign(x, [1, 1, 1])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-reports", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_scale_converts_to_the_reference_speed():
    assert calibrate.DET == ratmat.Matrix(calibrate._A).det()
    assert calibrate.scale([2 * calibrate.REFERENCE_S] * 4) == pytest.approx(0.5)
    assert calibrate.samples_for(0.01) and all(t > 0 for t in calibrate.samples_for(0.01))
    scaled = run.to_reference({"setup_s": 2.0, "latency_p50_ms": 4.0, "ops_per_s": 8.0, "lp.feasible_nonneg.calls": 3.0,
                               "lp.feasible_frac": 0.5}, 0.5)
    assert scaled == {"setup_s": 1.0, "latency_p50_ms": 2.0, "ops_per_s": 16.0, "lp.feasible_nonneg.calls": 3.0,
                      "lp.feasible_frac": 0.5}
