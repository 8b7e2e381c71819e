import hashlib
import json
import os
import subprocess
import sys

import pytest

from examples import I2, LOWER, MATRICES, NEAR_IDENTITY, ONES_2, SIGNED_X, SP, ZERO_ROW
from semipos import classify, cli, preserver
from semipos.ratmat import MAX_FILE_BYTES, Vector, parse_rational
from test_preserver import EXAMPLES


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_build_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "build", "np", "--v", "1 1", "--w", "1 0")
    assert code == 64
    assert "positive and negative" in err


def test_classify_identity(capsys, tmp_path):
    """Every row of ``examples.MATRICES`` through ``semipos classify``: exit 0,
    the row's verdicts, its nonnegative inverse and left inverse exactly, and
    for a semipositive A a positive witness x with A x > 0 that round-trips
    exactly through its text."""
    for i, row in enumerate(MATRICES):
        code, out, _ = run_cli(capsys, "classify", write(tmp_path, f"a{i}.mat", str(row.a)))
        result = json.loads(out)["result"]
        assert (code, result["shape"], result["verdicts"]) == (0, list(row.a.shape), row.verdicts()), row.label
        witnesses = result["witnesses"]
        inverse = row.left_inverse if row.a.is_square else None
        assert witnesses["inverse"] == cli._strings(inverse), row.label
        assert witnesses["left_inverse"] == cli._strings(row.left_inverse), row.label
        witness = witnesses["semipositivity_vector"]
        assert (witness is not None) == (SP in row.holds), row.label
        if witness is not None:
            parsed = Vector([parse_rational(tok) for tok in witness])
            assert parsed.is_positive() and classify.is_sp_witness(row.a, parsed), row.label
            assert parsed.to_strings() == witness, row.label


def test_preserver_exit_codes(capsys, tmp_path):
    """Every row of ``test_preserver.EXAMPLES`` through ``semipos preserver``:
    exit 0, 1 or 2 for yes, no or unknown, the row's reason, and its
    certificate's note, verified; an undecided onto question exits 64."""
    exits = {"yes": 0, "no": 1, "unknown": 2}
    for i, (kind, x, y, status, reason, note) in enumerate(EXAMPLES):
        x_path, y_path = write(tmp_path, f"x{i}.mat", str(x)), write(tmp_path, f"y{i}.mat", str(y))
        code, out, _ = run_cli(capsys, "preserver", kind, "--x", x_path, "--y", y_path)
        result = json.loads(out)["result"]
        assert (code, result["status"], result["reason"]) == (exits[status], status, reason), (kind, x, y)
        cert = result["certificate"]
        if note is None:
            assert cert is None, (kind, x, y)
        else:
            assert (cert["note"], cert["verified"]) == (note, True), (kind, x, y)
    id3 = write(tmp_path, "id3.mat", "1 0 0\n0 1 0\n0 0 1\n")
    id2 = write(tmp_path, "id2.mat", "1 0\n0 1\n")
    code, out, err = run_cli(capsys, "preserver", "onto-msp", "--x", id3, "--y", id2)
    assert code == 64 and out == "" and "not decided for rows > cols" in err


def test_fuzz_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "build-np", "--seed", "3", "--trials", "20")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["trials"] == 20 and result["failures"] == 0 and result["passed"]



def test_fuzz_reports_a_raising_trial_as_a_failure(capsys, monkeypatch):
    from semipos import lp

    def offline(a, b):
        raise ArithmeticError("simplex offline")

    # lp-oracle trials 0 and 1 are inequality systems, trial 2 an equality system
    monkeypatch.setattr(lp, "feasible_nonneg", offline)
    monkeypatch.setattr(lp, "equality_feasible_nonneg", offline)
    code, out, _ = run_cli(capsys, "fuzz", "lp-oracle", "--trials", "3")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["failures"] == 3 and not result["passed"]
    assert result["notes"] == [
        f"trial {t}: ArithmeticError: simplex offline" for t in range(3)
    ]


def test_pretty_fuzz_notes_are_a_list_not_a_tuple_repr(capsys, monkeypatch):
    from semipos import lp

    code, out, _ = run_cli(capsys, "fuzz", "lp-oracle", "--seed", "1", "--trials", "3", "--pretty")
    assert code == 0
    assert "  notes: []\n" in out and "()" not in out

    def offline(a, b):
        raise ArithmeticError("simplex offline")

    monkeypatch.setattr(lp, "feasible_nonneg", offline)
    monkeypatch.setattr(lp, "equality_feasible_nonneg", offline)
    code, out, _ = run_cli(capsys, "fuzz", "lp-oracle", "--trials", "2", "--pretty")
    assert code == 1
    assert (
        "  notes:\n"
        "    - trial 0: ArithmeticError: simplex offline\n"
        "    - trial 1: ArithmeticError: simplex offline\n"
    ) in out and "('" not in out

def test_non_positive_trial_counts_are_input_errors(capsys):
    for argv in (
        ("fuzz", "build-np", "--trials", "-3"),
        ("fuzz", "build-np", "--trials", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == "", argv
        assert "must be at least 1" in err, argv


def test_basis_12x12_spans(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "12", "--n", "12")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 144 and len(result["matrices"]) == 144
    assert all(len(a) == 12 and len(a[0]) == 12 for a in result["matrices"])


def test_malformed_command_line_is_an_input_error(capsys, tmp_path):
    x = write(tmp_path, "x.mat", "1 0\n0 1\n")
    for argv in (
        ("preserver", "into-sp", "--x", x),
        ("fuzz", "lp-oracle", "--trials", "abc"),
        ("basis", "--m", "2"),
        ("basis", "--m", "2", "--n", "2", "--seed", "1"),
        ("basis", "--m", "2", "--n", "2", "--max-trials", "5"),
        ("preserver", "into-sp", "--x", x, "--y", x, "--m", "7"),
        ("preserver", "into-msp", "--x", x, "--y", x, "--m", "2", "--n", "2"),
        ("preserver", "into-msp", "--x", x, "--y", x, "--trials", "5"),
        ("preserver", "into-msp", "--x", x, "--y", x, "--seed", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == "", argv
        assert "usage: semipos" in err, argv


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["preserver", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--pretty" in out and "--seed" not in out and "--trials" not in out


def test_unknown_campaign_is_a_usage_error(capsys):
    from semipos import genfuzz

    code, out, err = run_cli(capsys, "fuzz", "no-such-campaign")
    assert code == 64 and out == ""
    assert "usage: semipos" in err and "'no-such-campaign'" in err
    for name in genfuzz.CAMPAIGNS:
        assert repr(name) in err, name
    with pytest.raises(SystemExit) as exc:
        cli.run(["fuzz", "--help"])
    assert exc.value.code == 0
    assert "campaign" in capsys.readouterr().out


def test_basis_needs_tall_nonempty_shape(capsys):
    for m, n in (("2", "0"), ("-1", "1"), ("17", "16")):
        code, out, err = run_cli(capsys, "basis", "--m", m, "--n", n)
        assert code == 64 and out == "", (m, n)
        assert "need m >= n >= 1 and m*n <= 256" in err


def test_out_of_grammar_entries_are_input_errors(capsys, tmp_path):
    for token in ("1e1000000", "1_0", "\u0663"):
        path = write(tmp_path, "odd.mat", f"1 0\n0 {token}\n")
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 64 and out == "", token
        assert "odd.mat, line 2" in err and "ASCII digits" in err, token
    code, _, err = run_cli(capsys, "build", "pos", "--v", "1 1e2", "--w", "1 1")
    assert code == 64 and "--v" in err
    for token in ("1/0", "0/0", "-3/00"):
        path = write(tmp_path, "zero.mat", f"1 {token}\n")
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 64 and out == "", token
        assert f"zero.mat, line 1: bad rational '{token}': zero denominator" in err, token
        assert "Fraction(" not in err, token


def test_oversized_input_is_an_input_error(capsys, tmp_path):
    wide = write(tmp_path, "wide.mat", "1\n" + " ".join(["1"] * 65) + "\n")
    code, out, err = run_cli(capsys, "classify", wide)
    assert code == 64 and out == ""
    assert "wide.mat, line 2" in err and "cap of 64" in err
    big = write(tmp_path, "big.mat", f"1 0\n0 {2**1024}\n")
    code, out, err = run_cli(capsys, "witness", "sp", big)
    assert code == 64 and out == ""
    assert "big.mat, line 2" in err and "1024 bits" in err
    code, _, err = run_cli(capsys, "build", "pos", "--v", " ".join(["1"] * 65), "--w", "1")
    assert code == 64 and "--v" in err and "cap of 64" in err
    # a comment pads the file to exactly the byte cap, which is read and parsed
    at_cap = tmp_path / "at_cap.mat"
    at_cap.write_bytes(b"1\n#" + b"x" * (MAX_FILE_BYTES - 3))
    code, out, _ = run_cli(capsys, "classify", str(at_cap))
    assert code == 0 and json.loads(out)["inputs"]["matrix"]["shape"] == [1, 1]
    over = tmp_path / "over.mat"
    over.write_bytes(at_cap.read_bytes() + b"x")
    for path in (str(over), "/dev/zero"):
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 64 and out == "", path
        assert f"{path}: longer than the cap of {MAX_FILE_BYTES} bytes" in err, path
    # the longest file within the entry caps, 64 rows of 64 entries -p/q of
    # 1024 bits each, is read; every row is nonpositive, so no LP runs
    p, q = 2**1024 - 1, 2**1024 - 3
    worst = tmp_path / "worst.mat"
    worst.write_text((" ".join([f"-{p}/{q}"] * 64) + "\n") * 64)
    assert worst.stat().st_size == 2_543_616
    code, out, _ = run_cli(capsys, "witness", "sp", str(worst))
    assert code == 1 and json.loads(out)["result"] == {"semipositive": False, "witness": None}


def test_closed_stdout_exits_without_traceback():
    # a pipe whose reader is gone, like "semipos ... | head" after head exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "semipos", "build", "np", "--v", "1 -1", "--w", "1 0"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_malformed_matrix_names_line(capsys, tmp_path):
    path = write(tmp_path, "broken.mat", "1 2\n3 x\n")
    code, _, err = run_cli(capsys, "classify", path)
    assert code == 64
    assert "line 2" in err and "broken.mat" in err
    # a file of comments and blank lines holds no matrix
    path = write(tmp_path, "empty.mat", "# no rows here\n\n   \n# nor here\n")
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 64 and out == ""
    assert "empty.mat: no matrix rows found" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "does-not-exist.mat")
    assert code == 64 and "does-not-exist.mat" in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin.mat"
    path.write_bytes(b"\xff\xfe1 2\n")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 64 and out == ""
    assert "latin.mat" in err and "UTF-8" in err


def test_digest_is_of_the_file_bytes(capsys, tmp_path):
    reports = {}
    for name, text in (("lf.mat", b"1 0\n0 1\n"), ("crlf.mat", b"1 0\r\n0 1\r\n")):
        path = tmp_path / name
        path.write_bytes(text)
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        reports[name] = json.loads(out)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert reports[name]["inputs"]["matrix"]["sha256"] == digest
    assert reports["lf.mat"]["result"] == reports["crlf.mat"]["result"]
    assert reports["lf.mat"]["inputs"]["matrix"]["sha256"] != reports["crlf.mat"]["inputs"]["matrix"]["sha256"]


def test_dimension_mismatch_is_input_error(capsys, tmp_path):
    rect = write(tmp_path, "rect.mat", "1 0 0\n0 1 0\n")
    id3 = write(tmp_path, "id3.mat", "1 0 0\n0 1 0\n0 0 1\n")
    code, _, err = run_cli(capsys, "preserver", "into-sp", "--x", rect, "--y", id3)
    assert code == 64 and "square" in err


def test_pretty_mode(capsys, tmp_path):
    path = write(tmp_path, "id2.mat", "1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "classify", path, "--pretty")
    assert code == 0
    assert "semipositive: true" in out
    # a null prints as "none"
    code, out, _ = run_cli(capsys, "preserver", "into-sp", "--x", path, "--y", path, "--pretty")
    assert code == 0
    assert "\n  certificate: none\n" in out
    path = write(tmp_path, "row.mat", "1 2 3\n")
    code, out, _ = run_cli(capsys, "classify", path, "--pretty")
    assert code == 0
    assert "\n    monomial: none\n" in out


def test_pretty_mode_renders_a_list_of_matrices_as_blocks(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--n", "1", "--pretty")
    assert code == 0
    assert "  matrices:\n    - [ 2 ]\n      [ 1 ]\n    - [ 1 ]\n      [ 2 ]\n" in out
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--n", "2", "--pretty")
    assert code == 0
    assert "    - [ 1  -1 ]\n      [ 0   1 ]\n" in out and "'" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "semipos", "build", "np", "--v", "1 -1", "--w", "1 0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["matrix"] == [["1", "0"], ["1", "1"]]


def test_certificate_dict_verifies_a_certificate_before_reading_its_image():
    """A hand-built certificate without an image reports X A Y: the dict
    verifies first, and verify() stores the image; the keys keep their order."""
    cert = preserver.FalsifyCertificate(
        "image-leaves-class", preserver.CLASS_SP, ZERO_ROW, I2, ONES_2, witness=Vector([1, 0])
    )
    assert cert.image is None and not cert.verified
    report = cli._certificate_dict(cert)
    assert list(report) == [
        "kind", "class", "x", "y", "a", "image", "probe", "probe_image", "note", "verified"
    ]
    assert report["image"] == [["2", "2"], ["0", "0"]] and report["verified"] is True


# One cli.run in a fresh interpreter; prints its exit code, the sorted
# semipos.* modules loaded by then, and whether dataclasses was loaded.
_LOADED_MODULES = """
import contextlib, io, json, sys
from semipos import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
semipos = sorted(m for m in sys.modules if m.startswith("semipos."))
print(json.dumps([code, semipos, "dataclasses" in sys.modules]))
"""


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    id2 = write(tmp_path, "id2.mat", str(I2))
    lower = write(tmp_path, "lower.mat", str(LOWER))
    key = write(tmp_path, "key.mat", str(SIGNED_X))
    # a 3x3 X on a 2x2 Y fails the tall pair condition, so into-msp searches
    near = write(tmp_path, "near.mat", str(NEAR_IDENTITY))
    base = {"semipos.cli", "semipos.ratmat"}
    deciders = base | {"semipos.lp", "semipos.classify"}
    builders = base | {"semipos.construct"}
    # a square verdict checks its evidence by products and never runs an LP
    verdicts = base | {"semipos.classify", "semipos.construct", "semipos.preserver"}
    campaigns = deciders | {"semipos.construct", "semipos.genfuzz"}
    for argv, code, loaded in (
        (("classify", id2), 0, deciders),
        (("witness", "sp", id2), 0, deciders),
        (("build", "np", "--v", "1 -1", "--w", "1 1"), 0, builders),
        (("key1", key), 0, builders),
        (("preserver", "into-sp", "--x", id2, "--y", id2), 0, verdicts),
        (("falsify", "into-msp", "--x", id2, "--y", lower), 0, verdicts),
        (("fuzz", "build-np", "--trials", "2"), 0, campaigns),
        (("basis", "--m", "2", "--n", "2"), 0, campaigns),
        (("preserver", "into-msp", "--x", near, "--y", id2), 2, verdicts | {"semipos.genfuzz", "semipos.lp"}),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        got_code, got_loaded, dataclasses_loaded = json.loads(proc.stdout)
        assert [got_code, got_loaded] == [code, sorted(loaded)], argv
        # only preserver is written with dataclasses
        assert dataclasses_loaded == ("semipos.preserver" in loaded), argv
