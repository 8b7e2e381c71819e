import hashlib
import json
import os
import subprocess
import sys

import pytest

from semipos import cli, preserver
from semipos.ratmat import MAX_FILE_BYTES, Matrix, Vector, parse_rational


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_build_np_worked_example(capsys):
    code, out, _ = run_cli(capsys, "build", "np", "--v", "1 0 -5 -1", "--w", "3 2 -10 0")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["matrix"] == [
        ["3", "0", "0", "0"],
        ["2", "1", "0", "0"],
        ["0", "0", "1", "5"],
        ["1", "0", "0", "1"],
    ]
    assert report["result"]["trace"]["step1"] == "a"
    assert report["result"]["trace"]["step2"] == ["c", "e"]
    assert report["result"]["trace"]["step3"] == "e"


def test_build_pos_and_rect(capsys):
    code, out, _ = run_cli(capsys, "build", "pos", "--v", "1 1", "--w", "1 1")
    assert code == 0
    assert json.loads(out)["result"]["matrix"] == [["1", "0"], ["1/2", "1/2"]]
    code, out, _ = run_cli(capsys, "build", "rect", "--v", "1 -1 0", "--w", "5")
    assert code == 0
    assert json.loads(out)["result"]["rank"] == 1


def test_build_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "build", "np", "--v", "1 1", "--w", "1 0")
    assert code == 64
    assert "positive and negative" in err


def test_classify_identity(capsys, tmp_path):
    path = write(tmp_path, "id3.mat", "1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    verdicts = json.loads(out)["result"]["verdicts"]
    for key in [
        "semipositive",
        "minimally_semipositive",
        "monomial",
        "row_positive",
        "inverse_nonnegative",
    ]:
        assert verdicts[key] is True


def test_classify_reports_exact_witness(capsys, tmp_path):
    path = write(tmp_path, "b.mat", "3 0 0 0\n2 1 0 0\n0 0 1 5\n1 0 0 1\n")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    witness = report["result"]["witnesses"]["semipositivity_vector"]
    assert witness is not None
    parsed = Vector([parse_rational(tok) for tok in witness])
    b = Matrix([[3, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 5], [1, 0, 0, 1]])
    assert parsed.is_positive() and (b @ parsed).is_positive()
    assert [str(q) for q in parsed.entries] == witness  # exact round-trip


def test_witness_subcommand(capsys, tmp_path):
    good = write(tmp_path, "good.mat", "1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "witness", "sp", good)
    assert code == 0 and json.loads(out)["result"]["semipositive"] is True
    bad = write(tmp_path, "bad.mat", "-1 0\n0 -1\n")
    code, out, _ = run_cli(capsys, "witness", "sp", bad)
    assert code == 1 and json.loads(out)["result"]["witness"] is None


def test_key1_subcommand(capsys, tmp_path):
    path = write(tmp_path, "x.mat", "1 0 0\n0 -1 0\n1 1 1\n")
    code, out, _ = run_cli(capsys, "key1", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vector"] == ["0", "-1", "1"]
    assert result["path"] == "column-u"


def test_preserver_exit_codes(capsys, tmp_path):
    x3 = write(tmp_path, "x3.mat", "1 0 0\n0 -1 0\n1 1 1\n")
    id3 = write(tmp_path, "id3.mat", "1 0 0\n0 1 0\n0 0 1\n")
    id2 = write(tmp_path, "id2.mat", "1 0\n0 1\n")
    swap = write(tmp_path, "swap.mat", "0 1\n1 0\n")
    ones = write(tmp_path, "ones.mat", "1 1\n1 1\n")
    m = write(tmp_path, "m.mat", "2 -1\n-1 2\n")
    # not a preserver ([[1,0],[10,0],[0,1]] maps to a zero row), but the tall search misses
    near = write(tmp_path, "near.mat", "1 -1/10 0\n0 1 0\n0 0 1\n")
    y1 = write(tmp_path, "y1.mat", "1\n")
    for kind, x, y, code, reason in (
        ("into-sp", x3, id3, 1, "falsified"),
        ("into-sp", id3, id3, 0, "x-row-positive-y-inverse-nonnegative"),
        ("onto-sp", swap, id2, 0, "monomial-pair"),
        ("onto-sp", ones, id2, 1, "x-singular"),
        ("into-msp", id2, id3, 0, "class-empty-on-wide-space"),
        ("into-msp", near, id2, 2, "outside-decided-regime"),
        ("onto-msp", swap, id2, 0, "monomial-pair"),
        ("onto-msp", m, id2, 1, "inverse-not-into"),
        ("onto-msp", id2, id3, 0, "class-empty-on-wide-space"),
        # on a single column, onto-msp is the onto-sp question
        ("onto-msp", swap, y1, 0, "monomial-pair"),
        ("onto-msp", ones, y1, 1, "x-singular"),
        ("onto-msp", m, y1, 1, "falsified"),
    ):
        got, out, _ = run_cli(capsys, "preserver", kind, "--x", x, "--y", y)
        result = json.loads(out)["result"]
        assert (got, result["reason"]) == (code, reason), (kind, x, y)
        if code == 1:
            assert result["status"] == "no" and result["certificate"]["verified"] is True
        else:
            assert result["certificate"] is None
    code, out, err = run_cli(capsys, "preserver", "onto-msp", "--x", id3, "--y", id2)
    assert code == 64 and out == "" and "not decided for rows > cols" in err


def test_preserver_into_msp_column(capsys, tmp_path):
    ones = write(tmp_path, "ones.mat", "1 1\n1 1\n")
    y1 = write(tmp_path, "y1.mat", "1\n")
    code, out, _ = run_cli(capsys, "preserver", "into-msp", "--x", ones, "--y", y1)
    assert code == 0
    assert json.loads(out)["result"]["reason"] == "x-row-positive-y-inverse-nonnegative"


def test_falsify_subcommand(capsys, tmp_path):
    id2 = write(tmp_path, "id2.mat", "1 0\n0 1\n")
    lower = write(tmp_path, "lower.mat", "1 0\n1 1\n")
    code, out, _ = run_cli(capsys, "falsify", "into-msp", "--x", id2, "--y", lower)
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verified"] is True and cert["note"] == "y-not-inverse-nonnegative"
    code, _, err = run_cli(capsys, "falsify", "into-msp", "--x", id2, "--y", id2)
    assert code == 64 and "nothing to falsify" in err
    mixed = write(tmp_path, "mixed.mat", "1 -1\n1 1\n")
    code, out, _ = run_cli(capsys, "falsify", "into-sp", "--x", mixed, "--y", id2)
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verified"] is True and cert["note"] == "mixed-row"


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


def test_basis_subcommand(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"] == {"m": 2, "n": 2}
    assert report["result"]["count"] == 4 and len(report["result"]["matrices"]) == 4


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
    x, a = Matrix([[1, 1], [0, 0]]), Matrix([[1, 1], [1, 1]])
    cert = preserver.FalsifyCertificate(
        "image-leaves-class", preserver.CLASS_SP, x, Matrix.identity(2), a, witness=Vector([1, 0])
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
    id2 = write(tmp_path, "id2.mat", "1 0\n0 1\n")
    lower = write(tmp_path, "lower.mat", "1 0\n1 1\n")
    key = write(tmp_path, "key.mat", "1 0 0\n0 -1 0\n1 1 1\n")
    # a 3x3 X on a 2x2 Y fails the tall pair condition, so into-msp searches
    near = write(tmp_path, "near.mat", "1 -1/10 0\n0 1 0\n0 0 1\n")
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
        # ratmat, lp, classify and construct are written without dataclasses;
        # preserver and genfuzz still use it
        if loaded <= deciders | builders:
            assert not dataclasses_loaded, argv
