"""End-to-end runs of the command line tool, in process."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import herzkit
import herzkit.verify
from herzkit.cli import MAX_COUNT, build_parser, main
from herzkit.core import ldexp, random_matrix, schatten_norm
from herzkit.io import MAX_DIM, matrix_from_obj, matrix_to_obj, save_matrix


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(str(path), np.array([[1, 2], [3, -4]], dtype=complex))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def scrub(obj):
    obj = dict(obj)
    obj.pop("elapsed_ms", None)
    return obj


def test_norm_multiplier_p2(capsys, matrix_file):
    code, rec = out_json(capsys, "norm", "multiplier",
                         "--input", matrix_file, "--p", "2")
    assert code == 0
    assert rec["payload"]["bracket"]["lower"] == 4.0
    assert rec["payload"]["bracket"]["upper"] == 4.0


def test_norm_herz_p2(capsys, matrix_file):
    code, rec = out_json(capsys, "norm", "herz",
                         "--input", matrix_file, "--p", "2")
    assert code == 0
    assert rec["payload"]["bracket"]["lower"] == pytest.approx(10.0, abs=1e-12)


def test_norm_schatten_inf(capsys, matrix_file):
    code, rec = out_json(capsys, "norm", "schatten",
                         "--input", matrix_file, "--p", "inf")
    assert code == 0
    want = np.linalg.svd(np.array([[1, 2], [3, -4]]), compute_uv=False)[0]
    assert rec["payload"]["value"] == pytest.approx(want, rel=1e-12)
    assert rec["parameters"]["p"] == "inf"


def test_stdout_is_one_json_document(capsys, matrix_file):
    code, out, err = run(capsys, "norm", "gamma2", "--input", matrix_file)
    assert code == 0
    json.loads(out)  # a single parseable document


def test_gamma2_record_feeds_check_cert(capsys, matrix_file, tmp_path):
    rec_path = tmp_path / "rec.json"
    code, _, _ = run(capsys, "norm", "gamma2", "--input", matrix_file,
                     "--out", str(rec_path))
    assert code == 0
    code2, rec2 = out_json(capsys, "check-cert", "--input", str(rec_path))
    assert code2 == 0
    assert rec2["payload"]["ok"] is True


def test_check_cert_digests_leave_out_the_timing_of_the_record_read(capsys, tmp_path):
    # two runs of one call differ only in elapsed_ms, so checking either
    # record gives the same input digest and record digest
    path = tmp_path / "g.json"
    save_matrix(str(path), random_matrix(4, "gaussian", seed=1))
    checks = []
    for k in (1, 2):
        rec_path = tmp_path / f"rec{k}.json"
        assert run(capsys, "norm", "gamma2", "--input", str(path), "--out", str(rec_path))[0] == 0
        checks.append(out_json(capsys, "check-cert", "--input", str(rec_path))[1])
    assert checks[0]["input_digest"] == checks[1]["input_digest"]
    assert checks[0]["digest"] == checks[1]["digest"]


def test_tampered_certificate_fails(capsys, matrix_file, tmp_path):
    rec_path = tmp_path / "rec.json"
    run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", str(rec_path))
    rec = json.loads(rec_path.read_text())
    rec["payload"]["certificate"]["t"] *= 0.5
    rec_path.write_text(json.dumps(rec))
    code, out, err = run(capsys, "check-cert", "--input", str(rec_path))
    assert code == 1
    assert json.loads(out)["payload"]["ok"] is False


@pytest.mark.parametrize("k", [600, 0, -20, -40, -600])
def test_lowered_t_fails_check_cert_at_every_scale(capsys, tmp_path, k):
    H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                 dtype=complex)
    path, rec_path = tmp_path / "h.json", tmp_path / "rec.json"
    save_matrix(str(path), np.ldexp(H.real, k))
    code, _, _ = run(capsys, "norm", "gamma2", "--input", str(path), "--out", str(rec_path))
    assert code == 0
    rec = json.loads(rec_path.read_text())
    assert out_json(capsys, "check-cert", "--input", str(rec_path))[0] == 0
    t = rec["payload"]["certificate"]["t"]
    for bad in (0.5 * t, 0.0):
        rec["payload"]["certificate"]["t"] = bad
        rec_path.write_text(json.dumps(rec))
        code, out, _ = run(capsys, "check-cert", "--input", str(rec_path))
        assert code == 1
        assert json.loads(out)["payload"]["ok"] is False


def shifted_record(capsys, matrix_file, tmp_path):
    """A gamma2 record whose certificate block is not PSD: P - t/2 I."""
    rec_path = tmp_path / "rec.json"
    run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", str(rec_path))
    rec = json.loads(rec_path.read_text())
    cert = rec["payload"]["certificate"]
    P = matrix_from_obj(cert["P"]) - 0.5 * cert["t"] * np.eye(2)
    cert["P"] = matrix_to_obj(P)
    rec_path.write_text(json.dumps(rec))
    return str(rec_path)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e999", "tight"])
def test_bad_tol_exits_two(capsys, matrix_file, tmp_path, tol):
    rec_path = shifted_record(capsys, matrix_file, tmp_path)
    code, rec = out_json(capsys, "check-cert", "--input", rec_path)
    assert code == 1 and rec["payload"]["ok"] is False
    for argv in (("check-cert", "--input", rec_path),
                 ("norm", "gamma2", "--input", matrix_file),
                 ("isometric", "--input", matrix_file, "--p", "4")):
        code, out, _ = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message == (f"argument --tol: invalid tolerance value: {tol!r}"
                           if tol == "tight" else
                           f"argument --tol: must be finite and nonnegative, got {tol!r}")


def test_tol_zero_is_not_the_default(capsys, matrix_file, tmp_path):
    for argv, default in ((("norm", "gamma2", "--input", matrix_file), 1e-6),
                          (("isometric", "--input", matrix_file, "--p", "4"), 1e-8),
                          (("check-cert", "--input",
                            shifted_record(capsys, matrix_file, tmp_path)), 1e-9)):
        assert out_json(capsys, *argv)[1]["parameters"]["tol"] == default
        assert out_json(capsys, *argv, "--tol", "0")[1]["parameters"]["tol"] == 0.0


@pytest.mark.parametrize("kind", ["multiplier", "cb-ladder"])
def test_tol_sets_converged_at_interior_p(capsys, tmp_path, kind):
    # the bracket is about 4% wide: converged at --tol 0.5, not at the default
    path = tmp_path / "g.json"
    save_matrix(str(path), random_matrix(6, ensemble="gaussian", seed=2))
    height = ("--n", "1") if kind == "cb-ladder" else ()
    argv = ("norm", kind, "--input", str(path), "--p", "3", *height, "--restarts", "2")
    for extra, tol in (((), 1e-6), (("--tol", "0.5"), 0.5)):
        code, rec = out_json(capsys, *argv, *extra)
        assert code == 0 and rec["parameters"]["tol"] == tol
        b = rec["payload"]["levels"][0] if kind == "cb-ladder" else rec["payload"]["bracket"]
        assert 0.01 < (b["upper"] - b["lower"]) / b["upper"] < 0.5
        assert b["converged"] is (tol == 0.5)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_exits_two_with_one_document(capsys, matrix_file, tmp_path, fmt):
    missing = tmp_path / "no" / "such" / "x.json"
    for target in (missing, tmp_path):  # a missing folder, and a folder
        code, out, err = run(capsys, "norm", "schatten", "--input", matrix_file,
                             "--p", "2", "--out", str(target), "--format", fmt)
        assert code == 2
        assert "Traceback" not in err
        doc = json.loads(out)  # exactly one document: the error
        assert doc["error"]["type"] == "InputError"
        assert doc["error"]["message"].startswith(f"cannot write --out {target}: ")
    assert not missing.parent.exists()


def test_malformed_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, out, err = run(capsys, "norm", "multiplier",
                         "--input", str(bad), "--p", "2")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_missing_p_for_schatten_exits_two(capsys, matrix_file):
    code, out, _ = run(capsys, "norm", "schatten", "--input", matrix_file)
    assert code == 2


def test_unknown_verb_exits_two(capsys):
    code, out, _ = run(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "check-cert --p", "check-cert --seed", "check-cert --restarts",
    "check-cert --n", "check-cert --trials", "decompose isometric --tol",
    "decompose isometric --n", "decompose isometric --trials", "isometric --n",
    "verify diagrams --tol", "verify diagrams --restarts", "norm multiplier --trials",
    "norm schatten --seed", "norm schatten --restarts", "norm schatten --n",
    "norm multiplier --n", "norm gamma2 --p", "norm gamma2 --seed",
    "norm gamma2 --restarts", "norm gamma2 --n", "norm herz --n", "norm herz --restarts",
    "decompose herz --restarts", "norm herz --seed", "decompose herz --seed",
    "decompose isometric --p", "decompose isometric --seed",
    "decompose isometric --restarts", "verify diagrams --p", "verify contractivity --p",
    "verify duality --p", "verify isometry --p",
    pytest.param("norm gamma2 --p two", id="norm gamma2 --p two"),
    # a bracket without a target width: the norm reads no --tol
    pytest.param("norm schatten --p 3 --tol 0.5", id="norm schatten --tol"),
    pytest.param("norm herz --p 3 --tol 0.5", id="norm herz --tol")])
def test_flags_a_verb_does_not_read_exit_two(capsys, matrix_file, argv):
    words = argv.split()
    if words[-1].startswith("--"):  # the flag alone: pass it the value 1
        words.append("1")
    *verb, flag, value = words
    inp = () if verb[0] == "verify" else ("--input", matrix_file)
    code, out, err = run(capsys, *verb, *inp, flag, value)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"] == {  # exactly one document: the error
        "type": "InputError", "message": f"unrecognized arguments: {flag} {value}"}


@pytest.mark.parametrize("argv", [
    ("norm", "multiplier", "--inp", "{m}", "--p", "3"),
    ("norm", "multiplier", "--input", "{m}", "--p", "3", "--res", "0"),
    ("isometric", "--input", "{m}", "--p", "3", "--t", "1e-8")])
def test_abbreviated_flags_exit_two(capsys, matrix_file, argv):
    code, out, err = run(capsys, *(a.format(m=matrix_file) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"]["type"] == "InputError"  # one document


@pytest.mark.parametrize("verb", ["norm", "verify", "decompose"])
def test_a_verb_without_its_kind_exits_two(capsys, verb):
    code, out, err = run(capsys, verb)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"]["type"] == "InputError"


# every command, run with the flags it needs, and the parameters its record lists
COMMAND_PARAMETERS = [
    (("norm", "schatten", "--p", "2"), {"kind", "p"}),
    (("norm", "multiplier", "--p", "2"), {"kind", "p", "seed", "tol", "restarts"}),
    (("norm", "cb-ladder", "--p", "2"), {"kind", "p", "seed", "tol", "restarts", "n"}),
    (("norm", "gamma2"), {"kind", "tol"}),
    (("norm", "herz", "--p", "2"), {"kind", "p"}),
    (("decompose", "herz", "--p", "2"), {"kind", "p"}),
    (("decompose", "isometric"), {"kind"}),
    (("isometric", "--p", "2"), {"p", "seed", "tol", "restarts", "trials"}),
    (("check-cert",), {"tol"}),
] + [(("verify", suite, "--n", "1", "--trials", "1"), {"suite", "seed", "n", "trials"})
     for suite in ("diagrams", "contractivity", "duality", "isometry")] + [
    (("verify", suite, "--n", "1", "--trials", "1"), {"suite", "seed", "n", "trials", "p"})
    for suite in ("algebra", "all")]


def input_args(capsys, argv, matrix_file, tmp_path):
    """The --input a command reads: none for verify, a stored 'norm gamma2'
    record for check-cert, else the matrix file."""
    if argv[0] == "verify":
        return ()
    if argv[0] == "check-cert":
        rec_path = str(tmp_path / "rec.json")
        assert run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", rec_path)[0] == 0
        return ("--input", rec_path)
    return ("--input", matrix_file)


def command_of(argv):
    return argv[:1] if argv[0] in ("isometric", "check-cert") else argv[:2]


def test_every_command_is_in_the_parameter_table():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = set()
    for verb, sub in verbs.choices.items():
        kinds = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
        commands |= {(verb, kind) for kind in kinds[0].choices} if kinds else {(verb,)}
    assert {command_of(argv) for argv, _ in COMMAND_PARAMETERS} == commands


@pytest.mark.parametrize("argv, keys", COMMAND_PARAMETERS,
                         ids=[" ".join(command_of(argv)) for argv, _ in COMMAND_PARAMETERS])
def test_parameters_list_the_kind_and_every_declared_flag(capsys, matrix_file, tmp_path,
                                                           argv, keys):
    inp = input_args(capsys, argv, matrix_file, tmp_path)
    code, rec = out_json(capsys, *argv, *inp)
    assert code == 0
    assert set(rec["parameters"]) == keys
    for key in keys & {"kind", "suite"}:
        assert rec["parameters"][key] == argv[1]


def test_restarts_are_recorded(capsys, tmp_path):
    path = tmp_path / "s.json"
    save_matrix(str(path), random_matrix(8, "sign", seed=1))
    recs = [out_json(capsys, "norm", "multiplier", "--input", str(path), "--p", "4",
                     "--restarts", restarts)[1] for restarts in ("0", "16")]
    assert [rec["parameters"]["restarts"] for rec in recs] == [0, 16]
    assert recs[0]["parameters"] != recs[1]["parameters"]
    assert recs[0]["digest"] != recs[1]["digest"]


@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_trials_below_one_exit_two(capsys, matrix_file, trials):
    for argv in (("verify", "all"),
                 ("isometric", "--input", matrix_file, "--p", "4")):
        code, rec = out_json(capsys, *argv, f"--trials={trials}")
        assert code == 2
        assert rec["error"]["message"] == (
            f"argument --trials: invalid trial_count value: {trials!r}" if trials == "two"
            else f"argument --trials: must be at least 1, got {trials!r}")


def test_isometric_runs_the_trials_asked_for(capsys, tmp_path):
    path = tmp_path / "iso.json"
    save_matrix(str(path), np.outer(np.exp(2j * np.pi * np.array([0.1, 0.4])),
                                    np.exp(2j * np.pi * np.array([0.2, 0.5]))))
    for argv, trials in (((), 16), (("--trials", "1"), 1)):
        code, rec = out_json(capsys, "isometric", "--input", str(path), "--p", "3", *argv)
        assert code == 0
        assert rec["payload"]["forward_check"]["trials"] == trials


def test_verify_diagrams(capsys):
    code, rec = out_json(capsys, "verify", "diagrams", "--n", "3")
    assert code == 0
    suite = rec["payload"]["suites"][0]
    assert suite["passed"] is True
    assert all(c["passed"] for c in suite["checks"])


def test_verify_diagrams_at_n_one_passes(capsys):
    # a 1 x 1 symbol has no off-diagonal entry, so the negative controls cannot apply
    code, rec = out_json(capsys, "verify", "diagrams", "--n", "1")
    assert code == 0
    controls = [c for c in rec["payload"]["suites"][0]["checks"]
                if c["name"].endswith("_negative_control")]
    assert len(controls) == 2
    assert all(c["passed"] and c["details"]["applicable"] is False for c in controls)


def test_decompose_herz_matrix_unit(capsys, tmp_path):
    path = tmp_path / "e.json"
    E = np.zeros((2, 2), dtype=complex)
    E[0, 0] = 1.0
    save_matrix(str(path), E)
    code, rec = out_json(capsys, "decompose", "herz",
                         "--input", str(path), "--p", "1")
    assert code == 0
    d = rec["payload"]["decomposition"]
    assert d["cost"] <= 1 + 1e-9
    assert len(d["terms"]) >= 1


def test_decompose_isometric_term_count(capsys, matrix_file):
    code, rec = out_json(capsys, "decompose", "isometric",
                         "--input", matrix_file)
    assert code == 0
    assert len(rec["payload"]["terms"]) == 4
    assert rec["payload"]["all_terms_isometric"] is True


def test_isometric_verdict_paths(capsys, tmp_path):
    iso = tmp_path / "iso.json"
    a = np.exp(2j * np.pi * np.array([0.1, 0.4, 0.7]))
    b = np.exp(2j * np.pi * np.array([0.2, 0.5, 0.9]))
    save_matrix(str(iso), np.outer(a, b))
    code, rec = out_json(capsys, "isometric", "--input", str(iso), "--p", "3")
    assert code == 0
    verdict = rec["payload"]["verdict"]
    assert verdict["is_isometric"] is True
    assert rec["payload"]["forward_check"]["passed"] is True
    # the factors decode from the record alone and reproduce the input
    fa, fb = matrix_from_obj(verdict["a"]), matrix_from_obj(verdict["b"])
    assert fa.shape == fb.shape == (1, 3)
    assert np.max(np.abs(np.outer(fa, fb) - np.outer(a, b))) \
        <= verdict["factor_deviation"]

    had = tmp_path / "had.json"
    H = np.array([[1, 1], [1, -1]], dtype=complex)
    save_matrix(str(had), H)
    code2, rec2 = out_json(capsys, "isometric", "--input", str(had), "--p", "4")
    assert code2 == 0
    assert rec2["payload"]["verdict"]["is_isometric"] is False
    assert rec2["payload"]["verdict"]["a"] is None
    witness = rec2["payload"]["witness"]
    assert witness["deviation"] >= 1e-3
    # the witness decodes from the record alone and reproduces its ratio
    W = matrix_from_obj(witness["witness"])
    ratio = schatten_norm(H * W, 4) / schatten_norm(W, 4)
    assert ratio == pytest.approx(witness["ratio"], rel=1e-12, abs=0)


def test_repeat_runs_identical_apart_from_timing(capsys, matrix_file):
    code1, rec1 = out_json(capsys, "norm", "herz", "--input", matrix_file, "--p", "1")
    code2, rec2 = out_json(capsys, "norm", "herz", "--input", matrix_file, "--p", "1")
    assert code1 == code2 == 0
    assert scrub(rec1) == scrub(rec2)


def test_main_reuses_one_parser(capsys, matrix_file, tmp_path, monkeypatch):
    rec_path = str(tmp_path / "rec.json")
    assert run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", rec_path)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [(("norm", "gamma2", "--input", matrix_file), 1e-6),
             (("isometric", "--input", matrix_file, "--p", "4"), 1e-8),
             (("check-cert", "--input", rec_path), 1e-9),
             (("norm", "herz", "--input", matrix_file, "--p", "1.5"), None),
             (("decompose", "herz", "--input", matrix_file, "--p", "3"), None),
             (("verify", "diagrams", "--n", "2", "--trials", "8", "--seed", "5"), None)]
    # each fails after it has parsed a value the next call must not see
    bad = [("isometric", "--input", matrix_file, "--p", "4", "--tol", "0.5", "--seed", "-1"),
           ("norm", "gamma2", "--input", matrix_file, "--tol", "0.25", "--bogus"),
           ("verify", "isometry", "--n", "5", "--trials", "2", "--n", "-2")]
    for k, (argv, tol) in enumerate(calls):
        code, first = out_json(capsys, *argv)
        assert code == 0
        code, error = out_json(capsys, *bad[k % len(bad)])
        assert code == 2 and "error" in error
        code, second = out_json(capsys, *argv)
        assert code == 0 and scrub(second) == scrub(first)
        if tol is not None:
            assert first["parameters"]["tol"] == tol
    assert built == []


def test_csv_out_file(capsys, matrix_file, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "norm", "multiplier", "--input", matrix_file,
                       "--p", "2", "--out", str(out_path), "--format", "csv")
    assert code == 0
    json.loads(out)  # stdout stays JSON regardless of --format
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["operation", "p", "lower", "upper", "slack", "passed"]
    assert rows[1][0] == "norm.multiplier"
    assert float(rows[1][2]) == 4.0


def csv_payload_rows(rec, rows):
    # the CSV rows a record flattens to, header first, checked against its payload
    assert rows[0] == ["operation", "p", "lower", "upper", "slack", "passed"]
    payload, op = rec["payload"], rec["operation"]
    p = str(payload.get("p", ""))
    if "levels" in payload:
        return [[f"{op}[m={m}]", p, str(b["lower"]), str(b["upper"]), str(b["width"]), ""]
                for m, b in enumerate(payload["levels"], start=1)]
    if "bracket" in payload:
        b = payload["bracket"]
        return [[op, p, str(b["lower"]), str(b["upper"]), str(b["width"]), ""]]
    if "suites" in payload:
        return [[f"{r['suite']}.{c['name']}", "", "", "", str(c["slack"]), str(c["passed"])]
                for r in payload["suites"] for c in r["checks"]]
    if "ok" in payload:
        return [[op, "", "", "", "", str(payload["ok"])]]
    if "verdict" in payload:
        return [[op, p, "", "", "", str(payload["verdict"]["is_isometric"])]]
    return [[op, p, "", "", "", ""]]


# a call of each payload shape that no other test writes as CSV, and its row count
CSV_CALLS = [(("norm", "cb-ladder", "--p", "3", "--n", "2"), 2),
             (("verify", "diagrams", "--n", "2", "--trials", "8"), 4),
             (("check-cert",), 1),
             (("isometric", "--p", "3"), 1),
             (("decompose", "herz", "--p", "1.5"), 1),
             (("decompose", "isometric"), 1)]


@pytest.mark.parametrize("argv, n_rows", CSV_CALLS,
                         ids=[" ".join(argv) for argv, _ in CSV_CALLS])
def test_csv_rows_of_every_payload_shape(capsys, matrix_file, tmp_path, argv, n_rows):
    inp = input_args(capsys, argv, matrix_file, tmp_path)
    out_path = tmp_path / "rows.csv"
    code, rec = out_json(capsys, *argv, *inp, "--out", str(out_path), "--format", "csv")
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + n_rows
    assert rows[1:] == csv_payload_rows(rec, rows)


def test_csv_without_out_exits_two(capsys, matrix_file):
    code, out, err = run(capsys, "norm", "schatten", "--input", matrix_file,
                         "--p", "2", "--format", "csv")
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"] == {"type": "InputError",
                                        "message": "--format csv needs --out"}


# a call of every norm kind, both decompose kinds, isometric, check-cert and
# one verify suite, and one call that ends in an error document
DOCUMENT_CALLS = [("norm", "schatten", "--p", "2"),
                  ("norm", "multiplier", "--p", "3", "--restarts", "2"),
                  ("norm", "cb-ladder", "--p", "3", "--n", "2", "--restarts", "2"),
                  ("norm", "gamma2"),
                  ("norm", "herz", "--p", "1.5"),
                  ("decompose", "herz", "--p", "1.5"),
                  ("decompose", "isometric"),
                  ("isometric", "--p", "3"),
                  ("check-cert",),
                  ("verify", "diagrams", "--n", "2", "--trials", "4"),
                  ("norm", "schatten", "--p", "0.5")]


@pytest.mark.parametrize("argv", DOCUMENT_CALLS, ids=[" ".join(a) for a in DOCUMENT_CALLS])
def test_each_document_is_one_line_with_sorted_keys(capsys, matrix_file, tmp_path,
                                                     monkeypatch, argv):
    inp = input_args(capsys, argv, matrix_file, tmp_path)
    records, make = [], herzkit.cli.report_record

    def keep(*args, **kwargs):
        records.append(make(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(herzkit.cli, "report_record", keep)
    out_path = tmp_path / "doc.json"
    code, out, _ = run(capsys, *argv, *inp, "--out", str(out_path))
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    if code == 2:  # the error document; no --out file is written
        assert "error" in json.loads(out) and not records and not out_path.exists()
        return
    assert out_path.read_bytes() == out.encode("utf-8")
    # the indented encoding of the same record carries the same values
    [record] = records
    indented = json.loads(json.dumps(record, indent=2, sort_keys=True, allow_nan=False))
    compact = json.loads(out)
    for key in ("parameters", "payload", "digest"):
        assert compact[key] == indented[key]


def test_verify_algebra_runs_at_the_p_it_is_given(capsys):
    code, rec = out_json(capsys, "verify", "algebra", "--p", "3", "--n", "2", "--trials", "1")
    assert code == 0
    assert rec["parameters"]["p"] == 3.0
    names = [c["name"] for c in rec["payload"]["suites"][0]["checks"]]
    assert [n for n in names if n.startswith("bracket_submultiplicative")] == [
        "bracket_submultiplicative_p_3"]


def test_check_cert_reads_a_certificate_object_with_its_matrix(capsys, matrix_file, tmp_path):
    rec_path, cert_path = tmp_path / "rec.json", tmp_path / "cert.json"
    assert run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", str(rec_path))[0] == 0
    payload = json.loads(rec_path.read_text())["payload"]
    cert_path.write_text(json.dumps({**payload["certificate"], "A": payload["matrix"]}))
    code, rec = out_json(capsys, "check-cert", "--input", str(cert_path))
    assert code == 0
    assert rec["payload"]["ok"] is True


def test_check_cert_on_a_symbol_that_is_not_square_fails_without_a_traceback(capsys, tmp_path):
    # a 2 x 3 symbol with 2 x 2 blocks: one failing document, exit 1
    I = matrix_to_obj(np.eye(2, dtype=complex))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"t": 1.0, "P": I, "Q": I, "min_eig": 0.0,
                                     "dual_witness": I,
                                     "A": matrix_to_obj(np.ones((2, 3), dtype=complex))}))
    code, out, err = run(capsys, "check-cert", "--input", str(cert_path))
    assert code == 1
    assert "Traceback" not in err
    assert out.count("\n") == 1
    payload = json.loads(out)["payload"]
    assert payload["ok"] is False
    assert payload["reasons"] == [
        "symbol: check_certificate requires a square matrix, got shape (2, 3)"]


def test_check_cert_on_a_record_without_a_certificate_exits_two(capsys, matrix_file, tmp_path):
    rec_path = tmp_path / "rec.json"
    assert run(capsys, "norm", "schatten", "--input", matrix_file, "--p", "2",
               "--out", str(rec_path))[0] == 0
    code, out, err = run(capsys, "check-cert", "--input", str(rec_path))
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"] == {
        "type": "InputError", "message": "report record lacks matrix or certificate payload"}
    # a bare matrix is neither a record nor a certificate object
    code, rec = out_json(capsys, "check-cert", "--input", matrix_file)
    assert code == 2
    assert rec["error"]["message"].startswith("certificate file must embed its matrix")


@pytest.mark.parametrize("p", ["two", "", "[1.5]", "nan", "0.5"])
def test_an_exponent_that_is_not_in_range_exits_two(capsys, matrix_file, p):
    code, out, err = run(capsys, "norm", "multiplier", "--input", matrix_file, "--p", p)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out)["error"]["type"] == "InputError"


@pytest.mark.parametrize("p, want", [("oo", "inf"), ("Infinity", "inf"), (" INF ", "inf"),
                                     ("3", 3.0), ("1e400", "inf")])
def test_exponent_spellings(capsys, matrix_file, p, want):
    code, rec = out_json(capsys, "norm", "schatten", "--input", matrix_file, "--p", p)
    assert code == 0
    assert rec["payload"]["p"] == rec["parameters"]["p"] == want


def test_a_failing_verify_check_exits_one_with_one_document(capsys, monkeypatch):
    real = herzkit.verify.verify_product_diagram

    def failing(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.passed = False
        return rep

    monkeypatch.setattr(herzkit.verify, "verify_product_diagram", failing)
    code, out, err = run(capsys, "verify", "diagrams", "--n", "2", "--trials", "8")
    assert code == 1
    assert "Traceback" not in err
    rec = json.loads(out)  # exactly one document: the record
    assert rec["payload"]["passed"] is False
    assert [c["name"] for c in rec["payload"]["suites"][0]["checks"] if not c["passed"]] == [
        "product_diagram"]


def test_closed_stdout_exits_two_with_nothing_on_stderr(matrix_file):
    # the reader is gone before the document is written, as in `... | head -c 20`
    # once head has exited
    src = os.path.dirname(os.path.dirname(herzkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.Popen([sys.executable, "-m", "herzkit.cli", "norm", "gamma2",
                             "--input", matrix_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_cb_ladder_levels(capsys, matrix_file):
    code, rec = out_json(capsys, "norm", "cb-ladder", "--input", matrix_file,
                         "--p", "2", "--n", "3")
    assert code == 0
    levels = rec["payload"]["levels"]
    assert len(levels) == 3
    for lv in levels:
        assert lv["lower"] == pytest.approx(4.0, abs=1e-9)


def test_bool_dimensions_exit_two(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"rows": True, "cols": 1, "entries": [[1, 0]]}))
    code, out, _ = run(capsys, "norm", "gamma2", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


@pytest.mark.parametrize("scale", [1e308, 1e-310])
def test_gamma2_at_float_range_ends(capsys, tmp_path, scale):
    # a 2x2 sign pattern has norm sqrt(2) times its entry size
    path, rec_path = tmp_path / "h.json", tmp_path / "rec.json"
    save_matrix(str(path), scale * np.array([[1, 1], [1, -1]], dtype=complex))
    code, rec = out_json(capsys, "norm", "gamma2", "--input", str(path),
                         "--out", str(rec_path))
    assert code == 0
    bracket = rec["payload"]["bracket"]
    want = math.sqrt(2) * scale
    assert bracket["lower"] <= want * (1 + 1e-9)
    assert bracket["upper"] >= want * (1 - 1e-9)
    assert bracket["upper"] - bracket["lower"] <= 1e-9 * want
    code2, rec2 = out_json(capsys, "check-cert", "--input", str(rec_path))
    assert code2 == 0
    assert rec2["payload"]["ok"] is True


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("ensemble", ["gaussian", "sign", "sparse", "unitary"])
def test_subnormal_gamma2_record_passes_check_cert(capsys, tmp_path, ensemble, n):
    path, rec_path = tmp_path / "s.json", tmp_path / "rec.json"
    save_matrix(str(path), ldexp(random_matrix(n, ensemble, seed=1), -1060))
    code, _, _ = run(capsys, "norm", "gamma2", "--input", str(path), "--out", str(rec_path))
    assert code == 0
    code, rec = out_json(capsys, "check-cert", "--input", str(rec_path))
    assert code == 0, rec["payload"]["reasons"]


@pytest.mark.parametrize("scale", [1e154, 1e308])
def test_isometric_at_large_entries(capsys, tmp_path, scale):
    path = tmp_path / "h.json"
    save_matrix(str(path), scale * np.array([[1, 1], [1, -1]], dtype=complex))
    code, out, _ = run(capsys, "isometric", "--input", str(path), "--p", "3")
    assert code == 0
    rec = json.loads(out)  # exactly one JSON document
    assert rec["payload"]["verdict"]["is_isometric"] is False


@pytest.mark.parametrize("argv", [("norm", "multiplier", "--p", "3"),
                                  ("norm", "herz", "--p", "1.5"),
                                  ("isometric", "--p", "3")])
def test_subnormal_sign_pattern(capsys, tmp_path, argv):
    path = tmp_path / "s.json"
    save_matrix(str(path), 1e-310 * np.array([[1, -1], [-1, 1]], dtype=complex))
    code, out, _ = run(capsys, *argv, "--input", str(path))
    assert code == 0
    rec = json.loads(out)  # exactly one JSON document
    if "bracket" in rec["payload"]:
        bracket = rec["payload"]["bracket"]
        assert 0.0 < bracket["lower"] <= bracket["upper"]
    else:
        assert rec["payload"]["verdict"]["is_isometric"] is False


@pytest.mark.parametrize("p", ["1", "1.5"])
@pytest.mark.parametrize("scale", [1e-160, 1e200, 1e308])
def test_herz_at_float_range_ends(capsys, tmp_path, p, scale):
    path = tmp_path / "h.json"
    save_matrix(str(path), scale * np.array([[1, 1], [1, -1]], dtype=complex))
    code, rec = out_json(capsys, "norm", "herz", "--input", str(path), "--p", p)
    if scale == 1e308:  # the norm is at least 2 sqrt(2) 1e308
        assert code == 2
        assert "float range" in rec["error"]["message"]
        return
    assert code == 0
    bracket = rec["payload"]["bracket"]
    assert math.isfinite(bracket["lower"]) and math.isfinite(bracket["upper"])
    assert 0.0 < bracket["lower"] <= bracket["upper"]


def test_oversize_input_exits_two(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rows": 65, "cols": 65,
                                "entries": [[1, 0]] * 65 * 65}))
    code, out, _ = run(capsys, "norm", "herz", "--input", str(path), "--p", "1.5")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ResourceError"


@pytest.mark.parametrize("verb", [("norm", "gamma2"), ("norm", "schatten", "--p", "2")],
                         ids=["gamma2", "schatten-2"])
def test_integer_beyond_float_range_exits_two(capsys, tmp_path, verb):
    path = tmp_path / "big.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": '
                    '[[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [1, 0]]}')
    code, out, _ = run(capsys, *verb, "--input", str(path))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InputError"
    assert err["message"] == "entry 0 real part: integer beyond the float range"


@pytest.mark.parametrize("raw", [
    b'{"rows": 1, "cols": 1, "entries": [[1, 0]]}\xff',
    b'{"rows": 1, "cols": 1, "entries": [[1' + b"0" * 5000 + b', 0]]}',
], ids=["not-utf8", "5000-digit-integer"])
def test_unreadable_json_exits_two(capsys, tmp_path, raw):
    # both raise a ValueError other than JSONDecodeError while reading
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, _ = run(capsys, "norm", "gamma2", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith("cannot read JSON")


def call_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


ENTRY = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1e-310, True,
                     10 ** 400, -(10 ** 400)]),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def matrix_objects(draw):
    dim = st.one_of(st.integers(0, 4), st.booleans())
    rows = draw(dim)
    cols = draw(st.one_of(st.just(rows), dim))
    count = draw(st.sampled_from([rows * cols, rows * cols, rows * cols + 1]))
    pairs = st.lists(ENTRY, min_size=2, max_size=2)
    entries = draw(st.lists(pairs, min_size=count, max_size=count))
    return {"rows": rows, "cols": cols, "entries": entries}


@settings(max_examples=60, deadline=None)
@given(matrix_objects())
@example({"rows": True, "cols": 1, "entries": [[1, 0]]})
@example({"rows": 2, "cols": 2, "entries": [[1e308, 0], [1e308, 0],
                                            [1e308, 0], [-1e308, 0]]})
@example({"rows": 2, "cols": 2, "entries": [[1e-310, 0], [1e-310, 0],
                                            [1e-310, 0], [-1e-310, 0]]})
@example({"rows": 3, "cols": 3, "entries": [[1, 0], [0, 0], [2, 1]] + [[0, 0]] * 3
          + [[-1, 0], [0, 0], [0, 3]]})
def test_gamma2_cli_contract_on_any_matrix_object(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path, rec = os.path.join(tmp, "m.json"), os.path.join(tmp, "rec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out = call_main("norm", "gamma2", "--input", path, "--out", rec)
        json.loads(out)  # exactly one JSON document
        assert code in (0, 2)
        if code == 0:
            code2, out2 = call_main("check-cert", "--input", rec)
            assert json.loads(out2)["payload"]["ok"] is True
            assert code2 == 0


@settings(max_examples=40, deadline=None)
@given(matrix_objects(), st.sampled_from([("norm", "1"), ("norm", "1.5"), ("norm", "3"),
                                          ("decompose", "1.5")]))
@example({"rows": 2, "cols": 2, "entries": [[1e308, 0], [1e308, 0],
                                            [1e308, 0], [-1e308, 0]]}, ("norm", "1.5"))
@example({"rows": 2, "cols": 2, "entries": [[-1e308, 0], [1e308, 0],
                                            [1e308, 0], [1e308, 0]]}, ("norm", "1"))
@example({"rows": 2, "cols": 2, "entries": [[1e-310, 0], [1e-310, 0],
                                            [1e-310, 0], [-1e-310, 0]]}, ("norm", "1"))
@example({"rows": 2, "cols": 2, "entries": [[-1e-310, 0], [1e-310, 0],
                                            [1e-310, 0], [1e-310, 0]]}, ("decompose", "1.5"))
@example({"rows": 2, "cols": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, 1]]}, ("norm", "3"))
def test_herz_cli_contract_on_any_matrix_object(obj, verb_p):
    verb, p = verb_p
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out = call_main(verb, "herz", "--input", path, "--p", p)
    doc = json.loads(out)  # exactly one JSON document
    assert code in (0, 2)
    if code == 0:
        bracket = doc["payload"]["bracket"]
        lower, upper = float(bracket["lower"]), float(bracket["upper"])
        assert math.isfinite(lower) and math.isfinite(upper)
        assert lower <= upper
        assert float(doc["payload"]["decomposition"]["cost"]) == upper


OVERFLOWING_MODULUS = {"rows": 1, "cols": 1,
                       "entries": [[1.7976931348623157e308, 1.7976931348623157e308]]}
# every entry is finite, but every interpolation bound on it is not
OVERFLOWING_BOUNDS = {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 1e308], [0, 1e308],
                                                       [0, 1.7976931345410191e308]]}


@settings(max_examples=30, deadline=None)
@given(matrix_objects(), st.sampled_from([
    ("norm", "multiplier", "--p", "1"), ("norm", "multiplier", "--p", "1.5"),
    ("norm", "multiplier", "--p", "2"), ("norm", "multiplier", "--p", "3"),
    ("norm", "cb-ladder", "--p", "1.5", "--n", "2"), ("norm", "cb-ladder", "--p", "2", "--n", "2"),
    ("norm", "schatten", "--p", "1"), ("norm", "schatten", "--p", "2"),
    ("norm", "schatten", "--p", "inf"), ("isometric", "--p", "3"), ("decompose", "isometric")]))
@example(OVERFLOWING_MODULUS, ("norm", "multiplier", "--p", "2"))
@example(OVERFLOWING_MODULUS, ("norm", "cb-ladder", "--p", "2", "--n", "2"))
@example(OVERFLOWING_MODULUS, ("norm", "schatten", "--p", "1"))
@example(OVERFLOWING_MODULUS, ("norm", "schatten", "--p", "2"))
@example(OVERFLOWING_MODULUS, ("norm", "schatten", "--p", "inf"))
@example({"rows": 2, "cols": 2, "entries": [[1e308, 0], [1e308, 0],
                                            [1e308, 0], [-1e308, 0]]},
         ("decompose", "isometric"))
@example({"rows": 2, "cols": 2, "entries": [[1.7976931348623157e308, 0]] * 3
          + [[-1.7976931348623157e308, 0]]}, ("isometric", "--p", "3"))
@example({"rows": 1, "cols": 1, "entries": [[0, 1.7976931348623157e308]]},
         ("norm", "multiplier", "--p", "1.5"))
@example(OVERFLOWING_BOUNDS, ("norm", "multiplier", "--p", "1.5"))
@example(OVERFLOWING_BOUNDS, ("norm", "cb-ladder", "--p", "1.5", "--n", "2"))
def test_multiplier_cli_contract_on_any_matrix_object(obj, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out = call_main(*argv, "--input", path)
    doc = json.loads(out)  # exactly one JSON document
    assert code in (0, 2)
    if code == 0:
        payload = doc["payload"]
        brackets = payload.get("levels", [payload["bracket"]] if "bracket" in payload else [])
        for b in brackets:
            lower, upper = float(b["lower"]), float(b["upper"])
            assert math.isfinite(lower) and math.isfinite(upper)
            assert lower <= upper
        for t in payload.get("terms", []):
            assert all(isinstance(x, float) and math.isfinite(x) for x in t["coefficient"])
        if "value" in payload:
            assert math.isfinite(float(payload["value"]))


# flag values a verb reads: small ones on both sides of each lower bound, one
# past each upper bound, and integers beyond 2^64 of either sign
FLAG_VALUE = st.one_of(st.integers(-3, 4), st.integers(2 ** 64, 2 ** 70),
                       st.integers(-(2 ** 70), -(2 ** 64)),
                       st.sampled_from([MAX_COUNT + 1, MAX_DIM + 1]))
FLAG_RANGE = {"--seed": (0, math.inf), "--restarts": (0, MAX_COUNT),
              "--trials": (1, MAX_COUNT), "--n": (1, MAX_DIM)}
INTEGER_FLAG_VERBS = [
    (("norm", "multiplier", "--p", "3"), ("--seed", "--restarts")),
    (("norm", "cb-ladder", "--p", "1.5"), ("--seed", "--restarts", "--n")),
    (("isometric", "--p", "3"), ("--seed", "--restarts", "--trials")),
    (("verify", "diagrams"), ("--seed", "--n", "--trials")),
    (("verify", "isometry"), ("--seed", "--n", "--trials")),
]


@st.composite
def integer_flag_calls(draw):
    argv, flags = draw(st.sampled_from(INTEGER_FLAG_VERBS))
    values = {f: draw(st.none() | FLAG_VALUE) for f in flags}
    return argv, {f: v for f, v in values.items() if v is not None}


@settings(max_examples=60, deadline=None)
@given(integer_flag_calls())
@example((("norm", "multiplier", "--p", "3"), {"--seed": -1}))
@example((("isometric", "--p", "3"), {"--seed": -1}))
@example((("verify", "diagrams"), {"--seed": -1}))
@example((("verify", "isometry"), {"--n": -2}))
@example((("norm", "multiplier", "--p", "3"), {"--restarts": -3}))
@example((("isometric", "--p", "3"), {"--seed": 2 ** 64, "--restarts": 0, "--trials": 1}))
@example((("verify", "isometry"), {"--seed": 2 ** 70, "--n": 1, "--trials": 1}))
def test_integer_flags_cli_contract(call):
    argv, values = call
    flags = [a for f, v in values.items() for a in (f, str(v))]
    with tempfile.TemporaryDirectory() as tmp:
        inp = ()
        if argv[0] != "verify":  # a rank-one unimodular symbol: isometric at every p
            path = os.path.join(tmp, "m.json")
            save_matrix(path, np.outer(np.exp(2j * np.pi * np.array([0.1, 0.4])),
                                       np.exp(2j * np.pi * np.array([0.2, 0.5]))))
            inp = ("--input", path)
        code, out = call_main(*argv, *inp, *flags)
    doc = json.loads(out)  # exactly one JSON document
    in_range = all(FLAG_RANGE[f][0] <= v <= FLAG_RANGE[f][1] for f, v in values.items())
    assert code == (0 if in_range else 2)
    assert ("error" in doc) is not in_range


# the ids count the cases as the table did when norm herz and decompose herz
# still read --seed and --restarts (slots 2, 3, 7 and 8), so each check keeps
# its name
_FLAG_SLOTS = (i for i in itertools.count() if i not in (2, 3, 7, 8))


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"argv{next(_FLAG_SLOTS)}-{flag}")
    for argv, flags in INTEGER_FLAG_VERBS for flag in flags])
def test_out_of_range_integer_flags_exit_two(capsys, matrix_file, argv, flag):
    low, high = FLAG_RANGE[flag]
    values = {"--seed": "-1", "--n": "-2", "--restarts": "-3", "--trials": "0"}
    cases = [(values[flag], f"at least {low}", "InputError")] + (
        [(str(high + 1), f"at most {high}", "ResourceError")] if high < math.inf else [])
    inp = () if argv[0] == "verify" else ("--input", matrix_file)
    for value, bound, error in cases:
        code, out, err = run(capsys, *argv, *inp, flag, value)
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(out)["error"] == {
            "type": error, "message": f"argument {flag}: must be {bound}, got {value!r}"}
