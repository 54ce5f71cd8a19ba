"""End-to-end runs of the command line tool, in process."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herzkit.cli import main
from herzkit.io import save_matrix


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


def test_tampered_certificate_fails(capsys, matrix_file, tmp_path):
    rec_path = tmp_path / "rec.json"
    run(capsys, "norm", "gamma2", "--input", matrix_file, "--out", str(rec_path))
    rec = json.loads(rec_path.read_text())
    rec["payload"]["certificate"]["t"] *= 0.5
    rec_path.write_text(json.dumps(rec))
    code, out, err = run(capsys, "check-cert", "--input", str(rec_path))
    assert code == 1
    assert json.loads(out)["payload"]["ok"] is False


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


def test_verify_diagrams(capsys):
    code, rec = out_json(capsys, "verify", "diagrams", "--n", "3")
    assert code == 0
    suite = rec["payload"]["suites"][0]
    assert suite["passed"] is True
    assert all(c["passed"] for c in suite["checks"])


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
    assert rec["payload"]["verdict"]["is_isometric"] is True
    assert rec["payload"]["forward_check"]["passed"] is True

    had = tmp_path / "had.json"
    save_matrix(str(had), np.array([[1, 1], [1, -1]], dtype=complex))
    code2, rec2 = out_json(capsys, "isometric", "--input", str(had), "--p", "4")
    assert code2 == 0
    assert rec2["payload"]["verdict"]["is_isometric"] is False
    assert rec2["payload"]["witness"]["deviation"] >= 1e-3


def test_repeat_runs_identical_apart_from_timing(capsys, matrix_file):
    _, rec1 = out_json(capsys, "norm", "herz", "--input", matrix_file,
                       "--p", "1", "--restarts", "3")
    _, rec2 = out_json(capsys, "norm", "herz", "--input", matrix_file,
                       "--p", "1", "--restarts", "3")
    assert scrub(rec1) == scrub(rec2)


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


def test_oversize_input_exits_two(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rows": 65, "cols": 65,
                                "entries": [[1, 0]] * 65 * 65}))
    code, out, _ = run(capsys, "norm", "herz", "--input", str(path), "--p", "1.5")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ResourceError"


def call_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


ENTRY = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1e-310, True]),
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
