import json

import numpy as np
import pytest

from herzkit.core import INF, InputError, ResourceError, as_index, random_matrix
from herzkit.gamma2 import check_certificate, gamma2
from herzkit.herz import HerzDecomposition, herz_norm, represent
from herzkit.io import (
    certificate_from_obj,
    certificate_to_obj,
    decomposition_from_obj,
    decomposition_to_obj,
    digest_obj,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    p_from_obj,
    p_to_obj,
    read_json,
    report_record,
    save_matrix,
    write_json,
)


def test_matrix_roundtrip_preserves_complex_entries():
    M = random_matrix(4, ensemble="gaussian", seed=5)
    back = matrix_from_obj(matrix_to_obj(M))
    np.testing.assert_array_equal(back, M)


def test_matrix_obj_shape():
    obj = matrix_to_obj(np.array([[1 + 2j, 0], [0, -1]]))
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["entries"][0] == [1.0, 2.0]


def test_matrix_from_obj_rejects_bad_entry_count():
    obj = matrix_to_obj(np.eye(2))
    obj["entries"] = obj["entries"][:3]
    with pytest.raises(InputError):
        matrix_from_obj(obj)


def test_matrix_from_obj_rejects_bad_pairs():
    obj = matrix_to_obj(np.eye(2))
    obj["entries"][0] = [1.0]
    with pytest.raises(InputError):
        matrix_from_obj(obj)
    obj2 = matrix_to_obj(np.eye(2))
    obj2["entries"][0] = [float("nan"), 0.0]
    with pytest.raises(InputError):
        matrix_from_obj(obj2)
    obj3 = matrix_to_obj(np.eye(2))
    obj3["entries"][0] = [True, 0.0]
    with pytest.raises(InputError):
        matrix_from_obj(obj3)


def test_p_obj_roundtrip():
    assert p_to_obj(as_index(2)) == 2.0
    assert p_to_obj(INF) == "inf"
    assert p_from_obj("inf").is_inf
    assert p_from_obj(1.5).value == 1.5
    with pytest.raises(InputError):
        p_from_obj("wide")


def test_certificate_roundtrip_revalidates(tmp_path):
    A = random_matrix(3, ensemble="gaussian", seed=9)
    _, cert = gamma2(A, tol=1e-5)
    back = certificate_from_obj(certificate_to_obj(cert))
    rep = check_certificate(A, back)
    assert rep.ok, rep.reasons


def test_decomposition_roundtrip(tmp_path):
    C = random_matrix(3, ensemble="gaussian", seed=10)
    d = herz_norm(C, 1.5).best_decomposition
    back = decomposition_from_obj(decomposition_to_obj(d))
    assert back.p.value == d.p.value
    assert back.cost == pytest.approx(d.cost, rel=1e-12)
    np.testing.assert_allclose(represent(back), represent(d), atol=1e-12)


def test_empty_decomposition_keeps_dim():
    d = HerzDecomposition.build(2, [], dim=3)
    back = decomposition_from_obj(decomposition_to_obj(d))
    assert back.dim == 3
    assert back.terms == ()


def test_digest_is_order_insensitive_and_stable():
    a = digest_obj({"x": 1, "y": [1, 2]})
    b = digest_obj({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 64
    assert digest_obj({"x": 2}) != a


def test_report_record_digest_ignores_elapsed(tmp_path):
    rec1 = report_record("norm", {"value": 3.0}, parameters={"p": 2.0},
                         elapsed_ms=5.0)
    rec2 = report_record("norm", {"value": 3.0}, parameters={"p": 2.0},
                         elapsed_ms=900.0)
    assert rec1["digest"] == rec2["digest"]
    assert rec1["tool"] == "herzkit"
    assert rec1["elapsed_ms"] == 5.0


def test_write_json_keeps_files_strict(tmp_path):
    # non-finite floats are stored as strings, never as bare NaN tokens
    path = tmp_path / "edge.json"
    write_json(str(path), {"x": float("nan"), "y": float("inf")})
    raw = path.read_text()
    assert "NaN" not in raw and "Infinity" not in raw
    assert json.loads(raw) == {"x": "nan", "y": "inf"}


def test_matrix_file_roundtrip(tmp_path):
    M = random_matrix(2, ensemble="unitary", seed=12)
    path = tmp_path / "m.json"
    save_matrix(str(path), M)
    np.testing.assert_array_equal(load_matrix(str(path)), M)
    raw = json.loads(path.read_text())
    assert set(raw) == {"rows", "cols", "entries"}


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        read_json(str(path))


def test_matrix_from_obj_rejects_bool_dimensions():
    for rows, cols in ((True, 1), (1, False)):
        with pytest.raises(InputError):
            matrix_from_obj({"rows": rows, "cols": cols, "entries": [[1, 0]]})


def test_certificate_from_obj_rejects_null_witness():
    A = random_matrix(2, ensemble="gaussian", seed=9)
    _, cert = gamma2(A, tol=1e-5)
    obj = certificate_to_obj(cert)
    obj["dual_witness"] = None
    with pytest.raises(InputError):
        certificate_from_obj(obj)
    del obj["dual_witness"]
    with pytest.raises(InputError):
        certificate_from_obj(obj)


def test_matrix_from_obj_refuses_oversize_before_reading_entries():
    with pytest.raises(ResourceError):
        matrix_from_obj({"rows": 65, "cols": 65, "entries": [[0, 0]] * 65 * 65})
    with pytest.raises(ResourceError):  # refused on the header alone
        matrix_from_obj({"rows": 1, "cols": 10 ** 9, "entries": []})
    assert matrix_from_obj({"rows": 64, "cols": 1,
                            "entries": [[1, 0]] * 64}).shape == (64, 1)
