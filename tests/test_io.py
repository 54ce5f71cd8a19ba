import json
from dataclasses import dataclass

import numpy as np
import pytest

from herzkit.core import INF, InputError, ResourceError, as_index, random_matrix
from herzkit.gamma2 import check_certificate, gamma2
from herzkit.herz import HerzDecomposition, herz_norm, represent
from herzkit.io import (
    _jsonify,
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


def reference_pairs(entries):
    """The one-entry-at-a-time decode the vectorized one must match."""
    data = np.empty(len(entries), dtype=complex)
    for k, (re, im) in enumerate(entries):
        data[k] = complex(float(re), float(im))
    return data


@pytest.mark.parametrize("entries", [
    [[0.0, -0.0], [-0.0, 0.0], [1, -1], [5e-324, -5e-324]],
    [[2 ** 53 + 1, 10 ** 20 + 3], [-(2 ** 70), 1.7976931348623157e308],
     [0.1, -2.5e-310], [7, 0]],
], ids=["signed-zeros", "wide-integers"])
def test_matrix_decode_and_encode_are_bit_exact(entries):
    obj = {"rows": 2, "cols": 2, "entries": entries}
    M = matrix_from_obj(obj)
    want = reference_pairs(entries).reshape(2, 2)
    assert M.dtype == complex and M.tobytes() == want.tobytes()
    back = matrix_to_obj(M)
    assert back["entries"] == [[float(re), float(im)] for re, im in entries]
    assert json.dumps(back) == json.dumps(
        {"rows": 2, "cols": 2,
         "entries": [[float(re), float(im)] for re, im in entries]})
    # a transposed (non-contiguous) view encodes in row-major order
    assert matrix_to_obj(M.T)["entries"] == [[z.real, z.imag] for z in M.T.ravel()]


@pytest.mark.parametrize("bad, message", [
    ([1.0], "entry 2 is not a [re, im] pair"),
    ((1.0, 0.0), "entry 2 is not a [re, im] pair"),
    ("1, 0", "entry 2 is not a [re, im] pair"),
    ([True, 0.0], "entry 2 real part: expected a number, got bool"),
    ([0.0, "1"], "entry 2 imaginary part: expected a number, got str"),
    ([None, 0.0], "entry 2 real part: expected a number, got NoneType"),
    ([float("nan"), 0.0], "entry 2 real part: non-finite value nan"),
    ([0.0, float("-inf")], "entry 2 imaginary part: non-finite value -inf"),
    ([10 ** 400, 0], "entry 2 real part: integer beyond the float range"),
    ([0, -(10 ** 400)], "entry 2 imaginary part: integer beyond the float range"),
])
def test_matrix_from_obj_names_the_first_bad_entry(bad, message):
    entries = [[1.0, 0.0], [0.5, -0.5], bad, [10 ** 400, "later"]]
    with pytest.raises(InputError) as err:
        matrix_from_obj({"rows": 2, "cols": 2, "entries": entries})
    assert str(err.value) == message


def test_integers_beyond_float_range_are_input_errors(tmp_path):
    # json reads these as Python ints, which float() refuses with OverflowError
    big = 10 ** 400
    with pytest.raises(InputError, match="beyond the float range"):
        matrix_from_obj({"rows": 1, "cols": 1, "entries": [[big, 0]]})
    with pytest.raises(InputError, match="beyond the float range"):
        p_from_obj(big)
    A = random_matrix(2, ensemble="gaussian", seed=9)
    _, cert = gamma2(A, tol=1e-5)
    obj = certificate_to_obj(cert)
    obj["t"] = big
    with pytest.raises(InputError, match="certificate t: integer beyond"):
        certificate_from_obj(obj)
    # past 4300 digits json itself refuses the integer, with a ValueError
    path = tmp_path / "long.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[1' + "0" * 5000 + ", 0]]}")
    with pytest.raises(InputError, match="cannot read JSON"):
        load_matrix(str(path))


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


def test_write_json_writes_one_line_that_read_json_reads_back(tmp_path):
    path = tmp_path / "rec.json"
    rec = report_record("norm.schatten", {"M": random_matrix(3, seed=1), "value": np.float64(2.5),
                                          "p": p_to_obj(INF)}, {"z": 1, "a": [1, 2]})
    write_json(str(path), rec)
    raw = path.read_text(encoding="utf-8")
    assert raw == json.dumps(rec, sort_keys=True) + "\n"
    assert raw.count("\n") == 1
    assert read_json(str(path)) == rec


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


@dataclass
class _Record:
    matrix: np.ndarray
    vector: np.ndarray
    z: complex
    top: float
    missing: object


def test_jsonify_encodes_dataclasses_field_by_field():
    M = random_matrix(2, ensemble="gaussian", seed=3)
    v = np.array([1 + 1j, 2.0, -3j])
    rec = _Record(M, v, 1.5 - 2j, float("inf"), None)
    assert _jsonify(rec) == {"matrix": _jsonify(M), "vector": _jsonify(v),
                             "z": _jsonify(1.5 - 2j), "top": _jsonify(float("inf")),
                             "missing": _jsonify(None)}
    assert _jsonify(v) == matrix_to_obj(v.reshape(1, -1))
    assert _jsonify(1.5 - 2j) == [1.5, -2.0]
    assert _jsonify(float("inf")) == "inf" and _jsonify(None) is None


def test_jsonify_unwraps_numpy_scalars_and_keeps_plain_ones():
    for x, want in ((np.float64(0.25), 0.25), (np.bool_(True), True),
                    (np.int64(7), 7)):
        got = _jsonify(x)
        assert type(got) is type(want) and got == want
    for x in (0.25, -1e300, 7, True, False, "inf", "name"):
        got = _jsonify(x)
        assert type(got) is type(x) and got == x


def _recursive(x):
    """_jsonify with the pair-list shortcut taken out: every item of every
    container encoded on its own, which the shortcut must match."""
    if isinstance(x, dict):
        return {str(k): _recursive(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_recursive(v) for v in x]
    return _jsonify(x)


@pytest.mark.parametrize("entries", [
    [],
    [[0.0, -0.0], [1.5, -2.25]],
    [[1.0, float("inf")]],
    [[float("nan"), 0.0], [1.0, 2.0]],
    [[1, 2.0], [3.0, 4.0]],
    [[True, 0.0]],
    [[np.float64(0.5), 1.0]],
    [(1.0, 2.0), [3.0, 4.0]],
    ([1.0, 2.0], [3.0, 4.0]),
    [[1.0, 2.0, 3.0], [4.0, 5.0]],
    [[1.0], [2.0, 3.0]],
    [[1.0, 2.0], 3.0],
    [["a", "b"]],
    [[[1.0, 2.0], [3.0, 4.0]]],
])
def test_jsonify_pair_lists_encode_as_item_by_item(entries):
    assert repr(_jsonify(entries)) == repr(_recursive(entries))  # repr shows each type


def test_jsonify_keeps_matrix_objects_as_they_are():
    M = random_matrix(5, ensemble="gaussian", seed=2)
    M[0, 0] = -0.0
    obj = matrix_to_obj(M)
    payload = {"m": obj, "d": decomposition_to_obj(herz_norm(M, 1.5).best_decomposition)}
    got = _jsonify(payload)
    assert repr(got) == repr(_recursive(payload))
    assert got["m"]["entries"] is obj["entries"]
