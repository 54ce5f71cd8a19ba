"""JSON persistence: matrices, certificates, decompositions, report records.

One schema per object kind, strict on load.  A matrix file looks like

    {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.5, -0.5], ...]}

with exactly rows * cols [re, im] pairs in row-major order; anything else is
rejected with InputError rather than coerced, and a dimension above 64 with
ResourceError (by ``core.require_range``) before any entry is read.  Report
records wrap a payload with the toolkit version and a content digest so
stored results can be matched to their inputs later.

One encoder writes every record: report dataclasses go out as objects of
their fields, and every complex array among them as a matrix object (a
vector as 1 x n), so ``matrix_from_obj`` reads any of them back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import chain
from typing import Optional

import numpy as np

from .core import (
    MAX_DIM,
    InputError,
    NormBracket,
    SchattenIndex,
    VERSION,
    as_index,
    as_matrix,
    require_range,
)
from .gamma2 import Gamma2Certificate
from .herz import HerzDecomposition

__all__ = [
    "matrix_to_obj", "matrix_from_obj", "save_matrix", "load_matrix",
    "p_to_obj", "p_from_obj",
    "bracket_to_obj",
    "certificate_to_obj", "certificate_from_obj",
    "decomposition_to_obj", "decomposition_from_obj",
    "digest_obj", "report_record",
    "encode_document", "write_json", "read_json",
]


def _num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"{where}: expected a number, got {type(x).__name__}")
    try:
        v = float(x)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{where}: integer beyond the float range") from None
    if not np.isfinite(v):
        raise InputError(f"{where}: non-finite value {x!r}")
    return v


def _flat_pairs(entries: list) -> Optional[list]:
    """The items of ``entries`` in one list when every entry is a list of
    two, else None; one C-level pass each."""
    if {*map(type, entries)} <= {list} and {*map(len, entries)} <= {2}:
        return list(chain.from_iterable(entries))
    return None


def _pairs(entries: list) -> np.ndarray:
    """The [re, im] pairs as one complex vector.

    One pass over the whole list when every entry is a list of two plain
    finite numbers; otherwise the entries are checked one at a time, so the
    error names the first bad one.
    """
    flat = _flat_pairs(entries)
    if flat is not None and {*map(type, flat)} <= {int, float}:
        try:
            data = np.array(flat, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.all(np.isfinite(data)):
                return data.view(complex)
    data = np.empty(2 * len(entries))
    for k, e in enumerate(entries):
        if not isinstance(e, list) or len(e) != 2:
            raise InputError(f"entry {k} is not a [re, im] pair")
        data[2 * k] = _num(e[0], f"entry {k} real part")
        data[2 * k + 1] = _num(e[1], f"entry {k} imaginary part")
    return data.view(complex)


def matrix_to_obj(M) -> dict:
    A = as_matrix(M)
    entries = np.column_stack((A.real.ravel(), A.imag.ravel())).tolist()
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "entries": entries}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("matrix object must be a JSON object")
    missing = {"rows", "cols", "entries"} - set(obj)
    if missing:
        raise InputError(f"matrix object missing keys: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    for name, d in (("rows", rows), ("cols", cols)):
        require_range(d, 0, MAX_DIM, "a matrix object", name)
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise InputError("entries must be a list of [re, im] pairs")
    if len(entries) != rows * cols:
        raise InputError(f"entry count {len(entries)} does not match "
                         f"rows*cols = {rows * cols}")
    return _pairs(entries).reshape(rows, cols)


def p_to_obj(p):
    pi = as_index(p)
    return "inf" if pi.is_inf else pi.value


def p_from_obj(obj) -> SchattenIndex:
    if obj in ("inf", "Infinity", None):
        return as_index(None)
    return as_index(_num(obj, "exponent p"))


def bracket_to_obj(b: NormBracket, include_certificates: bool = True) -> dict:
    out = {
        "lower": float(b.lower), "upper": float(b.upper),
        "width": float(b.upper - b.lower),
        "iterations": int(b.iterations), "converged": bool(b.converged),
    }
    if include_certificates:
        out["lower_certificate"] = _jsonify(b.lower_certificate)
        out["upper_certificate"] = _jsonify(b.upper_certificate)
    return out


def _jsonify(x):
    """Encode a report payload as strict JSON.

    ndarrays become matrix objects (a 1-D array as 1 x n), complex scalars
    [re, im], non-finite floats strings (strict JSON has no Infinity), and
    dataclass instances an object of their fields; containers recurse.
    Plain scalars are tested first.  A list of [re, im] pairs of plain finite floats, such as the entries of
    a matrix object, is already encoded and is returned as it is.
    """
    if isinstance(x, (np.bool_, np.floating, np.integer, np.complexfloating)):
        x = x.item()
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, np.ndarray):
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return matrix_to_obj(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        if type(x) is list:
            flat = _flat_pairs(x)
            if flat is not None and {*map(type, flat)} <= {float} \
                    and all(map(math.isfinite, flat)):
                return x
        return [_jsonify(v) for v in x]
    if isinstance(x, SchattenIndex):
        return p_to_obj(x)
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonify(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    return x


def certificate_to_obj(cert: Gamma2Certificate) -> dict:
    return _jsonify(cert)


def certificate_from_obj(obj) -> Gamma2Certificate:
    if not isinstance(obj, dict):
        raise InputError("certificate must be a JSON object")
    missing = {"t", "P", "Q", "min_eig", "dual_witness"} - set(obj)
    if missing:
        raise InputError(f"certificate missing keys: {sorted(missing)}")
    if obj["dual_witness"] is None:
        raise InputError("certificate dual_witness must be a matrix, got null")
    return Gamma2Certificate(
        t=_num(obj["t"], "certificate t"),
        P=matrix_from_obj(obj["P"]),
        Q=matrix_from_obj(obj["Q"]),
        min_eig=_num(obj["min_eig"], "certificate min_eig"),
        dual_witness=matrix_from_obj(obj["dual_witness"]),
    )


def decomposition_to_obj(d: HerzDecomposition) -> dict:
    return {
        "p": p_to_obj(d.p),
        "dim": int(d.dim),
        "terms": [{"A": matrix_to_obj(A), "B": matrix_to_obj(B)}
                  for A, B in d.terms],
        "cost": float(d.cost),
    }


def decomposition_from_obj(obj) -> HerzDecomposition:
    if not isinstance(obj, dict):
        raise InputError("decomposition must be a JSON object")
    missing = {"p", "terms"} - set(obj)
    if missing:
        raise InputError(f"decomposition missing keys: {sorted(missing)}")
    if not isinstance(obj["terms"], list):
        raise InputError("decomposition terms must be a list")
    terms = []
    for k, t in enumerate(obj["terms"]):
        if not isinstance(t, dict) or "A" not in t or "B" not in t:
            raise InputError(f"decomposition term {k} must have A and B")
        terms.append((matrix_from_obj(t["A"]), matrix_from_obj(t["B"])))
    dim = obj.get("dim")
    if dim is None and not terms:
        raise InputError("empty decomposition needs a dim field")
    return HerzDecomposition.build(p_from_obj(obj["p"]), terms, dim=dim)


def digest_obj(obj) -> str:
    """Content hash of a JSON-serializable object, stable across runs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_record(operation: str, payload: dict,
                  parameters: Optional[dict] = None,
                  input_digest: Optional[str] = None,
                  elapsed_ms: Optional[float] = None) -> dict:
    """Wrap a result payload for persistence.

    Numeric payload fields are deterministic for fixed input and seed;
    elapsed_ms is the one field allowed to vary between runs.
    """
    record = {
        "tool": "herzkit",
        "version": VERSION,
        "operation": operation,
        "parameters": _jsonify(parameters or {}),
        "payload": _jsonify(payload),
    }
    record["input_digest"] = input_digest
    record["digest"] = digest_obj({k: record[k] for k in
                                   ("operation", "parameters", "payload", "input_digest")})
    if elapsed_ms is not None:
        record["elapsed_ms"] = float(elapsed_ms)
    return record


def encode_document(obj) -> str:
    """A JSON-ready object as one newline-terminated line of strict JSON with
    sorted keys, the form of every file and CLI document.

    One ``json.dumps`` call without indent, so CPython's C encoder runs
    (``json.dump`` and ``indent`` take the pure-Python one).  To read a
    document indented, pipe it through ``python -m json.tool``.
    """
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    # keep files strict: numpy scalars unwrapped, non-finite floats as strings;
    # one line with sorted keys
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_document(_jsonify(obj)))


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or an integer too long to parse
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def save_matrix(path: str, M) -> None:
    write_json(path, matrix_to_obj(M))


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_obj(read_json(path))
