"""Command-line front end.

Every invocation writes exactly one JSON document to stdout (reports and
errors alike); human-oriented diagnostics go to stderr.  Exit codes: 0 on
success, 1 when a verification command finds a violation or a certificate
fails to validate, 2 on malformed input or out-of-contract requests.

Verbs:
    norm {schatten, multiplier, cb-ladder, gamma2, herz}
    verify {diagrams, contractivity, algebra, duality, isometry, all}
    decompose {herz, isometric}
    isometric
    check-cert

The --out file receives the same document, or a CSV flattening of its
brackets with --format csv (lower, upper, slack columns).
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import json
import sys
import time
from typing import Optional

import numpy as np

from .ascent import AscentOptions
from .config import VERSION, RunConfig
from .core import InputError, ResourceError, as_index, schatten_norm
from .gamma2 import check_certificate, gamma2
from .herz import HerzOptions, herz_norm
from .io import (
    bracket_to_obj,
    certificate_from_obj,
    certificate_to_obj,
    decomposition_to_obj,
    digest_obj,
    matrix_from_obj,
    matrix_to_obj,
    p_to_obj,
    read_json,
    report_record,
)
from .isometry import (
    classify_isometric,
    dft_decompose,
    isometry_forward_check,
    isometry_witness_search,
)
from .multipliers import cb_norm_ladder, multiplier_norm
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems through the normal error path so
    stdout still carries one JSON document."""

    def error(self, message):
        raise InputError(message)


def _parse_p(raw: Optional[str]):
    if raw is None:
        raise InputError("--p is required for this command")
    text = raw.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return as_index(None)
    try:
        return as_index(float(text))
    except ValueError as exc:
        raise InputError(f"cannot parse exponent {raw!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herzkit",
                     description="Certified Schur-multiplier and predual-norm "
                                 "computations at desk scale.")
    parser.add_argument("--version", action="version", version=f"herzkit {VERSION}")
    sub = parser.add_subparsers(dest="verb")

    def common(p_, with_input=True):
        if with_input:
            p_.add_argument("--input", required=True, help="CMatrix JSON file")
        p_.add_argument("--p", default=None, help="Schatten exponent (number or 'inf')")
        p_.add_argument("--out", default=None, help="also write the document here")
        p_.add_argument("--seed", type=int, default=0)
        p_.add_argument("--tol", type=float, default=None)
        p_.add_argument("--restarts", type=int, default=None)
        p_.add_argument("--terms", type=int, default=None)
        p_.add_argument("--n", type=int, default=None)
        p_.add_argument("--trials", type=int, default=None)
        p_.add_argument("--format", choices=("json", "csv"), default="json")

    p_norm = sub.add_parser("norm", help="certified norm brackets")
    p_norm.add_argument("kind", choices=("schatten", "multiplier", "cb-ladder",
                                         "gamma2", "herz"))
    common(p_norm)

    p_verify = sub.add_parser("verify", help="invariant suites")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    common(p_verify, with_input=False)

    p_dec = sub.add_parser("decompose", help="emit decompositions")
    p_dec.add_argument("kind", choices=("herz", "isometric"))
    common(p_dec)

    p_iso = sub.add_parser("isometric", help="classify a symbol's Schur action")
    common(p_iso)

    p_cert = sub.add_parser("check-cert", help="re-validate a stored certificate")
    common(p_cert)
    return parser


def _flatten_rows(record: dict) -> list:
    """CSV rows (operation, p, lower, upper, slack, passed) for a record."""
    payload = record.get("payload", {})
    op = record.get("operation", "")
    pval = payload.get("p", "")
    rows = []

    def brow(name, b, passed=""):
        lo, up = b.get("lower", ""), b.get("upper", "")
        slack = b.get("width", "")
        rows.append([name, pval, lo, up, slack, passed])

    if "levels" in payload:
        for m, b in enumerate(payload["levels"], start=1):
            brow(f"{op}[m={m}]", b)
    elif "bracket" in payload:
        brow(op, payload["bracket"])
    elif "value" in payload:
        rows.append([op, pval, payload["value"], payload["value"], 0.0, ""])
    elif "suites" in payload:
        for srep in payload["suites"]:
            for c in srep["checks"]:
                rows.append([f"{srep['suite']}.{c['name']}", "", "", "",
                             c["slack"], c["passed"]])
    elif "ok" in payload:
        rows.append([op, "", "", "", "", payload["ok"]])
    elif "verdict" in payload:
        rows.append([op, pval, "", "", "", payload["verdict"]["is_isometric"]])
    elif "decomposition" in payload:
        d = payload["decomposition"]
        rows.append([op, d.get("p", pval), "", d.get("cost", ""), "", ""])
    else:
        rows.append([op, pval, "", "", "", ""])
    return rows


def _emit(record: dict, args) -> None:
    document = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    print(document)
    if getattr(args, "out", None):
        if getattr(args, "format", "json") == "csv":
            buf = _stdio.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["operation", "p", "lower", "upper", "slack", "passed"])
            writer.writerows(_flatten_rows(record))
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(buf.getvalue())
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")


def _load_input_matrix(args) -> tuple[np.ndarray, str]:
    obj = read_json(args.input)
    return matrix_from_obj(obj), digest_obj(obj)


def _ascent_opts(args, default_restarts=16) -> AscentOptions:
    return AscentOptions(
        restarts=args.restarts if args.restarts is not None else default_restarts,
        seed=args.seed)


def _herz_opts(args) -> HerzOptions:
    return HerzOptions(max_terms=args.terms if args.terms else 8,
                       restarts=args.restarts if args.restarts is not None else 8,
                       seed=args.seed)


def cmd_norm(args) -> int:
    A, dig = _load_input_matrix(args)
    t0 = time.perf_counter()
    params = {"kind": args.kind, "seed": args.seed}

    if args.kind == "schatten":
        pi = _parse_p(args.p)
        payload = {"p": p_to_obj(pi), "value": schatten_norm(A, pi)}
        params["p"] = p_to_obj(pi)
    elif args.kind == "multiplier":
        pi = _parse_p(args.p)
        b = multiplier_norm(A, pi, opts=_ascent_opts(args),
                            gamma2_tol=args.tol if args.tol else 1e-6)
        payload = {"p": p_to_obj(pi), "bracket": bracket_to_obj(b)}
        params["p"] = p_to_obj(pi)
    elif args.kind == "cb-ladder":
        pi = _parse_p(args.p)
        height = args.n if args.n is not None else 3
        levels = cb_norm_ladder(A, pi, height, opts=_ascent_opts(args),
                                gamma2_tol=args.tol if args.tol else 1e-6)
        payload = {"p": p_to_obj(pi), "m_max": height,
                   "levels": [bracket_to_obj(b) for b in levels]}
        params.update({"p": p_to_obj(pi), "m_max": height})
    elif args.kind == "gamma2":
        tol = args.tol if args.tol else 1e-6
        b, cert = gamma2(A, tol=tol)
        payload = {"bracket": bracket_to_obj(b),
                   "certificate": certificate_to_obj(cert),
                   "matrix": matrix_to_obj(A)}
        params["tol"] = tol
    else:  # herz
        pi = _parse_p(args.p)
        opts = _herz_opts(args)
        res = herz_norm(A, pi, opts)
        payload = {"p": p_to_obj(pi),
                   "bracket": bracket_to_obj(res.bracket),
                   "decomposition": decomposition_to_obj(res.best_decomposition)}
        params.update({"p": p_to_obj(pi), "max_terms": opts.max_terms})

    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record(f"norm.{args.kind}", payload, params, dig, elapsed), args)
    return 0


def cmd_verify(args) -> int:
    overrides = {"seed": args.seed, "restarts": args.restarts,
                 "max_terms": args.terms}
    config = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
    t0 = time.perf_counter()
    p = _parse_p(args.p) if args.p is not None else None
    reports = run_suite(args.suite, config, n=args.n, trials=args.trials, p=p)
    payload = {"suites": [r.to_obj() for r in reports],
               "passed": all(r.passed for r in reports)}
    params = {"suite": args.suite, "seed": args.seed,
              "n": args.n, "trials": args.trials}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record("verify", payload, params, None, elapsed), args)
    if not payload["passed"]:
        failing = [c["name"] for r in payload["suites"]
                   for c in r["checks"] if not c["passed"]]
        print(f"verify {args.suite}: FAILED {failing}", file=sys.stderr)
        return 1
    print(f"verify {args.suite}: ok", file=sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    A, dig = _load_input_matrix(args)
    t0 = time.perf_counter()
    if args.kind == "herz":
        pi = _parse_p(args.p)
        opts = _herz_opts(args)
        res = herz_norm(A, pi, opts)
        payload = {"p": p_to_obj(pi),
                   "decomposition": decomposition_to_obj(res.best_decomposition),
                   "bracket": bracket_to_obj(res.bracket, include_certificates=False)}
        params = {"kind": "herz", "p": p_to_obj(pi), "max_terms": opts.max_terms,
                  "seed": args.seed}
    else:
        terms = dft_decompose(A)
        all_iso = all(
            classify_isometric(np.outer(t.a, t.b), 4.0).is_isometric for t in terms)
        payload = {
            "count": len(terms),
            "all_terms_isometric": all_iso,
            "terms": [{
                "k": t.k, "l": t.l,
                "coefficient": [t.coefficient.real, t.coefficient.imag],
                "a": matrix_to_obj(t.a.reshape(1, -1)),
                "b": matrix_to_obj(t.b.reshape(1, -1)),
            } for t in terms],
        }
        params = {"kind": "isometric"}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record(f"decompose.{args.kind}", payload, params, dig, elapsed), args)
    return 0


def cmd_isometric(args) -> int:
    A, dig = _load_input_matrix(args)
    pi = _parse_p(args.p)
    tol = args.tol if args.tol else 1e-8
    t0 = time.perf_counter()
    verdict = classify_isometric(A, pi, tol=tol)
    payload = {"p": p_to_obj(pi), "verdict": verdict.to_obj()}
    if verdict.is_isometric and verdict.a is not None:
        fwd = isometry_forward_check(verdict.a, verdict.b, pi,
                                     trials=args.trials if args.trials else 16,
                                     seed=args.seed)
        payload["forward_check"] = fwd.to_obj()
    elif not verdict.is_isometric:
        w = isometry_witness_search(A, pi, _ascent_opts(args, default_restarts=8))
        payload["witness"] = w.to_obj()
    params = {"p": p_to_obj(pi), "tol": tol, "seed": args.seed}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record("isometric", payload, params, dig, elapsed), args)
    return 0


def cmd_check_cert(args) -> int:
    obj = read_json(args.input)
    dig = digest_obj(obj)
    if isinstance(obj, dict) and "payload" in obj:
        inner = obj["payload"]
        if not isinstance(inner, dict) or "matrix" not in inner \
                or "certificate" not in inner:
            raise InputError("report record lacks matrix or certificate payload")
        A = matrix_from_obj(inner["matrix"])
        cert = certificate_from_obj(inner["certificate"])
    elif isinstance(obj, dict) and "A" in obj:
        A = matrix_from_obj(obj["A"])
        cert = certificate_from_obj(obj)
    else:
        raise InputError("certificate file must embed its matrix: either a "
                         "'norm gamma2' report record or a certificate object "
                         "with an extra 'A' field")
    t0 = time.perf_counter()
    result = check_certificate(A, cert, tol=args.tol if args.tol else 1e-9)
    payload = {"ok": bool(result), "reasons": list(result.reasons),
               "t": cert.t}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record("check-cert", payload, {"tol": args.tol or 1e-9},
                        dig, elapsed), args)
    if not result:
        print(f"certificate INVALID: {result.reasons}", file=sys.stderr)
        return 1
    print("certificate ok", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            raise InputError("a command is required (norm, verify, decompose, "
                             "isometric, check-cert)")
        handler = {
            "norm": cmd_norm,
            "verify": cmd_verify,
            "decompose": cmd_decompose,
            "isometric": cmd_isometric,
            "check-cert": cmd_check_cert,
        }[args.verb]
        return handler(args)
    except (InputError, ResourceError) as exc:
        error = {
            "tool": "herzkit", "version": VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(error, indent=2, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
