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

The integer flags are checked as they are parsed: --seed at least 0,
--restarts 0 to 1024, --trials 1 to 1024 and --n 1 to 64.  Any other value
exits 2 with one error document, a ResourceError above the range.

``main`` builds its parser once per process and reuses it for every call;
``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stdio
import json
import sys
import time
from typing import Optional

import numpy as np

from .ascent import AscentOptions
from .core import (MAX_COUNT, MAX_DIM, VERSION, InputError, ResourceError, as_index,
                   schatten_norm)
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


def tolerance(raw: str) -> float:
    """The --tol type: a finite, nonnegative float."""
    tol = float(raw)
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {raw!r}")
    return tol


def _integer(flag: str, name: str, low: int, high: Optional[int] = None):
    """The argparse type of an integer flag: below ``low`` is malformed
    input, above ``high`` a request past a size cap (ResourceError, which
    argparse passes through).  ``name`` is the type argparse names when the
    text is not an integer."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw!r}")
        if high is not None and value > high:
            raise ResourceError(f"argument {flag}: must be at most {high}, got {raw!r}")
        return value
    parse.__name__ = name
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herzkit",
                     description="Certified Schur-multiplier and predual-norm "
                                 "computations at desk scale.")
    parser.add_argument("--version", action="version", version=f"herzkit {VERSION}")
    sub = parser.add_subparsers(dest="verb")

    flags = {"p": dict(help="Schatten exponent (number or 'inf')"),
             "seed": dict(type=_integer("--seed", "seed", 0), default=0),
             "tol": dict(type=tolerance),
             "restarts": dict(type=_integer("--restarts", "restart_count", 0, MAX_COUNT)),
             "n": dict(type=_integer("--n", "dimension", 1, MAX_DIM)),
             "trials": dict(type=_integer("--trials", "trial_count", 1, MAX_COUNT))}

    def common(p_, *names, with_input=True, tol=None):
        # each verb registers only the named flags it reads, with its own --tol default
        if tol is not None:
            p_.set_defaults(tol=tol)
        if with_input:
            p_.add_argument("--input", required=True, help="CMatrix JSON file")
        p_.add_argument("--out", default=None, help="also write the document here")
        p_.add_argument("--format", choices=("json", "csv"), default="json")
        for name in names:
            p_.add_argument(f"--{name}", **flags[name])

    p_norm = sub.add_parser("norm", help="certified norm brackets")
    p_norm.add_argument("kind", choices=("schatten", "multiplier", "cb-ladder",
                                         "gamma2", "herz"))
    common(p_norm, "p", "seed", "tol", "restarts", "n")  # cmd_norm sets --tol's default

    p_verify = sub.add_parser("verify", help="invariant suites")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    common(p_verify, "p", "seed", "n", "trials", with_input=False)

    p_dec = sub.add_parser("decompose", help="emit decompositions")
    p_dec.add_argument("kind", choices=("herz", "isometric"))
    common(p_dec, "p", "seed", "restarts")

    p_iso = sub.add_parser("isometric", help="classify a symbol's Schur action")
    common(p_iso, "p", "seed", "tol", "restarts", "trials", tol=1e-8)

    p_cert = sub.add_parser("check-cert", help="re-validate a stored certificate")
    common(p_cert, "tol", tol=1e-9)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one serves every call of main
    return build_parser()


def _flatten_rows(record: dict) -> list:
    """CSV rows (operation, p, lower, upper, slack, passed) for a record,
    header first."""
    payload = record.get("payload", {})
    op = record.get("operation", "")
    pval = payload.get("p", "")
    rows = [["operation", "p", "lower", "upper", "slack", "passed"]]

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
    """Write --out first, so that a failed write prints only the error document."""
    document = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        text = document + "\n"
        if args.format == "csv":
            buf = _stdio.StringIO()
            csv.writer(buf).writerows(_flatten_rows(record))
            text = buf.getvalue()
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    print(document)


def _load_input_matrix(args) -> tuple[np.ndarray, str]:
    obj = read_json(args.input)
    return matrix_from_obj(obj), digest_obj(obj)


def _ascent_opts(args, default_restarts=16) -> AscentOptions:
    return AscentOptions(
        restarts=args.restarts if args.restarts is not None else default_restarts,
        seed=args.seed)


def _herz_opts(args) -> HerzOptions:
    return HerzOptions(restarts=args.restarts if args.restarts is not None else 8,
                       seed=args.seed)


def cmd_norm(args) -> int:
    params = {"kind": args.kind, "seed": args.seed}
    if args.kind in ("schatten", "herz"):  # their results have no target width
        if args.tol is not None:
            raise InputError(f"norm {args.kind} takes no --tol")
    else:
        tol = params["tol"] = 1e-6 if args.tol is None else args.tol
    A, dig = _load_input_matrix(args)
    t0 = time.perf_counter()
    if args.kind == "gamma2":
        b, cert = gamma2(A, tol=tol)
        payload = {"bracket": bracket_to_obj(b),
                   "certificate": certificate_to_obj(cert),
                   "matrix": matrix_to_obj(A)}
    else:  # every other kind reads --p
        pi = _parse_p(args.p)
        payload = {"p": p_to_obj(pi)}
        params["p"] = p_to_obj(pi)

    if args.kind == "schatten":
        payload["value"] = schatten_norm(A, pi)
    elif args.kind == "multiplier":
        b = multiplier_norm(A, pi, opts=_ascent_opts(args), gamma2_tol=tol)
        payload["bracket"] = bracket_to_obj(b)
    elif args.kind == "cb-ladder":
        height = args.n if args.n is not None else 3
        params["m_max"] = payload["m_max"] = height
        levels = cb_norm_ladder(A, pi, height, opts=_ascent_opts(args), gamma2_tol=tol)
        payload["levels"] = [bracket_to_obj(b) for b in levels]
    elif args.kind == "herz":
        res = herz_norm(A, pi, _herz_opts(args))
        payload["bracket"] = bracket_to_obj(res.bracket)
        payload["decomposition"] = decomposition_to_obj(res.best_decomposition)

    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record(f"norm.{args.kind}", payload, params, dig, elapsed), args)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    p = _parse_p(args.p) if args.p is not None else None
    reports = run_suite(args.suite, args.seed, n=args.n, trials=args.trials, p=p)
    payload = {"suites": reports, "passed": all(r.passed for r in reports)}
    params = {"suite": args.suite, "seed": args.seed,
              "n": args.n, "trials": args.trials}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record("verify", payload, params, None, elapsed), args)
    if not payload["passed"]:
        failing = [c.name for r in reports for c in r.checks if not c.passed]
        print(f"verify {args.suite}: FAILED {failing}", file=sys.stderr)
        return 1
    print(f"verify {args.suite}: ok", file=sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    A, dig = _load_input_matrix(args)
    t0 = time.perf_counter()
    if args.kind == "herz":
        pi = _parse_p(args.p)
        res = herz_norm(A, pi, _herz_opts(args))
        payload = {"p": p_to_obj(pi),
                   "decomposition": decomposition_to_obj(res.best_decomposition),
                   "bracket": bracket_to_obj(res.bracket, include_certificates=False)}
        params = {"kind": "herz", "p": p_to_obj(pi), "seed": args.seed}
    else:
        terms = dft_decompose(A)
        all_iso = all(
            classify_isometric(np.outer(t.a, t.b), 4.0).is_isometric for t in terms)
        payload = {"count": len(terms), "all_terms_isometric": all_iso,
                   "terms": terms}
        params = {"kind": "isometric"}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record(f"decompose.{args.kind}", payload, params, dig, elapsed), args)
    return 0


def cmd_isometric(args) -> int:
    A, dig = _load_input_matrix(args)
    pi = _parse_p(args.p)
    t0 = time.perf_counter()
    verdict = classify_isometric(A, pi, tol=args.tol)
    payload = {"p": p_to_obj(pi), "verdict": verdict}
    if verdict.is_isometric and verdict.a is not None:
        fwd = isometry_forward_check(verdict.a, verdict.b, pi,
                                     trials=args.trials if args.trials is not None else 16,
                                     seed=args.seed)
        payload["forward_check"] = fwd
    elif not verdict.is_isometric:
        w = isometry_witness_search(A, pi, _ascent_opts(args, default_restarts=8))
        payload["witness"] = w
    params = {"p": p_to_obj(pi), "tol": args.tol, "seed": args.seed}
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
    result = check_certificate(A, cert, tol=args.tol)
    payload = {"ok": bool(result), "reasons": list(result.reasons),
               "t": cert.t}
    elapsed = 1000.0 * (time.perf_counter() - t0)
    _emit(report_record("check-cert", payload, {"tol": args.tol}, dig, elapsed), args)
    if not result:
        print(f"certificate INVALID: {result.reasons}", file=sys.stderr)
        return 1
    print("certificate ok", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
