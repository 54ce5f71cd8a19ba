"""Command-line front end.

Every invocation writes exactly one JSON document to stdout (reports and
errors alike); human-oriented diagnostics go to stderr.  Exit codes: 0 on
success, 1 when a verification command finds a violation or a certificate
fails to validate, 2 on malformed input or out-of-contract requests.

Commands, each kind and each suite a command of its own:
    norm {schatten, multiplier, cb-ladder, gamma2, herz}
    verify {diagrams, contractivity, algebra, duality, isometry, all}
    decompose {herz, isometric}
    isometric
    check-cert

``build_parser`` declares once, for each command, the flags it reads
(--p, --seed, --tol, --restarts, --n, --trials) with their defaults.  The
flags follow the kind or suite; a flag the command does not read exits 2
("unrecognized arguments").  A record's ``parameters`` hold the kind or
suite and every flag the command declares, at its parsed value.

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


# the default of --p where a command cannot run without it; checked after
# parsing, so that a flag the command does not read is reported first
_REQUIRED = object()


def _parse_p(raw):
    """The parsed --p: a SchattenIndex, or None where it is optional and absent."""
    if raw is _REQUIRED:
        raise InputError("--p is required for this command")
    if raw is None:
        return None
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


# the flags a command may read; each command declares its own with their defaults
_FLAGS = {"p": dict(help="Schatten exponent (number or 'inf')"),
          "seed": dict(type=_integer("--seed", "seed", 0)),
          "tol": dict(type=tolerance),
          "restarts": dict(type=_integer("--restarts", "restart_count", 0, MAX_COUNT)),
          "n": dict(type=_integer("--n", "dimension", 1, MAX_DIM)),
          "trials": dict(type=_integer("--trials", "trial_count", 1, MAX_COUNT))}


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


def _record(args, operation: str, payload: dict, input_digest, t0: float) -> dict:
    """A command's record; its parameters are the kind or suite and every
    flag the command declares, at its parsed value."""
    params = {name: getattr(args, name) for name in args.parameters}
    if params.get("p") is not None:
        params["p"] = p_to_obj(params["p"])
    return report_record(operation, payload, params, input_digest,
                         1000.0 * (time.perf_counter() - t0))


def _on_matrix(operation: str):
    """Make compute(A, args) the handler of a command that reads --input as
    one matrix; its payload starts with the exponent where it reads --p."""
    def handler(compute):
        def run(args) -> int:
            obj = read_json(args.input)
            A, t0 = matrix_from_obj(obj), time.perf_counter()
            payload = compute(A, args)
            if "p" in args.parameters:
                payload = {"p": p_to_obj(args.p), **payload}
            _emit(_record(args, operation, payload, digest_obj(obj), t0), args)
            return 0
        return run
    return handler


@_on_matrix("norm.schatten")
def norm_schatten(A, args) -> dict:
    return {"value": schatten_norm(A, args.p)}


@_on_matrix("norm.multiplier")
def norm_multiplier(A, args) -> dict:
    b = multiplier_norm(A, args.p, AscentOptions(restarts=args.restarts, seed=args.seed),
                        gamma2_tol=args.tol)
    return {"bracket": bracket_to_obj(b)}


@_on_matrix("norm.cb-ladder")
def norm_cb_ladder(A, args) -> dict:
    levels = cb_norm_ladder(A, args.p, args.n,
                            AscentOptions(restarts=args.restarts, seed=args.seed),
                            gamma2_tol=args.tol)
    return {"m_max": args.n, "levels": [bracket_to_obj(b) for b in levels]}


@_on_matrix("norm.gamma2")
def norm_gamma2(A, args) -> dict:
    b, cert = gamma2(A, tol=args.tol)
    return {"bracket": bracket_to_obj(b), "certificate": certificate_to_obj(cert),
            "matrix": matrix_to_obj(A)}


@_on_matrix("norm.herz")
def norm_herz(A, args) -> dict:
    res = herz_norm(A, args.p, HerzOptions(restarts=args.restarts, seed=args.seed))
    return {"bracket": bracket_to_obj(res.bracket),
            "decomposition": decomposition_to_obj(res.best_decomposition)}


@_on_matrix("decompose.herz")
def decompose_herz(A, args) -> dict:
    res = herz_norm(A, args.p, HerzOptions(restarts=args.restarts, seed=args.seed))
    return {"decomposition": decomposition_to_obj(res.best_decomposition),
            "bracket": bracket_to_obj(res.bracket, include_certificates=False)}


@_on_matrix("decompose.isometric")
def decompose_isometric(A, args) -> dict:
    terms = dft_decompose(A)
    all_iso = all(classify_isometric(np.outer(t.a, t.b), 4.0).is_isometric for t in terms)
    return {"count": len(terms), "all_terms_isometric": all_iso, "terms": terms}


@_on_matrix("isometric")
def cmd_isometric(A, args) -> dict:
    verdict = classify_isometric(A, args.p, tol=args.tol)
    payload = {"verdict": verdict}
    if verdict.is_isometric and verdict.a is not None:
        payload["forward_check"] = isometry_forward_check(
            verdict.a, verdict.b, args.p, trials=args.trials, seed=args.seed)
    elif not verdict.is_isometric:
        payload["witness"] = isometry_witness_search(
            A, args.p, AscentOptions(restarts=args.restarts, seed=args.seed))
    return payload


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    reports = run_suite(**{name: getattr(args, name) for name in args.parameters})
    payload = {"suites": reports, "passed": all(r.passed for r in reports)}
    _emit(_record(args, "verify", payload, None, t0), args)
    if not payload["passed"]:
        failing = [c.name for r in reports for c in r.checks if not c.passed]
        print(f"verify {args.suite}: FAILED {failing}", file=sys.stderr)
        return 1
    print(f"verify {args.suite}: ok", file=sys.stderr)
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
    payload = {"ok": bool(result), "reasons": list(result.reasons), "t": cert.t}
    _emit(_record(args, "check-cert", payload, dig, t0), args)
    if not result:
        print(f"certificate INVALID: {result.reasons}", file=sys.stderr)
        return 1
    print("certificate ok", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herzkit",
                     description="Certified Schur-multiplier and predual-norm "
                                 "computations at desk scale.")
    parser.add_argument("--version", action="version", version=f"herzkit {VERSION}")
    verbs = parser.add_subparsers(dest="verb", required=True)

    def command(sub, name, run, key=(), help=None, **flags):
        # one command: the flags it reads at their defaults and the handler
        # that runs it; its record lists the kind or suite (key) and the flags
        cmd = sub.add_parser(name, help=help)
        if key != ("suite",):  # the verify suites draw their own inputs
            cmd.add_argument("--input", required=True, help="CMatrix JSON file")
        cmd.add_argument("--out", default=None, help="also write the document here")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, default in flags.items():
            cmd.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
        cmd.set_defaults(run=run, parameters=(*key, *flags))

    def kinds(verb, key, help):
        # a verb whose kinds (or suites) are commands of their own
        sub = verbs.add_parser(verb, help=help).add_subparsers(dest=key, required=True)
        return lambda name, run, **flags: command(sub, name, run, (key,), **flags)

    norm = kinds("norm", "kind", "certified norm brackets")
    norm("schatten", norm_schatten, p=_REQUIRED)
    norm("multiplier", norm_multiplier, p=_REQUIRED, seed=0, tol=1e-6, restarts=16)
    norm("cb-ladder", norm_cb_ladder, p=_REQUIRED, seed=0, tol=1e-6, restarts=16, n=3)
    norm("gamma2", norm_gamma2, tol=1e-6)
    norm("herz", norm_herz, p=_REQUIRED, seed=0, restarts=8)
    verify = kinds("verify", "suite", "invariant suites")
    for suite in SUITES + ("all",):
        p = dict(p=None) if suite in ("algebra", "all") else {}  # only algebra reads --p
        verify(suite, cmd_verify, seed=0, n=None, trials=None, **p)
    decompose = kinds("decompose", "kind", "emit decompositions")
    decompose("herz", decompose_herz, p=_REQUIRED, seed=0, restarts=8)
    decompose("isometric", decompose_isometric)
    command(verbs, "isometric", cmd_isometric, help="classify a symbol's Schur action",
            p=_REQUIRED, seed=0, tol=1e-8, restarts=8, trials=16)
    command(verbs, "check-cert", cmd_check_cert, help="re-validate a stored certificate",
            tol=1e-9)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one serves every call of main
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "p" in args.parameters:
            args.p = _parse_p(args.p)
        return args.run(args)
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
