"""Command-line front end.

Every invocation writes exactly one JSON document to stdout (reports and
errors alike), as one line with sorted keys (``io.encode_document``; pipe
it through ``python -m json.tool`` to read it indented); human-oriented
diagnostics go to stderr.  Exit codes: 0 on success, 1 when a verification
command finds a violation or a certificate fails to validate, 2 on
malformed input or out-of-contract requests.

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

Every command is answered by one runner, ``_run``: it reads --input as the
command says (a matrix, a stored certificate, or nothing for the verify
suites), times the command's compute function, records and emits its
payload, and returns 1 when the payload reports a violation.

The --out file receives the same bytes, or a CSV flattening of its
brackets with --format csv (lower, upper, slack columns); --format csv
without --out exits 2.

The integer flags are checked as they are parsed: --seed at least 0,
--restarts 0 to 1024, --trials 1 to 1024 and --n 1 to 64.  Any other value
exits 2 with one error document, a ResourceError above the range.  A call
whose stdout is closed before its document is written exits 2 and writes
nothing to stderr.

``main`` builds its parser once per process and reuses it for every call;
``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stdio
import os
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
    encode_document,
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
    stdout still carries one JSON document; it and every subparser argparse
    builds from it take flags spelled in full only."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise InputError(message)


# the default of --p where a command cannot run without it; checked after
# parsing, so that a flag the command does not read is reported first
_REQUIRED = object()


def _parse_p(raw):
    """The parsed --p: a SchattenIndex ('inf', 'infinity' and 'oo' are the
    endpoint), or None where it is optional and absent."""
    if raw is _REQUIRED:
        raise InputError("--p is required for this command")
    if raw is None:
        return None
    return as_index(None if raw.strip().lower() == "oo" else raw)


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
    header first; a record with no bracket, value, check or verdict (a
    decompose isometric) gets one row of its operation and exponent."""
    payload, op = record["payload"], record["operation"]
    pval = payload.get("p", "")
    rows = [["operation", "p", "lower", "upper", "slack", "passed"]]
    if "levels" in payload:
        rows += [[f"{op}[m={m}]", pval, b["lower"], b["upper"], b["width"], ""]
                 for m, b in enumerate(payload["levels"], start=1)]
    elif "bracket" in payload:
        b = payload["bracket"]
        rows.append([op, pval, b["lower"], b["upper"], b["width"], ""])
    elif "value" in payload:
        rows.append([op, pval, payload["value"], payload["value"], 0.0, ""])
    elif "suites" in payload:
        rows += [[f"{srep['suite']}.{c['name']}", "", "", "", c["slack"], c["passed"]]
                 for srep in payload["suites"] for c in srep["checks"]]
    elif "ok" in payload:
        rows.append([op, "", "", "", "", payload["ok"]])
    elif "verdict" in payload:
        rows.append([op, pval, "", "", "", payload["verdict"]["is_isometric"]])
    else:
        rows.append([op, pval, "", "", "", ""])
    return rows


def _emit(record: dict, args) -> None:
    """Write --out first, so that a failed write prints only the error document."""
    document = encode_document(record)
    if args.out:
        text = document
        if args.format == "csv":
            buf = _stdio.StringIO()
            csv.writer(buf).writerows(_flatten_rows(record))
            text = buf.getvalue()
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    print(document, end="", flush=True)  # a closed stdout fails here, inside main


def _read_input(args) -> tuple:
    """The JSON of --input and what the command computes on: a matrix; a
    (matrix, certificate) pair, stored by 'norm gamma2' or given as a
    certificate object with an extra 'A' field; or (None, None) for the
    verify suites, which draw their own."""
    if args.read is None:
        return None, None
    obj = read_json(args.input)
    if args.read == "matrix":
        return obj, matrix_from_obj(obj)
    if isinstance(obj, dict) and "payload" in obj:
        inner = obj["payload"]
        if not isinstance(inner, dict) or "matrix" not in inner \
                or "certificate" not in inner:
            raise InputError("report record lacks matrix or certificate payload")
        return obj, (matrix_from_obj(inner["matrix"]), certificate_from_obj(inner["certificate"]))
    if isinstance(obj, dict) and "A" in obj:
        return obj, (matrix_from_obj(obj["A"]), certificate_from_obj(obj))
    raise InputError("certificate file must embed its matrix: either a "
                     "'norm gamma2' report record or a certificate object "
                     "with an extra 'A' field")


def _run(args) -> int:
    """Answer one parsed call, the same way for every command: read --input,
    time the command's compute(x, args), and emit its one record.  A matrix
    command's payload holds the exponent where it reads --p; the
    record's parameters are the kind or suite and every flag the command
    declares, at its parsed value.  Returns 1 when the payload field named
    by the command's verdict is false (a check found a violation), else 0."""
    obj, x = _read_input(args)
    if isinstance(obj, dict):  # a record read is digested without its timing
        obj = {k: v for k, v in obj.items() if k != "elapsed_ms"}
    t0 = time.perf_counter()
    payload = args.compute(x, args)
    params = {name: getattr(args, name) for name in args.parameters}
    if params.get("p") is not None:
        params["p"] = p_to_obj(params["p"])
        if args.read == "matrix":
            payload["p"] = params["p"]
    _emit(report_record(args.operation, payload, params, args.read and digest_obj(obj),
                        1000.0 * (time.perf_counter() - t0)), args)
    if args.verdict and not payload[args.verdict]:
        print(f"{args.operation}: FAILED, {args.verdict} is false", file=sys.stderr)
        return 1
    return 0


def norm_schatten(A, args) -> dict:
    return {"value": schatten_norm(A, args.p)}


def norm_multiplier(A, args) -> dict:
    b = multiplier_norm(A, args.p, AscentOptions(restarts=args.restarts, seed=args.seed),
                        gamma2_tol=args.tol)
    return {"bracket": bracket_to_obj(b)}


def norm_cb_ladder(A, args) -> dict:
    levels = cb_norm_ladder(A, args.p, args.n,
                            AscentOptions(restarts=args.restarts, seed=args.seed),
                            gamma2_tol=args.tol)
    return {"m_max": args.n, "levels": [bracket_to_obj(b) for b in levels]}


def norm_gamma2(A, args) -> dict:
    b, cert = gamma2(A, tol=args.tol)
    return {"bracket": bracket_to_obj(b), "certificate": certificate_to_obj(cert),
            "matrix": matrix_to_obj(A)}


def herz(A, args) -> dict:
    """norm herz and decompose herz; the decomposition's bracket goes
    without its certificates."""
    res = herz_norm(A, args.p, HerzOptions(restarts=args.restarts, seed=args.seed))
    return {"bracket": bracket_to_obj(res.bracket, include_certificates=args.verb == "norm"),
            "decomposition": decomposition_to_obj(res.best_decomposition)}


def decompose_isometric(A, args) -> dict:
    terms = dft_decompose(A)
    all_iso = all(classify_isometric(np.outer(t.a, t.b), 4.0).is_isometric for t in terms)
    return {"count": len(terms), "all_terms_isometric": all_iso, "terms": terms}


def isometric(A, args) -> dict:
    verdict = classify_isometric(A, args.p, tol=args.tol)
    payload = {"verdict": verdict}
    if verdict.is_isometric and verdict.a is not None:
        payload["forward_check"] = isometry_forward_check(
            verdict.a, verdict.b, args.p, trials=args.trials, seed=args.seed)
    elif not verdict.is_isometric:
        payload["witness"] = isometry_witness_search(
            A, args.p, AscentOptions(restarts=args.restarts, seed=args.seed))
    return payload


def verify(_, args) -> dict:
    reports = run_suite(**{name: getattr(args, name) for name in args.parameters})
    return {"suites": reports, "passed": all(r.passed for r in reports)}


def check_cert(A_cert, args) -> dict:
    A, cert = A_cert
    result = check_certificate(A, cert, tol=args.tol)
    return {"ok": bool(result), "reasons": list(result.reasons), "t": cert.t}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herzkit",
                     description="Certified Schur-multiplier and predual-norm "
                                 "computations at desk scale.")
    parser.add_argument("--version", action="version", version=f"herzkit {VERSION}")
    verbs = parser.add_subparsers(dest="verb", required=True)

    def command(sub, name, compute, operation, key=(), read="matrix", verdict=None,
                help=None, **flags):
        # one command: how it reads --input, the flags it reads at their
        # defaults, and what _run computes; its record lists the kind or
        # suite (key) and the flags
        cmd = sub.add_parser(name, help=help)
        if read is not None:
            cmd.add_argument("--input", required=True, help=f"the {read}, a JSON file")
        cmd.add_argument("--out", default=None, help="also write the document here")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, default in flags.items():
            cmd.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
        cmd.set_defaults(compute=compute, operation=operation, read=read, verdict=verdict,
                         parameters=(*key, *flags))

    def kinds(verb, key, help, operation=None):
        # a verb whose kinds (or suites) are commands of their own
        sub = verbs.add_parser(verb, help=help).add_subparsers(dest=key, required=True)
        return lambda name, compute, **kw: command(
            sub, name, compute, operation or f"{verb}.{name}", (key,), **kw)

    norm = kinds("norm", "kind", "certified norm brackets")
    norm("schatten", norm_schatten, p=_REQUIRED)
    norm("multiplier", norm_multiplier, p=_REQUIRED, seed=0, tol=1e-6, restarts=16)
    norm("cb-ladder", norm_cb_ladder, p=_REQUIRED, seed=0, tol=1e-6, restarts=16, n=3)
    norm("gamma2", norm_gamma2, tol=1e-6)
    norm("herz", herz, p=_REQUIRED, seed=0, restarts=8)
    suites = kinds("verify", "suite", "invariant suites", operation="verify")
    for suite in SUITES + ("all",):
        p = dict(p=None) if suite in ("algebra", "all") else {}  # only algebra reads --p
        suites(suite, verify, read=None, verdict="passed", seed=0, n=None, trials=None, **p)
    decompose = kinds("decompose", "kind", "emit decompositions")
    decompose("herz", herz, p=_REQUIRED, seed=0, restarts=8)
    decompose("isometric", decompose_isometric)
    command(verbs, "isometric", isometric, "isometric",
            help="classify a symbol's Schur action",
            p=_REQUIRED, seed=0, tol=1e-8, restarts=8, trials=16)
    command(verbs, "check-cert", check_cert, "check-cert", read="certificate",
            verdict="ok", help="re-validate a stored certificate", tol=1e-9)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one serves every call of main
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            if "p" in args.parameters:
                args.p = _parse_p(args.p)
            if args.format == "csv" and args.out is None:
                raise InputError("--format csv needs --out")
            return _run(args)
        except (InputError, ResourceError) as exc:
            error = {
                "tool": "herzkit", "version": VERSION,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            print(encode_document(error), end="", flush=True)
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
