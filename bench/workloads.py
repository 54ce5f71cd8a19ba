"""Seeded inputs, fixed request lists and oracles of the four workloads.

Every workload is a closed loop with one client: one process, one thread,
one request in flight; the next request is sent when the previous returns.

Inputs.  Each request slot has a fixed base symbol (a ``random_matrix``
draw with a constant seed, or a structured oracle symbol).  The benchmark
seed draws how that symbol is presented: row and column permutations,
unimodular diagonal scalings (signs for real symbols) and a transpose.
Every norm herzkit computes is invariant under these maps, so the true
values do not depend on the seed while the inputs the program sees do.
The work moves with the seed only through the path the solvers' fixed
random starts take from each presentation: up to a third per small
herz_norm request, a few percent per pass.  A held-out seed still feeds
inputs no change was tuned on.

A request returns a ``Result``: the brackets it produced (for
``converged_frac`` and ``rel_width_gmean``), a key that must repeat
bit-for-bit across passes and between traced and untraced passes, and the
oracle violations found (any violation, or an exception, fails it).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# looked up at call time, so the trace wrappers see every call
import herzkit as hk
import herzkit.cli as hcli
import herzkit.io as hio

WORKLOADS = ("endpoint-certify", "interior-ladder", "predual-algebra", "cli-verify")

# relative slack for "the bracket contains the known value"
ORACLE_SLACK = 1e-8
# relative slack for algebra results that must represent their product exactly
EXACT_SLACK = 1e-10


@dataclass
class Result:
    brackets: list = field(default_factory=list)   # (lower, upper, converged)
    key: tuple = ()
    errors: list = field(default_factory=list)


@dataclass
class Request:
    label: str
    run: Callable[[], Result]


@dataclass
class Workload:
    name: str
    requests: list
    warmup: Callable[[], object]
    # cli-verify only: the process runner, which keeps per-call records
    cli: "Cli | None" = None


# ---------------------------------------------------------------- inputs

def sylvester_hadamard(n: int) -> np.ndarray:
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H.astype(complex)


def present(A: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A seeded presentation of A that every herzkit norm is invariant under."""
    n = A.shape[0]
    real = not np.any(A.imag)
    if real:
        d1, d2 = rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], n)
    else:
        d1 = np.exp(2j * np.pi * rng.random(n))
        d2 = np.exp(2j * np.pi * rng.random(n))
    B = (d1[:, None] * A * d2[None, :])[np.ix_(rng.permutation(n), rng.permutation(n))]
    return np.ascontiguousarray(B.T if rng.random() < 0.5 else B).astype(complex)


def rank_one_unimodular(n: int, rng: np.random.Generator) -> np.ndarray:
    a = np.exp(2j * np.pi * rng.random(n))
    b = np.exp(2j * np.pi * rng.random(n))
    return np.outer(a, b)


class Inputs:
    """Seeded symbols: ``random(n, ensemble)`` presents a fixed base draw."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._slot = 0

    def random(self, n: int, ensemble: str) -> np.ndarray:
        self._slot += 1
        base = hk.random_matrix(n, ensemble, seed=1000 + 37 * self._slot + n)
        return present(base, self.rng)

    def oracle(self, A: np.ndarray) -> np.ndarray:
        return present(A, self.rng)


# ---------------------------------------------------------------- checks

def bracket_tuple(b) -> tuple:
    return (float(b.lower), float(b.upper), bool(b.converged))


def bracket_errors(br: tuple, label: str) -> list:
    lo, up = br[0], br[1]
    if not (math.isfinite(lo) and math.isfinite(up)):
        return [f"{label}: non-finite bracket [{lo}, {up}]"]
    # NormBracket allows lower to exceed upper by 1e-9 (1 + |upper|) of rounding
    if lo > up + 1e-9 * (1.0 + abs(up)):
        return [f"{label}: crossed bracket [{lo}, {up}]"]
    return []


def contains_errors(br: tuple, value: float, label: str) -> list:
    lo, up = br[0], br[1]
    slack = ORACLE_SLACK * (1.0 + abs(value))
    if not (lo - slack <= value <= up + slack):
        return [f"{label}: known value {value!r} outside [{lo}, {up}]"]
    return []


def exact_errors(got: np.ndarray, want: np.ndarray, label: str) -> list:
    dev = float(np.max(np.abs(got - want), initial=0.0))
    if got.shape != want.shape or dev > EXACT_SLACK * (1.0 + float(np.max(np.abs(want)))):
        return [f"{label}: does not represent its product (deviation {dev:.3e})"]
    return []


def equal_errors(got: float, want: float, label: str, rel: float = EXACT_SLACK) -> list:
    if abs(got - want) > rel * (1.0 + abs(want)):
        return [f"{label}: {got!r} != expected {want!r}"]
    return []


# ---------------------------------------------------------------- endpoint-certify

def certificate_errors(label: str, A: np.ndarray, b, cert) -> tuple[tuple, list]:
    """io round trip plus check, then a tampered copy that must be refused."""
    text = json.dumps(hio.certificate_to_obj(cert))
    back = hio.certificate_from_obj(json.loads(text))
    check = hk.check_certificate(A, back)
    errs = [] if check.ok else [f"{label}: certificate refused after io: {check.reasons}"]
    # claim an upper bound 10% below the witnessed lower bound
    bad = hk.check_certificate(A, replace(back, t=0.9 * float(b.lower)))
    if bad.ok:
        errs.append(f"{label}: tampered certificate accepted")
    return (bool(check.ok), float(back.t), bool(bad.ok)), errs


def _gamma2_request(label: str, A: np.ndarray, known=None) -> Request:
    """A certified bracket: gamma2, then its certificate through io and checks."""
    def run() -> Result:
        b, cert = hk.gamma2(A, tol=1e-4)
        br = bracket_tuple(b)
        errs = bracket_errors(br, label)
        if known is not None:
            errs += contains_errors(br, known, label)
        key, cert_errs = certificate_errors(label, A, b, cert)
        return Result([br], br + key, errs + cert_errs)

    return Request(label, run)


def _herz_request(label: str, C: np.ndarray, p, known=None) -> Request:
    def run() -> Result:
        res = hk.herz_norm(C, p)
        br, d = bracket_tuple(res.bracket), res.best_decomposition
        errs = bracket_errors(br, label)
        errs += exact_errors(d.represented(), C, f"{label} decomposition")
        errs += equal_errors(d.cost, br[1], f"{label} decomposition cost", 1e-9)
        if known is not None:
            errs += contains_errors(br, known, label)
        return Result([br], br + (len(d.terms),), errs)

    return Request(label, run)


def endpoint_certify(seed: int, small: bool = False) -> Workload:
    """gamma2 (both sides), certificates through io, herz at p = 1."""
    inp = Inputs(seed)
    # the n = 32 sign symbol ends converged=False with the bisection and
    # Douglas-Rachford upper side, so converged_frac has room to move
    sizes = [(3, "gaussian"), (3, "unitary"), (3, "sparse"), (8, "sign"),
             (16, "gaussian"), (32, "sign")]
    N = 8
    if small:
        sizes, N = [(3, "gaussian"), (3, "sparse")], 4
    reqs = [_gamma2_request(f"gamma2-{ens}-{n}", inp.random(n, ens)) for n, ens in sizes]
    # known values: sqrt(n) for a Sylvester Hadamard matrix, 1 for the
    # identity, the all-ones matrix and a rank-one unimodular symbol
    reqs += [
        _gamma2_request(f"gamma2-hadamard-{N}", inp.oracle(sylvester_hadamard(N)),
                        math.sqrt(N)),
        _gamma2_request(f"gamma2-identity-{N}", inp.oracle(np.eye(N, dtype=complex)), 1.0),
        _gamma2_request(f"gamma2-ones-{N}", np.ones((N, N), dtype=complex), 1.0),
        _gamma2_request(f"gamma2-rank1-{N}", rank_one_unimodular(N, inp.rng), 1.0),
    ]
    for n, ens in ([(3, "gaussian")] if small else [(3, "gaussian"), (8, "sign")]):
        reqs.append(_herz_request(f"herz-p1-{ens}-{n}", inp.random(n, ens), 1.0))
    warm = inp.random(3, "sparse")
    return Workload("endpoint-certify", reqs, lambda: hk.gamma2(warm, tol=1e-4))


# ---------------------------------------------------------------- interior-ladder

def interior_ladder(seed: int, small: bool = False) -> Workload:
    """norm_ascent at finite p; gamma2 only for the interpolation upper."""
    inp = Inputs(seed)
    opts = hk.AscentOptions(restarts=16)   # the CLI default
    cases = [(3, "gaussian", 1.5), (3, "sign", 4.0), (8, "gaussian", 3.0),
             (8, "sparse", 1.5), (8, "sign", 4.0), (16, "sign", 1.5)]
    ladders = [(3, "gaussian", 3), (4, "sign", 2)]
    witnesses = [(3, "gaussian"), (8, "sign")]
    if small:
        cases, ladders, witnesses = [(3, "sign", 4.0)], [(3, "gaussian", 2)], [(3, "gaussian")]
    reqs: list = []
    symbols = []
    for n, ens, p in cases:
        A = inp.random(n, ens)
        symbols.append((f"{ens}-{n}", A))

        def run(A=A, p=p, label=f"multiplier-p{p:g}-{ens}-{n}") -> Result:
            b = hk.multiplier_norm(A, p, opts)
            br = bracket_tuple(b)
            return Result([br], br, bracket_errors(br, label))

        reqs.append(Request(f"multiplier-p{p:g}-{ens}-{n}", run))

    for n, ens, m in ladders:
        A = inp.random(n, ens)

        def ladder(A=A, m=m, label=f"ladder-p1.5-{ens}-{n}-m{m}") -> Result:
            brs = [bracket_tuple(b) for b in hk.cb_norm_ladder(A, 1.5, m, opts)]
            errs = [e for k, br in enumerate(brs)
                    for e in bracket_errors(br, f"{label} level {k + 1}")]
            if len(brs) != m:
                errs.append(f"{label}: {len(brs)} levels, expected {m}")
            # lower bounds are nondecreasing up to re-evaluation rounding
            for k in range(1, len(brs)):
                lo, prev = brs[k][0], brs[k - 1][0]
                if lo < prev - 1e-9 * (1.0 + prev):
                    errs.append(f"{label}: lower bound fell at level {k + 1}")
            return Result(brs, tuple(brs), errs)

        reqs.append(Request(f"ladder-p1.5-{ens}-{n}-m{m}", ladder))

    for n, ens in witnesses:
        A = inp.random(n, ens)

        def witness(A=A, label=f"witness-p4-{ens}-{n}") -> Result:
            w = hk.isometry_witness_search(A, 4.0)
            errs = [] if w.deviation > 1e-6 else [
                f"{label}: non-isometric symbol got deviation {w.deviation}"]
            return Result(key=(float(w.deviation), float(w.ratio), w.mode), errors=errs)

        reqs.append(Request(f"witness-p4-{ens}-{n}", witness))

    # p = 2 oracles: the multiplier norm is the largest entry modulus
    for name, A in symbols[:3]:
        known = float(np.max(np.abs(A)))

        def exact(A=A, known=known, label=f"multiplier-p2-{name}") -> Result:
            br = bracket_tuple(hk.multiplier_norm(A, 2.0, opts))
            errs = bracket_errors(br, label) + equal_errors(br[1], known, label, 0.0)
            return Result([br], br, errs + contains_errors(br, known, label))

        reqs.append(Request(f"multiplier-p2-{name}", exact))
    A2 = inp.random(4, "gaussian")
    known2 = float(np.max(np.abs(A2)))

    def ladder2() -> Result:
        brs = [bracket_tuple(b) for b in hk.cb_norm_ladder(A2, 2.0, 3, opts)]
        errs = [e for br in brs for e in
                bracket_errors(br, "ladder-p2") + contains_errors(br, known2, "ladder-p2")]
        return Result(brs, tuple(brs), errs)

    reqs.append(Request("ladder-p2-gaussian-4-m3", ladder2))
    warm = inp.random(3, "sign")
    return Workload("interior-ladder", reqs,
                    lambda: hk.multiplier_norm(warm, 4.0, hk.AscentOptions(restarts=2)))


# ---------------------------------------------------------------- predual-algebra

def predual_algebra(seed: int, small: bool = False) -> Workload:
    """herz refinement, phase ascent and DFT seed; no p = 1 (that routes into gamma2)."""
    inp = Inputs(seed)
    symbols = [(3, "gaussian"), (3, "sign"), (8, "gaussian"), (8, "sparse"),
               (16, "sign"), (16, "sparse")]
    exps = (1.5, 3.0)
    if small:
        symbols, exps = [(3, "gaussian"), (3, "sign")], (1.5,)
    reqs: list = []
    for n, ens in symbols:
        C = inp.random(n, ens)
        for p in exps:
            reqs.append(_herz_request(f"herz-p{p:g}-{ens}-{n}", C, p))
    for n, ens in symbols[:3]:
        C = inp.random(n, ens)
        reqs.append(_herz_request(f"herz-p2-{ens}-{n}", C, 2.0,
                                  known=float(np.sum(np.abs(C)))))

    # algebra on decompositions found at p = 1.5
    pairs = [(3, "gaussian", "sign")] + ([] if small else [(8, "gaussian", "sparse")])
    for n, e1, e2 in pairs:
        C, D = inp.random(n, e1), inp.random(n, e2)
        J = sorted(inp.rng.choice(n, size=max(1, n // 2), replace=False).tolist())
        hold: dict = {}
        label = f"{e1}-{e2}-{n}"

        def decompose(C=C, D=D, hold=hold) -> Result:
            x = hk.herz_norm(C, 1.5).best_decomposition
            y = hk.herz_norm(D, 1.5).best_decomposition
            hold["x"], hold["y"] = x, y
            return Result(key=(x.cost, y.cost), errors=[])

        def schur(hold=hold, label=label) -> Result:
            x, y = hold["x"], hold["y"]
            z = hk.herz_schur_product(x, y)
            errs = exact_errors(z.represented(), x.represented() * y.represented(),
                                f"schur-{label}")
            if z.cost > x.cost * y.cost * (1.0 + 1e-9):
                errs.append(f"schur-{label}: cost {z.cost} above product of costs")
            return Result(key=(z.cost, len(z.terms)), errors=errs)

        def tensor(hold=hold, label=label) -> Result:
            x, y = hold["x"], hold["y"]
            z = hk.herz_tensor(x, y)
            errs = exact_errors(z.represented(), np.kron(x.represented(), y.represented()),
                                f"tensor-{label}")
            errs += equal_errors(z.cost, x.cost * y.cost, f"tensor-{label} cost", 1e-9)
            return Result(key=(z.cost, len(z.terms)), errors=errs)

        def trunc(hold=hold, J=J, label=label) -> Result:
            x = hold["x"]
            z = hk.herz_truncate(x, J)
            errs = exact_errors(z.represented(), hk.truncate(x.represented(), J),
                                f"truncate-{label}")
            if z.cost > x.cost * (1.0 + 1e-9):
                errs.append(f"truncate-{label}: cost {z.cost} above {x.cost}")
            return Result(key=(z.cost, len(z.terms)), errors=errs)

        reqs += [Request(f"decompose-{label}", decompose),
                 Request(f"schur-{label}", schur),
                 Request(f"tensor-{label}", tensor),
                 Request(f"truncate-{label}", trunc)]
        for product in ("schur", "matrix"):
            def submult(C=C, D=D, product=product, label=f"submult-{product}-{label}"):
                rep = hk.submultiplicativity_check(C, D, 1.5, product=product)
                errs = [] if rep.passed else [f"{label}: failed, slack {rep.slack}"]
                return Result(key=(rep.lower_product, rep.upper_left, rep.upper_right),
                              errors=errs)

            reqs.append(Request(f"submult-{product}-{label}", submult))
    warm = inp.random(3, "gaussian")
    return Workload("predual-algebra", reqs, lambda: hk.herz_norm(warm, 1.5))


# ---------------------------------------------------------------- cli-verify

class Cli:
    """Runs herzkit CLI calls one at a time, in one of three modes.

    "inprocess" calls ``herzkit.cli.main`` and captures stdout; "cold"
    starts ``python -m herzkit.cli``; "boot" starts ``boot.py``, which
    installs the trace wrappers and writes its span summary to a file.
    Timed passes run in process: cold starts on this 2-core VM swing by
    about 65% between periods of minutes, which put the ten-seed spread of
    cold passes at 0.29-0.39.  The cold start is still paid by every
    set-up (one cold call each) and is broken down by the traced run.
    """

    def __init__(self, root, workdir: str, env: dict):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.mode = "inprocess"
        self.procs: list = []   # boot mode: per-process wall time and spans
        self._count = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def call(self, *argv: str, mode: str | None = None) -> tuple[int, str]:
        mode = mode or self.mode
        if mode == "inprocess":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = hcli.main(list(argv))
            return code, out.getvalue()
        self._count += 1
        span_path = self.path(f"call{self._count}.spans.json")
        if mode == "boot":
            cmd = [sys.executable, str(self.root / "bench" / "boot.py"), span_path, *argv]
        else:
            cmd = [sys.executable, "-m", "herzkit.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=self.env, cwd=self.workdir, text=True)
        wall = time.perf_counter() - start
        if mode == "boot":
            with open(span_path, encoding="utf-8") as fh:
                self.procs.append({"wall_ms": 1e3 * wall, "trace": json.load(fh)})
            os.remove(span_path)
        return proc.returncode, proc.stdout


def _document(label: str, code: int, text: str, want_code: int) -> tuple[dict, list]:
    """Parse exactly one JSON document and check the exit code."""
    errs = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, [f"{label}: stdout is not one JSON document ({exc})"]
    if not isinstance(doc, dict):
        errs.append(f"{label}: JSON document is not an object")
        doc = {}
    if code != want_code:
        errs.append(f"{label}: exit code {code}, expected {want_code}")
    return doc, errs


def _doc_key(doc: dict) -> str:
    # the payload, not the record digest: a record's input digest covers
    # the elapsed_ms of the file it read
    return json.dumps(doc.get("payload", doc), sort_keys=True)


def _doc_bracket(b: dict) -> tuple:
    return (float(b["lower"]), float(b["upper"]), bool(b["converged"]))


def cli_verify(seed: int, root, workdir: str, env: dict, small: bool = False) -> Workload:
    """The CLI's parsing, files, JSON output and verify suites (see Cli)."""
    inp = Inputs(seed)
    cli = Cli(root, workdir, env)
    files = {
        "gauss8": inp.random(8, "gaussian"),
        "unitary8": inp.random(8, "unitary"),
        "sparse16": inp.random(16, "sparse"),
        "gauss4": inp.random(4, "gaussian"),
        "rank1": rank_one_unimodular(6, inp.rng),
        "hadamard8": inp.oracle(sylvester_hadamard(8)),
        "ident4": inp.oracle(np.eye(4, dtype=complex)),
        "gauss3": inp.random(3, "gaussian"),
    }
    for name, M in files.items():
        hio.save_matrix(cli.path(f"{name}.json"), M)
    with open(cli.path("malformed.json"), "w", encoding="utf-8") as fh:
        json.dump({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}, fh)

    def f(name: str) -> str:
        return cli.path(f"{name}.json")

    def req(label, argv, want_code=0, check=None, bracket_path=None):
        def run() -> Result:
            code, text = cli.call(*argv)
            doc, errs = _document(label, code, text, want_code)
            brs = []
            if not errs:
                payload = doc.get("payload", {})
                if bracket_path == "bracket":
                    brs = [_doc_bracket(payload["bracket"])]
                elif bracket_path == "levels":
                    brs = [_doc_bracket(b) for b in payload["levels"]]
                errs += [e for br in brs for e in bracket_errors(br, label)]
                if check is not None:
                    errs += check(doc)
            return Result(brs, (code, _doc_key(doc)), errs)
        return Request(label, run)

    def value_is(want, label):
        return lambda doc: equal_errors(float(doc["payload"]["value"]), want, label)

    def bracket_is(want, label):
        def check(doc):
            b = doc["payload"]["bracket"]
            return (equal_errors(float(b["lower"]), want, label)
                    + equal_errors(float(b["upper"]), want, label))
        return check

    def contains(want, label):
        return lambda doc: contains_errors(_doc_bracket(doc["payload"]["bracket"]), want, label)

    def levels_are(want, label):
        return lambda doc: [e for b in doc["payload"]["levels"]
                            for e in equal_errors(float(b["upper"]), want, label)]

    def verdict_is(flag, label):
        def check(doc):
            got = doc["payload"]["verdict"]["is_isometric"]
            return [] if got is flag else [f"{label}: is_isometric={got}, expected {flag}"]
        return check

    def reconstructs(M, label):
        def check(doc):
            terms = doc["payload"]["terms"]
            acc = np.zeros_like(M)
            for t in terms:
                c = complex(*t["coefficient"])
                acc += c * np.outer(hio.matrix_from_obj(t["a"]).ravel(),
                                    hio.matrix_from_obj(t["b"]).ravel())
            errs = exact_errors(acc, M, label)
            if len(terms) != M.size:
                errs.append(f"{label}: {len(terms)} terms, expected {M.size}")
            return errs
        return check

    def ok_is(flag, label):
        def check(doc):
            got = doc["payload"].get("ok")
            return [] if got is flag else [f"{label}: ok={got}, expected {flag}"]
        return check

    def is_error(label):
        return lambda doc: [] if "error" in doc else [f"{label}: no error document"]

    def passed(label):
        return lambda doc: [] if doc["payload"].get("passed") is True else [
            f"{label}: suite did not pass"]

    G, S16 = files["gauss8"], files["sparse16"]
    reqs = [
        # every singular value of a unitary is 1
        req("schatten-p1-unitary", ["norm", "schatten", "--input", f("unitary8"), "--p", "1"],
            check=value_is(8.0, "schatten-p1-unitary")),
        req("schatten-inf-unitary", ["norm", "schatten", "--input", f("unitary8"), "--p", "inf"],
            check=value_is(1.0, "schatten-inf-unitary")),
        req("schatten-p2-gauss", ["norm", "schatten", "--input", f("gauss8"), "--p", "2"],
            check=value_is(float(np.sqrt(np.sum(np.abs(G) ** 2))), "schatten-p2-gauss")),
        req("multiplier-p2-gauss", ["norm", "multiplier", "--input", f("gauss8"), "--p", "2"],
            check=bracket_is(float(np.max(np.abs(G))), "multiplier-p2-gauss"),
            bracket_path="bracket"),
        req("multiplier-p2-sparse", ["norm", "multiplier", "--input", f("sparse16"), "--p", "2"],
            check=bracket_is(float(np.max(np.abs(S16))), "multiplier-p2-sparse"),
            bracket_path="bracket"),
        req("herz-p2-gauss", ["norm", "herz", "--input", f("gauss8"), "--p", "2"],
            check=bracket_is(float(np.sum(np.abs(G))), "herz-p2-gauss"),
            bracket_path="bracket"),
        req("herz-p2-gauss4", ["norm", "herz", "--input", f("gauss4"), "--p", "2"],
            check=bracket_is(float(np.sum(np.abs(files["gauss4"]))), "herz-p2-gauss4"),
            bracket_path="bracket"),
        req("cb-ladder-p2", ["norm", "cb-ladder", "--input", f("gauss4"), "--p", "2", "--n", "3"],
            check=levels_are(float(np.max(np.abs(files["gauss4"]))), "cb-ladder-p2"),
            bracket_path="levels"),
        req("gamma2-identity", ["norm", "gamma2", "--input", f("ident4")],
            check=contains(1.0, "gamma2-identity"), bracket_path="bracket"),
        req("isometric-rank1-p4", ["isometric", "--input", f("rank1"), "--p", "4"],
            check=verdict_is(True, "isometric-rank1-p4")),
        req("isometric-rank1-p3", ["isometric", "--input", f("rank1"), "--p", "3"],
            check=verdict_is(True, "isometric-rank1-p3")),
        req("isometric-hadamard-p4", ["isometric", "--input", f("hadamard8"), "--p", "4"],
            check=verdict_is(False, "isometric-hadamard-p4")),
        req("isometric-hadamard-p2", ["isometric", "--input", f("hadamard8"), "--p", "2"],
            check=verdict_is(True, "isometric-hadamard-p2")),
        req("decompose-isometric-4", ["decompose", "isometric", "--input", f("gauss4")],
            check=reconstructs(files["gauss4"], "decompose-isometric-4")),
        req("decompose-isometric-3", ["decompose", "isometric", "--input", f("gauss3")],
            check=reconstructs(files["gauss3"], "decompose-isometric-3")),
        req("gamma2-out", ["norm", "gamma2", "--input", f("gauss4"), "--out", f("record")],
            bracket_path="bracket"),
        req("check-cert", ["check-cert", "--input", f("record")],
            check=ok_is(True, "check-cert")),
    ]

    check_tampered = req("check-cert-tampered", ["check-cert", "--input", f("tampered")],
                         want_code=1, check=ok_is(False, "check-cert-tampered"))

    def tamper() -> Result:
        # the record with t 10% below its witnessed lower bound must be refused
        rec = hio.read_json(f("record"))
        b = rec["payload"]["bracket"]
        rec["payload"]["certificate"]["t"] = 0.9 * float(b["lower"])
        hio.write_json(f("tampered"), rec)
        return check_tampered.run()

    reqs.append(Request("check-cert-tampered", tamper))
    reqs += [
        req("malformed-matrix", ["norm", "schatten", "--input", f("malformed"), "--p", "2"],
            want_code=2, check=is_error("malformed-matrix")),
        req("malformed-p", ["norm", "multiplier", "--input", f("gauss4"), "--p", "two"],
            want_code=2, check=is_error("malformed-p")),
    ]
    if small:
        reqs = [r for r in reqs if r.label in (
            "schatten-inf-unitary", "multiplier-p2-gauss", "gamma2-out",
            "check-cert", "check-cert-tampered", "malformed-matrix")]
    else:
        # the three fast suites; "verify all" spends 15-20 s in algebra and
        # duality, one sample per run, and herz and gamma2 are timed above
        reqs += [req(f"verify-{suite}", ["verify", suite], check=passed(f"verify-{suite}"))
                 for suite in ("diagrams", "contractivity", "isometry")]

    warm = ("norm", "schatten", "--input", f("gauss3"), "--p", "2")
    return Workload("cli-verify", reqs, lambda: cli.call(*warm, mode="cold"), cli)


def build(name: str, seed: int, root, workdir: str, env: dict, small: bool = False) -> Workload:
    if name == "endpoint-certify":
        return endpoint_certify(seed, small)
    if name == "interior-ladder":
        return interior_ladder(seed, small)
    if name == "predual-algebra":
        return predual_algebra(seed, small)
    if name == "cli-verify":
        return cli_verify(seed, root, workdir, env, small)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
