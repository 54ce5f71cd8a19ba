"""Orchestrated verification suites behind the `verify` command.

Five named suites (diagrams, contractivity, algebra, duality, isometry)
each run a battery of invariant checks at a given size, seed and trial
count, returning machine-readable results with per-check slack.  Every
check is deterministic given its seed.  Most checks record the worst
excess or deviation over their trials and pass when it is at most their
tolerance (slack = tolerance - worst); a failing splice contractivity
check also carries the offending matrix, so that failure can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ascent import AscentOptions
from .core import (
    MAX_COUNT,
    MAX_DIM,
    InputError,
    as_index,
    gaussians,
    lp_norms,
    random_matrix,
    require_range,
    schatten_norms,
    trace_pairing,
    truncate,
)
from .herz import (
    herz_norm,
    herz_schur_product,
    pair_with_multiplier,
    submultiplicativity_check,
)
from .isometry import (
    classify_isometric,
    dft_decompose,
    isometry_forward_check,
    isometry_witness_search,
    sign_average_entry,
)
from .multipliers import (
    LinearOperatorOnSp,
    averaging_projection,
    inclusion_monotonicity_report,
    multiplier_norm,
)
from .structure import (
    EXACT_TOL,
    column_splice,
    diag_embed,
    diag_mask,
    partial_isometry_check,
    row_splice,
    splice_adjoint_defect,
    verify_diag_embed_diagram,
    verify_product_diagram,
)

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES", "DEFAULT_P_GRID"]

SUITES = ("diagrams", "contractivity", "algebra", "duality", "isometry")

# Exponents of the contractivity suite; None encodes the operator-norm endpoint.
DEFAULT_P_GRID = (1.0, 1.5, 2.0, 3.0, None)


def _plabel(p) -> str:
    pi = as_index(p)
    return "inf" if pi.is_inf else f"{pi.value:g}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    slack: float
    details: object = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    checks: list
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)


def _bound(name: str, excesses, tol: float, key: str) -> CheckResult:
    """Pass when the worst per-trial excess is at most tol (a NaN fails)."""
    worst = float(np.max(excesses))
    return CheckResult(name, worst <= tol, tol - worst, {key: worst})


def suite_diagrams(seed: int, n: int = 3, trials: int = 16) -> list:
    checks = []
    for name, runner in (("product_diagram", verify_product_diagram),
                         ("diag_embed_diagram", verify_diag_embed_diagram)):
        worst = max((runner(random_matrix(n, ensemble="gaussian", seed=seed + 101 * t),
                            random_trials=8, seed=seed + t)
                     for t in range(max(1, trials // 8))),
                    key=lambda rep: rep.max_deviation)
        checks.append(CheckResult(
            name, worst.passed, worst.tolerance - worst.max_deviation,
            {"max_deviation": worst.max_deviation, "n": n}))
        control = CheckResult(
            name + "_negative_control", worst.control_failed_as_expected,
            worst.control_deviation - worst.tolerance,
            {"control_deviation": worst.control_deviation})
        if n == 1:  # a 1 x 1 symbol has no off-diagonal entry, so no control can deviate
            control.passed, control.slack = True, 0.0
            control.details.update(applicable=False, reason="n = 1: no off-diagonal entry")
        checks.append(control)
    return checks


def suite_contractivity(seed: int, n: int = 3, trials: int = 12) -> list:
    iso = partial_isometry_check(n)  # refuses an n past its cap before any draw
    N = n * n
    tol = 1e-9

    X, Y = gaussians(N, seed, 1, trials), gaussians(N, seed + 1000, 1, trials)
    checks = [
        _bound("splice_adjointness", splice_adjoint_defect(X, Y), 1e-13, "max_defect"),
        CheckResult("partial_isometry", iso.passed,
                    EXACT_TOL - max(iso.rrr_defect, iso.projection_defect), iso),
    ]

    # each stack below takes one batched SVD, read at every exponent of the grid
    X = gaussians(N, seed, 7, trials)
    s_x, s_col, s_row = (np.linalg.svd(S, compute_uv=False)
                         for S in (X, column_splice(X), row_splice(X)))
    for p in DEFAULT_P_GRID:
        base = lp_norms(s_x, p)
        exc = np.maximum(lp_norms(s_col, p) - base, lp_norms(s_row, p) - base)
        check = _bound(f"splice_contractivity_p_{_plabel(p)}", exc, tol, "excess")
        if not check.passed:
            check.details["witness"] = X[np.argmax(exc)]
        checks.append(check)

    A = gaussians(n, seed, 11, trials)
    s_a, s_emb = (np.linalg.svd(S, compute_uv=False) for S in (A, diag_embed(A)))
    checks += [_bound(f"diag_embed_isometry_p_{_plabel(p)}",
                      np.abs(lp_norms(s_emb, p) - lp_norms(s_a, p)), 1e-12, "max_deviation")
               for p in DEFAULT_P_GRID]

    X = gaussians(N, seed, 13, trials)
    s_x, s_mask = (np.linalg.svd(S, compute_uv=False) for S in (X, diag_mask(n) * X))
    checks += [_bound(f"diag_mask_contractivity_p_{_plabel(p)}",
                      lp_norms(s_mask, p) - lp_norms(s_x, p), tol, "excess")
               for p in DEFAULT_P_GRID]

    A = gaussians(n, seed, 17, trials)
    J = list(range(max(1, n - 1)))
    checks.append(_bound("truncation_contractivity",
                         schatten_norms(np.stack([truncate(a, J) for a in A]), 1.5)
                         - schatten_norms(A, 1.5), tol, "excess"))

    idem, fix, contr = [], [], []
    for R, A in zip(gaussians(N, seed, 19, trials), gaussians(n, seed, 23, trials)):
        T = LinearOperatorOnSp(R)
        D = averaging_projection(T)
        D2 = averaging_projection(LinearOperatorOnSp.from_multiplier(D))
        idem.append(np.max(np.abs(D2 - D)))
        contr.append(np.max(np.abs(D)) - np.linalg.norm(T.rep, 2))
        MA = LinearOperatorOnSp.from_multiplier(A)
        fix.append(np.max(np.abs(averaging_projection(MA) - A)))
    checks += [_bound("averaging_idempotent", idem, 0.0, "max_deviation"),
               _bound("averaging_fixes_multipliers", fix, 0.0, "max_deviation"),
               _bound("averaging_p2_contractivity", contr, 1e-12, "excess")]
    return checks


def suite_algebra(seed: int, n: int = 3, trials: int = 8,
                  p: Optional[object] = None) -> list:
    def l1(M):
        return float(np.sum(np.abs(M)))

    pairs = [(random_matrix(n, ensemble="gaussian", seed=seed + 3 * t),
              random_matrix(n, ensemble="gaussian", seed=seed + 3 * t + 1))
             for t in range(4 * trials)]
    checks = [
        _bound("p2_matrix_submultiplicative",
               [l1(C @ D) - l1(C) * l1(D) for C, D in pairs], 1e-12, "excess"),
        _bound("p2_schur_submultiplicative",
               [l1(C * D) - l1(C) * l1(D) for C, D in pairs], 1e-12, "excess"),
    ]

    p_list = [as_index(p)] if p is not None else [as_index(1.0), as_index(3.0)]
    for pi in p_list:
        violations = []
        for t in range(trials):
            C = random_matrix(n, ensemble="sign", seed=seed + 5 * t)
            D = random_matrix(n, ensemble="gaussian", seed=seed + 5 * t + 2)
            violations += [-submultiplicativity_check(C, D, pi, product=kind).slack
                           for kind in ("schur", "matrix")]
        checks.append(_bound(f"bracket_submultiplicative_p_{_plabel(pi)}",
                             violations, 0.0, "worst_violation"))

    rep_dev, cost_exc = [], []
    for t in range(trials):
        C = random_matrix(n, ensemble="gaussian", seed=seed + 7 * t)
        D = random_matrix(n, ensemble="gaussian", seed=seed + 7 * t + 3)
        x = herz_norm(C, 1.5).best_decomposition
        y = herz_norm(D, 1.5).best_decomposition
        z = herz_schur_product(x, y)
        rep_dev.append(np.max(np.abs(z.represented() - C * D), initial=0.0))
        cost_exc.append(z.cost - x.cost * y.cost)
    checks += [_bound("schur_decomposition_exact", rep_dev, 1e-12, "max_deviation"),
               _bound("schur_decomposition_cost", cost_exc, 1e-9, "excess")]
    return checks


def suite_duality(seed: int, n: int = 3, trials: int = 8) -> list:
    opts = AscentOptions(restarts=4, max_iter=80, seed=seed)
    ps = [as_index(1.0), as_index(1.5), as_index(2.0), as_index(3.0)]

    excess = []
    for t in range(trials):
        A = random_matrix(n, ensemble="gaussian", seed=seed + 31 * t)
        C = random_matrix(n, ensemble="gaussian", seed=seed + 31 * t + 9)
        pi = ps[t % len(ps)]
        mb = multiplier_norm(A, pi, opts=AscentOptions(restarts=0, seed=seed))
        hb = herz_norm(C, pi)
        excess.append(abs(pair_with_multiplier(A, C)) - mb.upper * hb.bracket.upper - 1e-6)
    checks = [_bound("pairing_sandwich", excess, 0.0, "worst_excess")]

    gaps = []
    for t in range(max(2, trials // 2)):
        A = random_matrix(n, ensemble="gaussian", seed=seed + 41 * t)
        for pi in (as_index(1.5), as_index(1.0)):
            b1 = multiplier_norm(A, pi, opts=opts)
            b2 = multiplier_norm(A, pi.conjugate(), opts=opts)
            gaps.append(max(b1.lower - b2.upper, b2.lower - b1.upper) - 1e-6)
    checks.append(_bound("conjugate_exponent_duality", gaps, 0.0, "worst_gap"))

    violations = []
    for t in range(max(2, trials // 2)):
        A = random_matrix(n, ensemble="gaussian", seed=seed + 43 * t)
        rep = inclusion_monotonicity_report(A, (1.0, 1.5, 2.0), opts=opts)
        violations += [-pr["slack"] for pr in rep.pairs]
    checks.append(_bound("inclusion_monotonicity", violations, 0.0, "worst_violation"))
    return checks


def suite_isometry(seed: int, n: int = 4, trials: int = 8) -> list:
    checks = []
    rng = np.random.default_rng(seed)
    p4 = as_index(4.0)

    a = np.exp(2j * np.pi * rng.random(n))
    b = np.exp(2j * np.pi * rng.random(n))
    C = np.outer(a, b)
    v = classify_isometric(C, p4)
    fwd = isometry_forward_check(v.a, v.b, p4, trials=trials, seed=seed) \
        if v.is_isometric else None
    ok = v.is_isometric and fwd is not None and fwd.passed
    checks.append(CheckResult("classify_rank_one_unimodular", ok,
                              (fwd.tolerance - fwd.max_ratio_deviation) if fwd else -1.0,
                              {"verdict": v.reason}))

    Cz = C.copy()
    Cz[0, 0] = 0.0
    vz = classify_isometric(Cz, p4)
    checks.append(CheckResult("classify_zero_entry",
                              (not vz.is_isometric) and vz.reason == "zero_entry",
                              0.0, {"verdict": vz.reason}))

    H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    vh = classify_isometric(H2, p4)
    w = isometry_witness_search(
        H2, p4, AscentOptions(restarts=4, max_iter=80, seed=seed))
    ok = (not vh.is_isometric) and vh.reason == "not_rank_one_unimodular" \
        and w.deviation >= 1e-3
    checks.append(CheckResult("hadamard_not_isometric", ok, w.deviation - 1e-3,
                              {"verdict": vh.reason, "deviation": w.deviation,
                               "mode": w.mode}))

    recon = []
    for t in range(trials):
        m = 2 + (t % 3)
        M = random_matrix(m, ensemble="gaussian", seed=seed + 53 * t)
        terms = dft_decompose(M)
        rec = sum(t_.coefficient * np.outer(t_.a, t_.b) for t_ in terms)
        recon.append(np.max(np.abs(rec - M)))
        if t == 0:
            sub = classify_isometric(np.outer(terms[1].a, terms[1].b), p4)
            checks.append(CheckResult("dft_terms_isometric", sub.is_isometric,
                                      0.0, {"verdict": sub.reason}))
    checks.append(_bound("dft_reconstruction", recon, 1e-10, "max_deviation"))

    M = random_matrix(n, ensemble="gaussian", seed=seed + 59)
    probe_a = np.ones(n)
    probe_b = np.ones(n)
    checks.append(_bound("sign_average_extraction", [
        abs(sign_average_entry(lambda x, y: x @ M @ y, probe_a, probe_b, i0, j0) - M[i0, j0])
        for i0 in range(n) for j0 in range(n)], 1e-13, "max_deviation"))

    M3 = random_matrix(3, ensemble="gaussian", seed=seed + 61)
    hb = herz_norm(M3, 3.0)
    checks.append(_bound("dft_pairing_bounded_by_herz", [
        abs(trace_pairing(np.outer(t_.a, t_.b), M3)) - hb.bracket.upper - 1e-6
        for t_ in dft_decompose(M3)], 0.0, "worst_excess"))
    return checks


_SUITE_FNS = {
    "diagrams": suite_diagrams,
    "contractivity": suite_contractivity,
    "algebra": suite_algebra,
    "duality": suite_duality,
    "isometry": suite_isometry,
}


def run_suite(suite: str, seed: int = 0, n: Optional[int] = None,
              trials: Optional[int] = None, p=None) -> list:
    """Run one named suite (or "all") and return a list of SuiteReport.

    The arguments are checked by ``core.require_range`` before any suite
    draws, over the ranges of the CLI flags: seed from 0, n from 1 to
    ``core.MAX_DIM`` and trials from 1 to ``core.MAX_COUNT``.
    """
    if suite != "all" and suite not in _SUITE_FNS:
        raise InputError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITES)} or all")
    require_range(seed, 0, None, "run_suite", "seed")
    if n is not None:
        require_range(n, 1, MAX_DIM, "run_suite", "n")
    if trials is not None:
        require_range(trials, 1, MAX_COUNT, "run_suite", "trials")
    names = SUITES if suite == "all" else (suite,)
    reports = []
    for name in names:
        fn = _SUITE_FNS[name]
        kw = {}
        if n is not None:
            kw["n"] = int(n)
        if trials is not None:
            kw["trials"] = int(trials)
        if p is not None and name == "algebra":
            kw["p"] = p
        checks = fn(seed, **kw)
        used_n = kw.get("n", fn.__defaults__[0])
        reports.append(SuiteReport(name, used_n, seed, checks))
    return reports
