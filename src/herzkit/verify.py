"""Orchestrated verification suites behind the `verify` command.

Five named suites (diagrams, contractivity, algebra, duality, isometry)
each run a battery of invariant checks at configurable size, seed, and
trial count, returning machine-readable results with per-check slack.
Every check is deterministic given its seed.  Failing checks carry the
offending witness in their details so a failure can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ascent import AscentOptions
from .config import RunConfig
from .core import (
    InputError,
    as_index,
    random_matrix,
    schatten_norm,
    trace_pairing,
    truncate,
)
from .herz import (
    HerzOptions,
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
    column_splice,
    diag_embed,
    diag_mask,
    partial_isometry_check,
    row_splice,
    splice_adjoint_defect,
    verify_diag_embed_diagram,
    verify_product_diagram,
)

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES"]

SUITES = ("diagrams", "contractivity", "algebra", "duality", "isometry")


def _plabel(p) -> str:
    pi = as_index(p)
    return "inf" if pi.is_inf else f"{pi.value:g}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    slack: float
    details: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "slack": self.slack, "details": self.details}


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite, "n": self.n, "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_obj() for c in self.checks],
        }


def _cheap_opts(config: RunConfig) -> AscentOptions:
    return AscentOptions(restarts=min(config.restarts, 4), max_iter=80,
                         seed=config.seed)


def suite_diagrams(config: RunConfig, n: int = 3, trials: int = 16) -> list:
    checks = []
    for name, runner in (("product_diagram", verify_product_diagram),
                         ("diag_embed_diagram", verify_diag_embed_diagram)):
        worst = None
        for t in range(max(1, trials // 8)):
            A = random_matrix(n, ensemble="gaussian", seed=config.seed + 101 * t)
            rep = runner(A, random_trials=8, seed=config.seed + t)
            if worst is None or rep.max_deviation > worst.max_deviation:
                worst = rep
        checks.append(CheckResult(
            name, worst.passed, worst.tolerance - worst.max_deviation,
            {"max_deviation": worst.max_deviation, "n": n}))
        checks.append(CheckResult(
            name + "_negative_control", worst.control_failed_as_expected,
            worst.control_deviation - worst.tolerance,
            {"control_deviation": worst.control_deviation}))
    return checks


def suite_contractivity(config: RunConfig, n: int = 3, trials: int = 12) -> list:
    checks = []
    rng_seed = config.seed

    worst_adj = 0.0
    for t in range(trials):
        X = random_matrix(n * n, ensemble="gaussian", seed=rng_seed + t)
        Y = random_matrix(n * n, ensemble="gaussian", seed=rng_seed + 1000 + t)
        worst_adj = max(worst_adj, splice_adjoint_defect(X, Y))
    checks.append(CheckResult("splice_adjointness", worst_adj <= 1e-13,
                              1e-13 - worst_adj, {"max_defect": worst_adj}))

    iso = partial_isometry_check(n)
    iso_worst = max(iso.rrr_defect, iso.projection_defect)
    checks.append(CheckResult("partial_isometry", iso.passed,
                              1e-12 - iso_worst, iso.to_obj()))

    tol = 1e-9
    for p in config.p_grid:
        worst = -np.inf
        bad = None
        for t in range(trials):
            X = random_matrix(n * n, ensemble="gaussian", seed=rng_seed + 7 * t)
            base = schatten_norm(X, p)
            exc = max(schatten_norm(column_splice(X), p) - base,
                      schatten_norm(row_splice(X), p) - base)
            if exc > worst:
                worst, bad = exc, X
        ok = worst <= tol
        checks.append(CheckResult(
            f"splice_contractivity_p_{_plabel(p)}", ok, tol - worst,
            {"excess": worst} if ok else {"excess": worst, "witness": bad}))

    for p in config.p_grid:
        worst = 0.0
        for t in range(trials):
            A = random_matrix(n, ensemble="gaussian", seed=rng_seed + 11 * t)
            dev = abs(schatten_norm(diag_embed(A), p) - schatten_norm(A, p))
            worst = max(worst, dev)
        checks.append(CheckResult(f"diag_embed_isometry_p_{_plabel(p)}",
                                  worst <= 1e-12, 1e-12 - worst,
                                  {"max_deviation": worst}))

    mask = diag_mask(n)
    for p in config.p_grid:
        worst = -np.inf
        for t in range(trials):
            X = random_matrix(n * n, ensemble="gaussian", seed=rng_seed + 13 * t)
            worst = max(worst, schatten_norm(mask * X, p) - schatten_norm(X, p))
        checks.append(CheckResult(f"diag_mask_contractivity_p_{_plabel(p)}",
                                  worst <= tol, tol - worst, {"excess": worst}))

    worst = -np.inf
    for t in range(trials):
        A = random_matrix(n, ensemble="gaussian", seed=rng_seed + 17 * t)
        J = list(range(max(1, n - 1)))
        worst = max(worst, schatten_norm(truncate(A, J), 1.5) - schatten_norm(A, 1.5))
    checks.append(CheckResult("truncation_contractivity", worst <= tol,
                              tol - worst, {"excess": worst}))

    worst_idem = 0.0
    worst_fix = 0.0
    worst_contr = -np.inf
    for t in range(trials):
        T = LinearOperatorOnSp(random_matrix(n * n, ensemble="gaussian",
                                             seed=rng_seed + 19 * t))
        D = averaging_projection(T)
        D2 = averaging_projection(LinearOperatorOnSp.from_multiplier(D))
        worst_idem = max(worst_idem, float(np.max(np.abs(D2 - D))))
        worst_contr = max(worst_contr,
                          float(np.max(np.abs(D))) - float(np.linalg.norm(T.rep, 2)))
        A = random_matrix(n, ensemble="gaussian", seed=rng_seed + 23 * t)
        MA = LinearOperatorOnSp.from_multiplier(A)
        worst_fix = max(worst_fix, float(np.max(np.abs(averaging_projection(MA) - A))))
    checks.append(CheckResult("averaging_idempotent", worst_idem == 0.0,
                              -worst_idem, {"max_deviation": worst_idem}))
    checks.append(CheckResult("averaging_fixes_multipliers", worst_fix == 0.0,
                              -worst_fix, {"max_deviation": worst_fix}))
    checks.append(CheckResult("averaging_p2_contractivity", worst_contr <= 1e-12,
                              1e-12 - worst_contr, {"excess": worst_contr}))
    return checks


def suite_algebra(config: RunConfig, n: int = 3, trials: int = 8,
                  p: Optional[object] = None) -> list:
    checks = []
    worst_m = -np.inf
    worst_s = -np.inf
    for t in range(4 * trials):
        C = random_matrix(n, ensemble="gaussian", seed=config.seed + 3 * t)
        D = random_matrix(n, ensemble="gaussian", seed=config.seed + 3 * t + 1)
        l1 = lambda M: float(np.sum(np.abs(M)))
        worst_m = max(worst_m, l1(C @ D) - l1(C) * l1(D))
        worst_s = max(worst_s, l1(C * D) - l1(C) * l1(D))
    checks.append(CheckResult("p2_matrix_submultiplicative", worst_m <= 1e-12,
                              1e-12 - worst_m, {"excess": worst_m}))
    checks.append(CheckResult("p2_schur_submultiplicative", worst_s <= 1e-12,
                              1e-12 - worst_s, {"excess": worst_s}))

    p_list = [as_index(p)] if p is not None else [as_index(1.0), as_index(3.0)]
    hopts = HerzOptions(max_terms=config.max_terms, iters=8, restarts=2,
                        seed=config.seed)
    for pi in p_list:
        worst = -np.inf
        for t in range(trials):
            C = random_matrix(n, ensemble="sign", seed=config.seed + 5 * t)
            D = random_matrix(n, ensemble="gaussian", seed=config.seed + 5 * t + 2)
            for kind in ("schur", "matrix"):
                rep = submultiplicativity_check(C, D, pi, product=kind,
                                                opts=hopts, tol=1e-6)
                worst = max(worst, -rep.slack)
        checks.append(CheckResult(f"bracket_submultiplicative_p_{_plabel(pi)}",
                                  worst <= 0.0, -worst, {"worst_violation": worst}))

    worst_rep = 0.0
    worst_cost = -np.inf
    for t in range(trials):
        C = random_matrix(n, ensemble="gaussian", seed=config.seed + 7 * t)
        D = random_matrix(n, ensemble="gaussian", seed=config.seed + 7 * t + 3)
        x = herz_norm(C, 1.5, hopts).best_decomposition
        y = herz_norm(D, 1.5, hopts).best_decomposition
        z = herz_schur_product(x, y)
        worst_rep = max(worst_rep,
                        float(np.max(np.abs(z.represented() - C * D), initial=0.0)))
        worst_cost = max(worst_cost, z.cost - x.cost * y.cost)
    checks.append(CheckResult("schur_decomposition_exact", worst_rep <= 1e-12,
                              1e-12 - worst_rep, {"max_deviation": worst_rep}))
    checks.append(CheckResult("schur_decomposition_cost", worst_cost <= 1e-9,
                              1e-9 - worst_cost, {"excess": worst_cost}))
    return checks


def suite_duality(config: RunConfig, n: int = 3, trials: int = 8) -> list:
    checks = []
    opts = _cheap_opts(config)
    hopts = HerzOptions(max_terms=config.max_terms, iters=6, restarts=2,
                        seed=config.seed)
    ps = [as_index(1.0), as_index(1.5), as_index(2.0), as_index(3.0)]

    worst = -np.inf
    for t in range(trials):
        A = random_matrix(n, ensemble="gaussian", seed=config.seed + 31 * t)
        C = random_matrix(n, ensemble="gaussian", seed=config.seed + 31 * t + 9)
        pi = ps[t % len(ps)]
        mb = multiplier_norm(A, pi, opts=AscentOptions(restarts=0, seed=config.seed),
                             gamma2_tol=1e-4)
        hb = herz_norm(C, pi, hopts)
        excess = abs(pair_with_multiplier(A, C)) - mb.upper * hb.bracket.upper - 1e-6
        worst = max(worst, excess)
    checks.append(CheckResult("pairing_sandwich", worst <= 0.0, -worst,
                              {"worst_excess": worst}))

    worst = -np.inf
    for t in range(max(2, trials // 2)):
        A = random_matrix(n, ensemble="gaussian", seed=config.seed + 41 * t)
        for pi in (as_index(1.5), as_index(1.0)):
            b1 = multiplier_norm(A, pi, opts=opts, gamma2_tol=1e-5)
            b2 = multiplier_norm(A, pi.conjugate(), opts=opts, gamma2_tol=1e-5)
            gap = max(b1.lower - b2.upper, b2.lower - b1.upper) - 1e-6
            worst = max(worst, gap)
    checks.append(CheckResult("conjugate_exponent_duality", worst <= 0.0, -worst,
                              {"worst_gap": worst}))

    worst = -np.inf
    all_ok = True
    for t in range(max(2, trials // 2)):
        A = random_matrix(n, ensemble="gaussian", seed=config.seed + 43 * t)
        rep = inclusion_monotonicity_report(A, (1.0, 1.5, 2.0), opts=opts)
        all_ok = all_ok and rep.passed
        worst = max(worst, max(-pr["slack"] for pr in rep.pairs))
    checks.append(CheckResult("inclusion_monotonicity", all_ok, -worst,
                              {"worst_violation": worst}))
    return checks


def suite_isometry(config: RunConfig, n: int = 4, trials: int = 8) -> list:
    checks = []
    rng = np.random.default_rng(config.seed)
    p4 = as_index(4.0)

    a = np.exp(2j * np.pi * rng.random(n))
    b = np.exp(2j * np.pi * rng.random(n))
    C = np.outer(a, b)
    v = classify_isometric(C, p4)
    fwd = isometry_forward_check(v.a, v.b, p4, trials=trials, seed=config.seed) \
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
    w = isometry_witness_search(H2, p4, _cheap_opts(config))
    ok = (not vh.is_isometric) and vh.reason == "not_rank_one_unimodular" \
        and w.deviation >= 1e-3
    checks.append(CheckResult("hadamard_not_isometric", ok, w.deviation - 1e-3,
                              {"verdict": vh.reason, "deviation": w.deviation,
                               "mode": w.mode}))

    worst = 0.0
    for t in range(trials):
        m = 2 + (t % 3)
        M = random_matrix(m, ensemble="gaussian", seed=config.seed + 53 * t)
        terms = dft_decompose(M)
        rec = sum(t_.coefficient * np.outer(t_.a, t_.b) for t_ in terms)
        worst = max(worst, float(np.max(np.abs(rec - M))))
        if t == 0:
            sub = classify_isometric(np.outer(terms[1].a, terms[1].b), p4)
            checks.append(CheckResult("dft_terms_isometric", sub.is_isometric,
                                      0.0, {"verdict": sub.reason}))
    checks.append(CheckResult("dft_reconstruction", worst <= 1e-10,
                              1e-10 - worst, {"max_deviation": worst}))

    M = random_matrix(n, ensemble="gaussian", seed=config.seed + 59)
    probe_a = np.ones(n)
    probe_b = np.ones(n)
    worst = 0.0
    for i0 in range(n):
        for j0 in range(n):
            got = sign_average_entry(lambda x, y: x @ M @ y, probe_a, probe_b, i0, j0)
            worst = max(worst, abs(got - M[i0, j0]))
    checks.append(CheckResult("sign_average_extraction", worst <= 1e-13,
                              1e-13 - worst, {"max_deviation": worst}))

    hopts = HerzOptions(max_terms=config.max_terms, iters=6, restarts=2,
                        seed=config.seed)
    M3 = random_matrix(3, ensemble="gaussian", seed=config.seed + 61)
    hb = herz_norm(M3, 3.0, hopts)
    worst = -np.inf
    for t_ in dft_decompose(M3):
        S = np.outer(t_.a, t_.b)
        worst = max(worst, abs(trace_pairing(S, M3)) - hb.bracket.upper - 1e-6)
    checks.append(CheckResult("dft_pairing_bounded_by_herz", worst <= 0.0,
                              -worst, {"worst_excess": worst}))
    return checks


_SUITE_FNS = {
    "diagrams": suite_diagrams,
    "contractivity": suite_contractivity,
    "algebra": suite_algebra,
    "duality": suite_duality,
    "isometry": suite_isometry,
}


def run_suite(suite: str, config: RunConfig, n: Optional[int] = None,
              trials: Optional[int] = None, p=None) -> list:
    """Run one named suite (or "all") and return a list of SuiteReport."""
    if suite != "all" and suite not in _SUITE_FNS:
        raise InputError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITES)} or all")
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
        checks = fn(config, **kw)
        used_n = kw.get("n", fn.__defaults__[0])
        reports.append(SuiteReport(name, used_n, config.seed, checks))
    return reports
