"""Certified brackets for the factorization (Haagerup) norm of a symbol.

The computational definition used here: gamma2(A) <= t exactly when Hermitian
P and Q exist making the block [[P, A], [A^*, Q]] positive semidefinite with
every diagonal entry of P and Q at most t.  Equivalently it is the smallest
max_i ||x_i|| * max_j ||y_j|| over factorizations A = X Y^*, and it coincides
with the Schur-multiplier norm on S_oo (hence on S_1 by duality).  This block
feasibility form is taken as the definition the solver certifies against.

Both sides come from the dual form gamma2(A) = max ||A o u v^T||_{S_1} over
unit vectors u, v (Linial-Shraibman; Lee-Shraibman-Spalek), solved by dual
rebalancing: one thin SVD of D_u A D_v per sweep gives a test matrix for the
lower bound and an exact factorization A = X Y^* for the upper bound, whose
Gram matrices P = X X^*, Q = Y Y^* make the block PSD by construction
(rounding is absorbed by a diagonal shift, P + eps I and Q + eps I at level
t + eps).  The weights between sweeps come from Anderson acceleration of
the rebalancing fixed point (Walker-Ni, SIAM J. Numer. Anal. 2011), with
safeguards; both bounds hold at any positive unit weights, so an
extrapolated step can slow the solve but never void a certificate.
Certificates are re-checkable from scratch with ``check_certificate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    INF,
    MAX_DIM,
    InputError,
    NormBracket,
    as_matrix,
    certified_bracket,
    entry_floor,
    exact_bracket,
    ldexp,
    modulus_exponent,
    require_range,
    require_square,
    schatten_norm,
    schatten_norms,
)

__all__ = ["Gamma2Certificate", "CertificateCheck", "gamma2", "check_certificate"]

# PSD slack allowed in a valid certificate, relative to 1 + t
CERT_EIG_SLACK = 1e-9
# slack allowed on the diagonal caps
CERT_DIAG_SLACK = 1e-9

# rebalancing stops at this relative width, after STALL_SWEEPS sweeps in
# which neither bound improved, or after MAX_SWEEPS sweeps
WIDTH_FLOOR = 1e-9
STALL_SWEEPS = 50
MAX_SWEEPS = 2000
# smallest weight a row or column keeps: the factors divide the SVD's
# rounding by u_i v_j, while the floor moves the fixed point by about its
# square, so 1e-4 keeps both near 1e-8 of the norm
WEIGHT_FLOOR = 1e-4
# Anderson acceleration mixes this many past sweeps, and its correction
# moves the log-weights at most this many plain steps
ANDERSON_DEPTH = 5
ANDERSON_CAP = 4.0
# the mixing solve runs on residual differences scaled to unit length, with
# this ridge: differences at angles below its square root carry rounding
# rather than information, and without the ridge their amplified noise made
# the sweep path differ between permuted or rephased copies of one symbol
ANDERSON_RIDGE = 1e-8
# a lower bound that falls by less than this relative amount is rounding,
# not a bad step, and keeps the history
ROUND_SLACK = 1e-12


@dataclass
class Gamma2Certificate:
    """Re-checkable evidence for a gamma2 bracket.

    t is the certified upper bound: the block [[P, A], [A^*, Q]] must be PSD
    up to CERT_EIG_SLACK with diag(P), diag(Q) <= t (up to CERT_DIAG_SLACK).
    ``dual_witness`` is a matrix B with ||B||_oo <= 1 whose Schur ratio
    ||A * B||_oo / ||B||_oo reproduces the lower bound.
    """

    t: float
    P: np.ndarray
    Q: np.ndarray
    min_eig: float
    dual_witness: np.ndarray


@dataclass
class CertificateCheck:
    """Outcome of an independent certificate re-verification."""

    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _block(P: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    Z = np.empty((2 * n, 2 * n), dtype=complex)
    Z[:n, :n] = P
    Z[:n, n:] = A
    Z[n:, :n] = A.conj().T
    Z[n:, n:] = Q
    return Z


def _unit(w: np.ndarray, m: int):
    """Squared weights (u^2, v^2) scaled in place to unit u and v, and their
    logs."""
    w[:m] /= w[:m].sum()
    w[m:] /= w[m:].sum()
    return w, np.log(w)


def _rebalance(S: np.ndarray):
    """Dual rebalancing on a symbol with no zero row or column.

    Each sweep takes the thin SVD X = U diag(s) V^* of X = D_u S D_v and
    yields a lower bound f = sum(s) (witness conj(U V^*)) and an upper bound
    t = sqrt(max_i r_i / u_i^2 * max_j c_j / v_j^2), where r = diag(U diag(s)
    U^*) and c = diag(V diag(s) V^*) are the squared row norms of the exact
    factors D_u^-1 U diag(s)^(1/2) and D_v^-1 V diag(s)^(1/2) of S (t is
    their row-norm product once the two are balanced).

    The plain update u_i <- sqrt(r_i / f), v_j <- sqrt(c_j / f), floored at
    WEIGHT_FLOOR and normalized, is a fixed-point map g on the log squared
    weights x = (log u^2, log v^2), and it converges only linearly.  The
    next weights are instead the type-II Anderson combination of the last
    ANDERSON_DEPTH pairs (x, g(x)) (Walker-Ni 2011): G - dG^T gam, where
    gam fits the residual F = g(x) - x by the residual differences dF in
    least squares, on differences scaled to unit length and with an
    ANDERSON_RIDGE ridge.  Safeguards: the history is dropped whenever ||F||
    grows or the lower bound f falls by more than ROUND_SLACK; the
    correction dG^T gam is cut to ANDERSON_CAP times ||F|| and dropped if it
    is not finite; x is clipped to [2 log WEIGHT_FLOOR, 0] before the
    normalization.  Returns the sweeps run and the SVD state of the best
    lower and the best upper iterate.
    """
    m, k = S.shape
    # w holds the squared weights u^2, v^2 and x their logs
    log_floor = 2.0 * math.log(WEIGHT_FLOOR)
    w, x = _unit(np.ones(m + k), m)
    u, v = np.sqrt(w[:m]), np.sqrt(w[m:])
    # the last ANDERSON_DEPTH differences of residuals and of map values, in
    # any order (the combination does not depend on it)
    dF = np.empty((ANDERSON_DEPTH, m + k))
    dG = np.empty((ANDERSON_DEPTH, m + k))
    pushed = 0
    F_prev = G_prev = None
    res_prev = np.inf
    f_prev = 0.0
    # every entry is a witness, so max|s_ij| is a lower bound too
    entry_max = float(np.max(np.abs(S)))
    best_f, best_t = 0.0, np.inf
    low = up = None
    stalled = 0
    for sweep in range(1, MAX_SWEEPS + 1):
        U, s, Vh = np.linalg.svd((u[:, None] * S) * v, full_matrices=False)
        f = float(s.sum())
        r = (np.abs(U) ** 2) @ s
        c = s @ (np.abs(Vh) ** 2)
        t = math.sqrt((r / w[:m]).max() * (c / w[m:]).max())
        stalled += 1
        if f > best_f:
            best_f, low, stalled = f, (U, Vh), 0
        if t < best_t:
            best_t, up, stalled = t, (u, v, U, s, Vh), 0
        if best_t - max(best_f, entry_max) <= WIDTH_FLOOR * (1.0 + best_t) \
                or stalled >= STALL_SWEEPS:
            break
        # G = g(x), the plain update
        _, G = _unit(np.maximum(np.concatenate((r, c)) / f, WEIGHT_FLOOR ** 2), m)
        F = G - x
        res = float(F @ F)
        if res > res_prev or f < f_prev * (1.0 - ROUND_SLACK):
            pushed = 0
        elif F_prev is not None:
            # each pair of differences is stored divided by the length of
            # its residual difference; a repeated residual adds nothing
            i = pushed % ANDERSON_DEPTH
            np.subtract(F, F_prev, out=dF[i])
            length = math.sqrt(dF[i] @ dF[i])
            if length > 0:
                dF[i] /= length
                np.subtract(G, G_prev, out=dG[i])
                dG[i] /= length
                pushed += 1
        F_prev, G_prev, res_prev, f_prev = F, G, res, f
        x = G
        depth = min(pushed, ANDERSON_DEPTH)
        if depth:
            # gam = argmin ||F - dF^T gam||^2 + ANDERSON_RIDGE ||gam||^2 by
            # the normal equations, and the combination is G - dG^T gam
            Fk = dF[:depth]
            H = Fk @ Fk.T
            H.flat[::depth + 1] += ANDERSON_RIDGE
            with np.errstate(all="ignore"):
                corr = np.linalg.solve(H, Fk @ F) @ dG[:depth]
                size = math.sqrt(corr @ corr)
            if math.isfinite(size):
                cap = ANDERSON_CAP * math.sqrt(res)
                x = G - (corr if size <= cap else corr * (cap / size))
        w, x = _unit(np.exp(np.minimum(np.maximum(x, log_floor), 0.0)), m)
        uv = np.sqrt(w)
        u, v = uv[:m], uv[m:]
    return sweep, low, up


def gamma2(A, tol: float = 1e-6) -> tuple[NormBracket, Gamma2Certificate]:
    """Certified bracket for gamma2(A) with a re-checkable certificate.

    The symbol is scaled to entries near 1, restricted to its nonzero rows
    and columns, and rebalanced (see ``_rebalance``) until the bracket
    reaches a float floor, stops improving, or MAX_SWEEPS runs out; the best
    lower and the best upper iterate are certified and scaled back, P and Q
    with a diagonal allowance where they round on the subnormal grid.  ``tol``
    does not stop the sweeps: it only decides ``converged``, which reports
    whether the bracket reached tol * upper.  ``iterations`` is the
    number of sweeps run.

    Parameters
    ----------
    A : array_like
        Square symbol; ``core.require_range`` refuses n > ``core.MAX_DIM``
        (ResourceError) before any work.
    tol : float
        Target bracket width for ``converged``.

    Returns
    -------
    (NormBracket, Gamma2Certificate)
    """
    M = as_matrix(A)
    n = require_square(M, "gamma2")
    require_range(n, 0, MAX_DIM, "gamma2", "n")
    if n == 0 or not np.any(M):
        cert = Gamma2Certificate(0.0, np.zeros((n, n)), np.zeros((n, n)), 0.0,
                                 np.zeros((n, n)))
        return exact_bracket(0.0, "closed-form", detail="zero symbol"), cert

    # every quantity below is homogeneous: solve with the largest |a_ij| in
    # [1/2, 1) and scale back, by a power of two so neither step rounds.
    # The stopping rule is not homogeneous, so the scale must not move when
    # the entries are rephased
    e = modulus_exponent(M)
    S = ldexp(M, -e)
    rows = np.flatnonzero(np.any(S, axis=1))
    cols = np.flatnonzero(np.any(S, axis=0))
    sweeps, (U, Vh), (u, v, Uu, s, Vhu) = _rebalance(S[np.ix_(rows, cols)])

    X = np.zeros((n, len(s)), dtype=complex)
    Y = np.zeros((n, len(s)), dtype=complex)
    X[rows] = Uu * np.sqrt(s) / u[:, None]
    Y[cols] = Vhu.conj().T * np.sqrt(s) / v[:, None]
    # X Y^* is unchanged by X -> lam X, Y -> Y / lam; balance the row norms
    lam = (np.max(np.sum(np.abs(Y) ** 2, axis=1))
           / np.max(np.sum(np.abs(X) ** 2, axis=1))) ** 0.25
    X, Y = lam * X, Y / lam
    P, Q = X @ X.conj().T, Y @ Y.conj().T
    # rounding in the factors is absorbed by a diagonal shift of the block
    min_eig = float(np.linalg.eigvalsh(_block(P, S, Q))[0])
    if min_eig < 0:
        eps = -min_eig
        P, Q = P + eps * np.eye(n), Q + eps * np.eye(n)
        min_eig = float(np.linalg.eigvalsh(_block(P, S, Q))[0])
    # scaling up is exact up to the range check below; scaling down rounds
    # where it lands below the normal range
    R = np.concatenate((P.view(float).ravel(), Q.view(float).ravel(), [min_eig]))
    if e < 0 and not np.array_equal(np.ldexp(np.ldexp(R, e), -e), R):
        # scaled back, P and Q round to the subnormal grid, ``step`` apart at
        # the scale of S, which moves the block by at most n step / sqrt(2)
        # in norm; min_eig, taken a step low, rounds to half a step at most
        # and so stays below the block's.  A diagonal allowance of n + 2
        # steps covers both, and t and min_eig are those of the rounded P, Q
        step = float(np.ldexp(np.nextafter(0.0, 1.0), -e))
        P, Q = (ldexp(ldexp((Z + Z.conj().T) / 2 + (n + 2) * step * np.eye(n), e), -e)
                for Z in (P, Q))
        min_eig = float(np.linalg.eigvalsh(_block(P, S, Q))[0]) - step
    upper = float(max(np.max(np.real(np.diag(P))), np.max(np.real(np.diag(Q)))))

    B = np.zeros((n, n), dtype=complex)
    B[np.ix_(rows, cols)] = (U @ Vh).conj()
    nB = schatten_norm(B, INF)
    lower, witness = entry_floor(S, schatten_norm(S * B, INF) / nB, B / nB)
    if lower > upper + 1e-7 * (1.0 + upper):
        # both sides are certified, so a real crossover means a solver bug
        raise RuntimeError(
            f"gamma2 internal inconsistency: lower {lower} > upper {upper}")

    if np.frexp(upper)[1] + e > np.finfo(float).maxexp:
        raise InputError("gamma2 of this symbol exceeds the float range")
    lower, upper, min_eig = (float(np.ldexp(x, e)) for x in (lower, upper, min_eig))
    cert = Gamma2Certificate(upper, ldexp(P, e), ldexp(Q, e), min_eig, witness)
    bracket = certified_bracket(
        lower, upper,
        {"kind": "test-matrix", "matrix": witness,
         "detail": "Schur ratio on S_oo"},
        {"kind": "psd-block", "t": upper, "min_eig": min_eig},
        iterations=sweeps, tol=tol)
    return bracket, cert


def check_certificate(A, cert: Gamma2Certificate,
                      tol: float = CERT_EIG_SLACK) -> CertificateCheck:
    """Re-verify a certificate from scratch; never raises on bad data.

    Checks: shapes, finiteness, PSD of the assembled block (both the stored
    min_eig field and a fresh eigendecomposition), diagonal caps against t,
    and the dual witness (norm at most 1, Schur ratio at most t).  The
    checks run on a copy in which A, t, P, Q and min_eig are scaled by the
    power of two that puts max |a_ij| in [1/2, 1), so every slack is
    relative to the symbol; values in the reasons are in A's own units.
    A ``tol`` that is not finite and nonnegative fails the check.
    """
    if not 0.0 <= tol < np.inf:  # a NaN or infinite slack would pass any block
        return CertificateCheck(False, [f"tol must be finite and nonnegative, got {tol}"])
    reasons: list[str] = []
    try:
        M = as_matrix(A)
        n = require_square(M, "check_certificate")
    except InputError as e:
        return CertificateCheck(False, [f"symbol: {e}"])
    e = modulus_exponent(M)
    M = ldexp(M, -e)
    t = float(np.ldexp(float(cert.t), -e))
    if not np.isfinite(t) or t < 0:
        reasons.append(f"t must be finite and nonnegative, got {cert.t}")
        return CertificateCheck(False, reasons)

    for name, Mat, shape in (("P", cert.P, (n, n)), ("Q", cert.Q, (n, n))):
        arr = np.asarray(Mat)
        if arr.shape != shape:
            reasons.append(f"{name} has shape {arr.shape}, expected {shape}")
    if reasons:
        return CertificateCheck(False, reasons)

    P = ldexp(np.asarray(cert.P, dtype=complex), -e)
    Q = ldexp(np.asarray(cert.Q, dtype=complex), -e)
    if not (np.all(np.isfinite(P.view(float))) and np.all(np.isfinite(Q.view(float)))):
        return CertificateCheck(False, ["P/Q entries must be finite"])

    herm_slack = 1e-8 * (1.0 + t)
    if np.max(np.abs(P - P.conj().T), initial=0.0) > herm_slack:
        reasons.append("P is not Hermitian")
    if np.max(np.abs(Q - Q.conj().T), initial=0.0) > herm_slack:
        reasons.append("Q is not Hermitian")

    eig_floor = -tol * (1.0 + t)
    floor_txt = f"{float(np.ldexp(eig_floor, e)):.3e}"
    if np.ldexp(float(cert.min_eig), -e) < eig_floor:
        reasons.append(f"stated min_eig {cert.min_eig:.3e} below {floor_txt}")
    fresh = float(np.linalg.eigvalsh(_block(P, M, Q))[0]) if n else 0.0
    if fresh < eig_floor:
        reasons.append(f"recomputed min_eig {float(np.ldexp(fresh, e)):.3e} "
                       f"below {floor_txt}")

    cap = t + CERT_DIAG_SLACK * (1.0 + t)
    if n and float(np.max(np.real(np.diag(P)))) > cap:
        reasons.append("diag(P) exceeds t")
    if n and float(np.max(np.real(np.diag(Q)))) > cap:
        reasons.append("diag(Q) exceeds t")

    if cert.dual_witness is None:
        reasons.append("dual witness missing")
        return CertificateCheck(False, reasons)
    B = np.asarray(cert.dual_witness, dtype=complex)
    if B.shape != (n, n):
        reasons.append(f"dual witness has shape {B.shape}, expected {(n, n)}")
    elif not np.all(np.isfinite(B)):
        reasons.append("dual witness entries must be finite")
    else:
        nB = float(schatten_norms(B, INF))  # never raises, unlike schatten_norm
        if not nB <= 1.0 + 1e-9:  # a NaN norm fails too
            reasons.append(f"dual witness has ||B||_oo = {nB:.6f} > 1")
        elif nB > 0:
            ratio = float(schatten_norms(M * B, INF)) / nB
            if not ratio <= t + 1e-7 * (1.0 + t):
                reasons.append(f"dual ratio {float(np.ldexp(ratio, e)):.6e} "
                               f"exceeds certified t {cert.t:.6e}")
    return CertificateCheck(not reasons, reasons)
