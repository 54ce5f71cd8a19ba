"""Schur multiplier engine.

A symbol A acts on matrices by entrywise multiplication B |-> A * B; this
module brackets the amplified norms ||Id_m (x) M_A|| on each Schatten
class (``cb_norm_ladder``), whose level m = 1 is the multiplier norm
(``multiplier_norm``).  Each level is a certified two-sided bracket:

* p = 2 is exact (the action is diagonal in the matrix-unit basis, so the
  norm is the largest entry modulus);
* p in {1, oo} delegate to the factorization-norm solver, whose value is the
  multiplier norm at both endpoints;
* other p get an ascent lower bound, raised to maxabs(A) by a matrix unit
  where the ascent falls short, and the smallest of the interpolation upper
  bounds (``interpolation_bound``, theta = |1 - 2/p|): gamma2(A)^theta *
  maxabs(A)^(1-theta), and Stein's bounds weighted by w = (x y^T)^s for
  s in ``STEIN_EXPONENTS``, x and y the row and column maxima of |A| over
  maxabs(A).  Where none is finite the call is refused (InputError).

``interpolation_bound`` is the one place an M_p bound between M_2 and the
endpoints is computed: herz divides its factored lower witnesses by it.

Also here: the averaging projection from operators on S_p onto multiplier
symbols, and the inclusion monotonicity report for exponents in [1, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ascent import AscentOptions, norm_ascent
from .core import (
    MAX_DIM,
    InputError,
    NormBracket,
    as_index,
    as_matrix,
    certified_bracket,
    entry_floor,
    exact_bracket,
    ldexp,
    modulus_exponent,
    require_range,
    require_square,
)
from .gamma2 import WIDTH_FLOOR, _solve, gamma2

__all__ = [
    "LinearOperatorOnSp",
    "multiplier_norm",
    "cb_norm_ladder",
    "averaging_projection",
    "averaging_projection_grid",
    "InclusionReport",
    "inclusion_monotonicity_report",
]


def _vec(X: np.ndarray) -> np.ndarray:
    # column-major stacking: vec(e_rs) is the unit vector at index s*n + r
    return X.ravel(order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


class LinearOperatorOnSp:
    """A linear map on n x n matrices held as its (n^2) x (n^2) matrix.

    The representation acts on column-vectorized matrices: applying the
    operator to e_rs reads off the column of ``rep`` at index s*n + r.
    """

    def __init__(self, rep):
        R = as_matrix(rep)
        require_square(R, "an operator representation")
        base = int(round(np.sqrt(R.shape[0])))
        if base * base != R.shape[0]:
            raise InputError(f"operator dimension {R.shape[0]} is not a perfect square")
        self.n = base
        self.rep = R

    @classmethod
    def from_function(cls, n: int, fn: Callable[[np.ndarray], np.ndarray]) -> "LinearOperatorOnSp":
        """Materialize a matrix function column by column on matrix units."""
        require_range(n, 1, None, "LinearOperatorOnSp.from_function", "n")
        require_range(n * n, 1, MAX_DIM, "LinearOperatorOnSp.from_function", "n * n")
        rep = np.zeros((n * n, n * n), dtype=complex)
        for s in range(n):
            for r in range(n):
                E = np.zeros((n, n), dtype=complex)
                E[r, s] = 1.0
                Y = as_matrix(fn(E))
                if Y.shape != (n, n):
                    raise InputError(f"LinearOperatorOnSp.from_function: the map returned "
                                     f"shape {Y.shape}, expected {(n, n)}")
                rep[:, s * n + r] = _vec(Y)
        return cls(rep)

    @classmethod
    def from_multiplier(cls, A) -> "LinearOperatorOnSp":
        M = as_matrix(A)
        require_square(M, "a multiplier symbol")
        return cls(np.diag(_vec(M)))

    def apply(self, X) -> np.ndarray:
        M = as_matrix(X)
        if M.shape != (self.n, self.n):
            raise InputError(f"operand shape {M.shape}, expected {(self.n, self.n)}")
        return _unvec(self.rep @ _vec(M), self.n)

    def __call__(self, X) -> np.ndarray:
        return self.apply(X)


# the weighted bound is read for its upper side only, so its gamma2 solve
# stops at this relative width rather than gamma2.WIDTH_FLOOR
WEIGHTED_WIDTH = 1e-7

# the exponents s of the Stein weights (x y^T)^s that cb_norm_ladder prices
STEIN_EXPONENTS = (1.0, 1.5)


def _ldexp_up(v: float, e: int) -> float:
    """v * 2**e, one step up where it lands below the normal range and
    rounds down there, so an upper bound stays one."""
    with np.errstate(over="ignore"):
        out = float(np.ldexp(v, e))
    return float(np.nextafter(out, np.inf)) if np.ldexp(out, -e) < v else out


def interpolation_bound(D: np.ndarray, theta: float, factors: Optional[tuple] = None,
                        weights: Optional[tuple] = None) -> tuple[float, dict]:
    """A certified bound on ||D||_{M_p}, theta = |1 - 2/p|, and its
    certificate: Stein's interpolation (Trans. AMS 1956) between
    ||.||_{M_2}, the largest entry modulus, and ||.||_{M_1} = ||.||_{M_oo}
    = gamma2.  For positive weights x, y and w = x y^T,

        ||D||_{M_p} <= g^theta m^(1 - theta),
        m = max(|D| * w^-theta),  g >= gamma2(D * w^(1 - theta)),

    with w^s taken as the outer product of x^s and y^s.  J_m (x) D under
    the weights 1 (x) x, 1 (x) y has the same m and g (gamma2(J_m (x) B) =
    gamma2(B), Pisier, Asterisque 247), so the bound holds at every level
    of the cb ladder.  g is the product of the largest row norms of
    ``factors`` (P, Q), where D = P Q^T as the caller formed it, or else
    the upper side of a gamma2 solve; ``weights`` apply to the solve only
    (InputError with factors), which is then read for its upper side and
    stops at relative width WEIGHTED_WIDTH.  Without weights (x = y = 1)
    m <= gamma2(D) <= g, and the bound is computed as g min(1, m/g)^(1 -
    theta), at most g in floating point too and exactly g at theta = 1.
    With weights m and g bound different symbols and m > g can occur, so
    the bound is g (m/g)^(1 - theta), with no cap; one that is not finite
    loses to any other.  Everything is computed on D * 2**-e, its largest
    modulus in [1/2, 1), so a weighted entry rounds relatively, not to the
    subnormal grid; the bound, g and m are scaled back once, rounded up
    where they land below the normal range.  The certificate holds theta,
    g, m and either the factors (kind "factored-symbol", P and Q) or the
    weights (kind "interpolation", x and y, ones by default), so the bound
    rebuilds from it and D, g from a gamma2 certificate of
    D * w^(1 - theta).
    """
    if factors is not None and weights is not None:
        raise InputError("interpolation_bound: weights apply to a gamma2 solve, not to factors")
    e = modulus_exponent(D)
    S = ldexp(D, -e)
    a = np.abs(S)
    if factors is not None:
        P, Q = factors
        g = float(np.ldexp(np.linalg.norm(P, axis=1).max() * np.linalg.norm(Q, axis=1).max(), -e))
        cert = {"kind": "factored-symbol", "P": P, "Q": Q}
    else:
        width = WIDTH_FLOOR
        if weights is None:
            x, y = np.ones(D.shape[0]), np.ones(D.shape[1])
        else:
            x, y = weights
            with np.errstate(all="ignore"):  # a weight past the range gives m = inf or NaN
                a = a * (x ** -theta)[:, None] * y ** -theta
            S = S * (x ** (1 - theta))[:, None] * y ** (1 - theta)
            width = WEIGHTED_WIDTH
        g = _solve(S, 1e-6, width)[0].upper
        cert = {"kind": "interpolation", "x": x, "y": y}
    m = float(a.max())
    cert.update(g=_ldexp_up(g, e), m=_ldexp_up(m, e), theta=theta)
    if not g > 0:  # a weighted symbol that underflowed to zero
        return math.inf, cert
    ratio = m / g if weights is not None else min(1.0, m / g)
    return _ldexp_up(g * ratio ** (1 - theta), e), cert


def _stein_weights(M: np.ndarray) -> Optional[tuple]:
    """(x, y), the row and column maxima of |M| over its largest modulus,
    taken on M * 2**-e (``core.modulus_exponent``) so they do not depend on
    the scale; 1 on zero rows and columns and where the quotient
    underflows; None where they are all 1, which makes the weighted bound
    the unweighted one (sign and unimodular symbols)."""
    a = np.abs(ldexp(M, -modulus_exponent(M)))
    top = a.max()
    x, y = a.max(axis=1) / top, a.max(axis=0) / top
    x[x == 0], y[y == 0] = 1.0, 1.0
    return None if x.min() == y.min() == 1.0 else (x, y)


def multiplier_norm(A, p, opts: AscentOptions | None = None,
                    gamma2_tol: float = 1e-6) -> NormBracket:
    """Certified bracket for the Schur multiplier norm of A on S_p: level 1
    of ``cb_norm_ladder``, so the same n <= ``core.MAX_DIM`` cap applies.

    The returned bracket always contains the true norm: lower bounds are
    witnessed ratios, upper bounds are the exact p = 2 value, the certified
    factorization norm at the endpoints, or the smallest of the unweighted
    and the Stein-weighted interpolation bounds between them
    (``cb_norm_ladder``).  ``opts.restarts = 0`` keeps only the cheap
    structured witnesses.
    """
    return cb_norm_ladder(A, p, 1, opts, gamma2_tol)[0]


def _pad_witness(B: np.ndarray, new_dim: int) -> np.ndarray:
    out = np.zeros((new_dim, new_dim), dtype=complex)
    out[: B.shape[0], : B.shape[1]] = B
    return out


def cb_norm_ladder(A, p, m_max: int, opts: AscentOptions | None = None,
                   gamma2_tol: float = 1e-6) -> list[NormBracket]:
    """Brackets for the amplified norms ||Id_m (x) M_A|| for m = 1..m_max.

    Level m uses the symbol with an m x m all-ones outer block, whose
    multiplier is the m-fold amplification.  Lower witnesses from level m are
    zero-padded into level m+1 starts, so the reported lower bounds are
    nondecreasing up to re-evaluation rounding; where the ascent falls short
    of max |a_ij|, the padded matrix unit at that entry is the witness
    instead.  The ladder is constant at
    p = 2, and every value is dominated by the factorization norm, which the
    ladder approaches as completely bounded evidence (it never claims the
    limit).  At the endpoint exponents the factorization norm is invariant
    under the all-ones amplification and zero padding keeps a Schur ratio,
    so every level is level 1's gamma2 bracket, its witness zero-padded;
    the levels above 1 run no sweeps, so their ``iterations`` is 0.  At
    interior p every level shares one upper bound, the smallest of
    ``interpolation_bound``'s unweighted one and, where the row and column
    maxima x, y of |A| over max |a_ij| (1 on zero rows and columns) are not
    all 1, its bounds weighted by (x y^T)^s for s in STEIN_EXPONENTS, whose
    gamma2 solves stop at relative width WEIGHTED_WIDTH; all hold at every
    level, and InputError refuses a symbol on which none is finite.  Every
    level reports ``converged`` when its width is at most ``gamma2_tol``
    times its upper bound.  The top level's symbol is (m_max n) x (m_max n):
    ``core.require_range`` refuses m_max below 1 (InputError) and m_max n
    above ``core.MAX_DIM`` (ResourceError) before any work.
    """
    pi = as_index(p)
    M = as_matrix(A)
    n = require_square(M, "cb_norm_ladder")
    require_range(m_max, 1, MAX_DIM, "cb_norm_ladder", "m_max")
    require_range(m_max * n, 0, MAX_DIM, "cb_norm_ladder", "m_max * n")
    opts = opts or AscentOptions()

    if n == 0 or not np.any(M):
        return [exact_bracket(0.0, "closed-form", detail="zero symbol")
                for _ in range(m_max)]

    max_abs = float(np.max(np.abs(M)))
    if not np.isfinite(max_abs):
        raise InputError("the entry maximum of this symbol exceeds the float range")
    if pi.value == 2.0:
        return [exact_bracket(max_abs, "closed-form",
                              detail=f"level {m}: entry maximum, exact at p=2")
                for m in range(1, m_max + 1)]

    if pi.is_inf or pi.value == 1.0:
        base, _ = gamma2(M, tol=gamma2_tol)
        B0 = base.lower_certificate["matrix"]
        return [base] + [certified_bracket(
            base.lower, base.upper,
            {"kind": "test-matrix", "matrix": _pad_witness(B0, m * n),
             "detail": f"level-{m} padded endpoint witness"},
            {"kind": "psd-block", "t": base.upper,
             "detail": "amplification-invariant factorization bound"},
            iterations=0, tol=gamma2_tol) for m in range(2, m_max + 1)]

    out = []
    prev_witness: Optional[np.ndarray] = None
    prev_lower = 0.0
    # the smallest of the unweighted bound and those Stein-weighted by the
    # row and column maxima to each exponent, each on a gamma2 solve of its own
    theta = abs(1.0 - 2.0 / pi.value)
    upper, upper_cert = interpolation_bound(M, theta)
    weights = _stein_weights(M)
    for s in STEIN_EXPONENTS if weights is not None else ():
        weighted = interpolation_bound(M, theta, weights=(weights[0] ** s, weights[1] ** s))
        if weighted[0] < upper:
            upper, upper_cert = weighted
    if not math.isfinite(upper):
        raise InputError("every interpolation bound on this symbol exceeds the float range")
    for m in range(1, m_max + 1):
        S = np.kron(np.ones((m, m)), M)
        extra = []
        if prev_witness is not None:
            extra.append(_pad_witness(prev_witness, m * n))
        res = norm_ascent(S, pi, opts, extra_starts=extra)
        lower, witness = entry_floor(M, res.value, res.witness)
        out.append(certified_bracket(
            max(lower, prev_lower), upper,
            {"kind": "test-matrix", "matrix": witness,
             "detail": f"level-{m} ascent witness"},
            dict(upper_cert), iterations=res.iterations, tol=gamma2_tol))
        prev_witness, prev_lower = res.witness, out[-1].lower
    return out


def averaging_projection(T: LinearOperatorOnSp) -> np.ndarray:
    """Project an operator on S_p onto multiplier symbols: d_rs = <T e_rs, e_rs>.

    The pairing is the bilinear trace pairing, so d_rs is just the (r, s)
    entry of T applied to the matrix unit e_rs -- the diagonal of the
    vectorized representation.  Exact: a multiplier is reproduced bit for bit.
    """
    return _unvec(np.diag(T.rep).copy(), T.n)


def averaging_projection_grid(T: LinearOperatorOnSp, N: int) -> np.ndarray:
    """Finite-grid average (1/N^2) sum_xy M_xy T M_xy-bar, as a symbol.

    The modulation symbols are [e^(i x r) e^(i y s)] over the uniform grid
    x, y in {2 pi m / N}.  For N >= n every off-diagonal character sum
    vanishes, so the average IS the projection; ``core.require_range``
    refuses N < n, which aliases, and N > ``core.MAX_DIM``.
    """
    n = T.n
    require_range(N, n, MAX_DIM, "averaging_projection_grid", "N")
    rep = T.rep
    acc = np.zeros_like(rep)
    idx = np.arange(n)
    for mx in range(N):
        for my in range(N):
            x = 2.0 * np.pi * mx / N
            y = 2.0 * np.pi * my / N
            sym = np.exp(1j * x * idx)[:, None] * np.exp(1j * y * idx)[None, :]
            d = _vec(sym)
            acc += (d[:, None] * rep) * d.conj()[None, :]
    acc /= N * N
    return _unvec(np.diag(acc).copy(), n)


@dataclass
class InclusionReport:
    """Pairwise monotonicity evidence for exponents in [1, 2]."""

    pairs: list[dict] = field(default_factory=list)
    passed: bool = True


def inclusion_monotonicity_report(A, ps: Sequence[float],
                                  opts: AscentOptions | None = None) -> InclusionReport:
    """Check lower(q) <= (1 + 1e-6) * upper(p) for every p <= q in ps (all
    in [1, 2]); the slack is relative, so the check means the same at every
    scale.

    The multiplier norm shrinks as the exponent moves from 1 toward 2, so each
    coarser lower bound must sit below each finer upper bound.  Exponents
    above 2 should be mirrored through the conjugate index by the caller.
    """
    indexed = [as_index(p) for p in ps]
    for pi in indexed:
        if pi.is_inf or pi.value > 2.0:
            raise InputError(
                f"inclusion report expects exponents in [1, 2]; got {pi!r}")
    M = as_matrix(A)
    opts = opts or AscentOptions()
    brackets = {pi.value: multiplier_norm(M, pi, opts) for pi in indexed}
    report = InclusionReport()
    vals = sorted(brackets)
    for i, p in enumerate(vals):
        for q in vals[i + 1:]:
            lower_q = brackets[q].lower
            upper_p = brackets[p].upper
            slack = upper_p + 1e-6 * upper_p - lower_q
            ok = slack >= 0.0
            report.pairs.append({
                "p": p, "q": q, "lower_q": lower_q, "upper_p": upper_p,
                "slack": slack, "pass": ok,
            })
            report.passed = report.passed and ok
    return report
