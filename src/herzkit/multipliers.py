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
  where the ascent falls short, and an interpolation upper bound
  gamma2(A)^theta * maxabs(A)^(1-theta) with theta = |1 - 2/p|.

Also here: the averaging projection from operators on S_p onto multiplier
symbols, and the inclusion monotonicity report for exponents in [1, 2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ascent import AscentOptions, norm_ascent
from .core import (
    MAX_DIM,
    InputError,
    NormBracket,
    SchattenIndex,
    as_index,
    as_matrix,
    certified_bracket,
    entry_floor,
    exact_bracket,
    require_range,
    require_square,
)
from .gamma2 import gamma2

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


def _interpolation_upper(M: np.ndarray, pi: SchattenIndex,
                         max_abs: float) -> tuple[float, dict]:
    """gamma2(M)^theta * max_abs^(1-theta), theta = |1 - 2/p|, with its
    certificate: the Riesz-Thorin bound between S_2 and the endpoints."""
    theta = abs(1.0 - 2.0 / pi.value)
    g = gamma2(M)[0].upper
    # g bounds every S_p norm; the product can round above it or overflow
    upper = min(g ** theta * max_abs ** (1.0 - theta), g)
    return upper, {"kind": "interpolation", "theta": theta,
                   "gamma2_upper": g, "max_abs": max_abs}


def multiplier_norm(A, p, opts: AscentOptions | None = None,
                    gamma2_tol: float = 1e-6) -> NormBracket:
    """Certified bracket for the Schur multiplier norm of A on S_p: level 1
    of ``cb_norm_ladder``, so the same n <= ``core.MAX_DIM`` cap applies.

    The returned bracket always contains the true norm: lower bounds are
    witnessed ratios, upper bounds are the exact p = 2 value, the certified
    factorization norm at the endpoints, or the interpolation bound between
    them.  ``opts.restarts = 0`` keeps only the cheap structured witnesses.
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
    the levels above 1 run no sweeps, so their ``iterations`` is 0.  Every
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
    upper, upper_cert = _interpolation_upper(M, pi, max_abs)
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
