"""Nonconvex lower-bound search for Schur-multiplier operator norms.

The multiplier norm on a Schatten class is a maximum of the convex function
B |-> ||A * B||_p over the unit ball, so every iterate is a valid witness and
the only question is quality.  The iteration is the classical nonlinear power
method: linearize the norm at the current point through its norming functional
in S_{p*}, then move to the exact maximizer of that linear functional over the
S_p ball.  Each plain step is monotone, so restarts only ever help.

The search has two phases.  The screen runs every start, climbing together
as one (K, n, n) stack, to a loose stop (``SCREEN_TOL``); a start leaves
the stack at the step where it stops.  The starts of one symbol mostly end
in the same basin, so climbing each to the tight stop would repeat one
climb K times.  The polish takes only the leader (largest screened value,
ties to the earliest start) on to ``POLISH_TOL``, with the steps the screen
left it of ``max_iter``.  The plain step, a map G -> T(G) on norming
functionals, closes the gap only linearly, so both phases extrapolate it
by Anderson mixing of recent pairs (G, T(G)) (Walker-Ni 2011; ``_climb``).

A step takes two batched SVDs over the starts still climbing: one for the
maximizer Bn of the functional, and one of A * Bn, whose singular values
give the new value and whose factors give T(G).  ||Bn||_p needs no SVD,
because the maximizer's weights are its singular values.  Every start
follows the same path, bit for bit, as it would alone, so a seed pins the
outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (MAX_COUNT, SchattenIndex, as_index, as_matrix, ldexp, lp_norms, lp_roots,
                   modulus_exponent, require_range, require_square, schatten_norms)
from .gamma2 import ANDERSON_RIDGE

__all__ = [
    "AscentOptions",
    "AscentResult",
    "norming_functional",
    "dual_maximizer",
    "unit_phases",
    "norm_ascent",
]


@dataclass(frozen=True)
class AscentOptions:
    """Budget for the restart search; defaults follow the repo-wide contract.

    ``max_iter`` bounds the leader's steps over both phases; the stops are
    the constants ``SCREEN_TOL`` and ``POLISH_TOL``.  The options check
    themselves when built, by ``core.require_range``: ``restarts`` runs
    from 0 to ``core.MAX_COUNT``, ``max_iter`` and ``seed`` from 0.
    """

    restarts: int = 64
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        require_range(self.restarts, 0, MAX_COUNT, "AscentOptions", "restarts")
        require_range(self.max_iter, 0, None, "AscentOptions", "max_iter")
        require_range(self.seed, 0, None, "AscentOptions", "seed")


@dataclass(frozen=True)
class AscentResult:
    """The best value found, its witness and the steps taken.

    ``budget_exhausted`` is True when ``max_iter``, not ``POLISH_TOL``,
    ended the leader's polish: the leader was still climbing at its last
    step, or the screen left it no step.  The value is then a valid lower
    bound that a larger budget may raise.
    """

    value: float
    witness: np.ndarray
    iterations: int
    budget_exhausted: bool = False


def _map_from_svd(U: np.ndarray, s: np.ndarray, Vh: np.ndarray,
                  p: SchattenIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U diag(w) V^* with w = (sigma/||sigma||_p)^(p-1), from the thin SVD
    (U, sigma, V^*) of each matrix of a stack, the weights w, which are
    the singular values of the result (largest first), and ||sigma||_p, from
    the same sum of powers; at p = oo, the top singular dyad.  Zero matrices
    map to zero, without a division by zero."""
    live = s[..., 0] > 0.0
    if not np.all(live):  # map the nonzero matrices on their own
        out = np.zeros(U.shape[:-1] + Vh.shape[-1:], dtype=U.dtype)
        w, norm = np.zeros_like(s), np.zeros(s.shape[:-1])
        if np.any(live):
            out[live], w[live], norm[live] = _map_from_svd(U[live], s[live], Vh[live], p)
        return out, w, norm
    if p.is_inf:
        w = np.zeros_like(s)
        w[..., 0] = 1.0
        return U[..., :, :1] @ Vh[..., :1, :], w, s[..., 0].copy()  # the top dyad u v^*
    r = s / s[..., :1]  # scale-free, so the powers cannot overflow
    root = lp_roots(np.sum(r ** p.value, axis=-1), p.value)
    w = (r / root[..., None]) ** (p.value - 1.0)
    return (U * w[..., None, :]) @ Vh, w, s[..., 0] * root


def _svd_map(X: np.ndarray, p: SchattenIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_map_from_svd`` of a stack X of shape (..., m, n), with one batched SVD."""
    X = np.asarray(X)
    if min(X.shape[-2:]) == 0:
        return np.zeros_like(X), np.zeros(X.shape[:-2] + (0,)), np.zeros(X.shape[:-2])
    return _map_from_svd(*np.linalg.svd(X, full_matrices=False), p)


def norming_functional(C: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_{p*} matrix G with Re tr(G^* C) = ||C||_p (Hoelder equality).

    For finite p this is U diag((sigma/||sigma||_p)^(p-1)) V^*; at p = oo it
    degenerates to the top singular dyad.  Returns zero for C = 0.  C may be
    a stack of shape (..., m, n); each matrix is mapped on its own, with one
    batched SVD.
    """
    return _svd_map(C, p)[0]


def dual_maximizer(H: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_p matrix B maximizing Re tr(H^* B), with value ||H||_{p*}.

    At p = 1 the maximizer is the top singular dyad; at p = oo it is the polar
    factor (all singular values set to 1).  Returns zero for H = 0.  H may be
    a stack of shape (..., m, n), mapped matrix by matrix as in
    ``norming_functional``: the maximizer is H's S_{p*} norming functional.
    """
    return _svd_map(H, p.conjugate())[0]


_TINY = 2.0 ** -1000

# the screen's stop: a relative rise at which a start leaves the screen.
# At 1e-3 the screen can rank a lower basin first.
SCREEN_TOL = 1e-4

POLISH_TOL = 1e-12  # the polish's stop: the leader's least relative rise

# the steps the polish mixes; the screen mixes one, by a closed-form
# secant step, since a stacked solve over five cost more than it saved
POLISH_DEPTH = 5


def unit_phases(A: np.ndarray) -> np.ndarray:
    """Entrywise phases of A, with zeros promoted to 1.

    Accepts any array shape; vectors phase through unchanged in shape.
    When no modulus is zero, NaN or below ``_TINY``, the phases are M / |M|
    in one pass, the same bytes as the masked path gives: the moduli are
    taken in C order, as the mask takes them (numpy's modulus of a strided
    array can differ in the last bit).
    """
    M = np.asarray(A, dtype=complex)
    r = np.abs(M.ravel())
    if r.size and r.min() >= _TINY:  # a NaN fails the test
        return np.divide(M, r.reshape(M.shape), out=np.empty_like(M))
    out = np.ones_like(M)
    nz = M != 0
    Z = M[nz]
    # numpy divides by |z| through 1/|z|, which overflows for subnormal z;
    # a power-of-two rescale of the tiny entries is exact
    tiny = np.abs(Z) < _TINY
    Z[tiny] *= 1.0 / _TINY
    out[nz] = Z / np.abs(Z)
    return out


def _climb(A: np.ndarray, p: SchattenIndex, B0: np.ndarray, max_iter: int,
           polish: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Climb from every start of the stack B0 (K, n, n) at once.

    A point G takes two SVDs: that of A-bar * G gives the S_p maximizer Bn
    (its weights give ||Bn||_p), that of A * Bn the value ||A * Bn||_p /
    ||Bn||_p and T(G), the norming functional of A * Bn.  With residuals
    r = T(G) - G, the screen steps to T(G) - gam dT, gam = Re<dr, r> /
    ||dr||^2 over the differences to the last pair; a gam of 1 or more
    aims back at an unstable fixed point (the residual grew, as when
    leaving a saddle), so the step goes as far forward instead.  The polish
    steps to T(G) - dT^T gam over its last ``POLISH_DEPTH`` differences,
    scaled to unit length, with gam from the normal equations ridged by
    ``gamma2.ANDERSON_RIDGE``.  A plain step goes to T at the start's best
    point: the first two, any after a fall (which drops the history) and
    any whose combination is not finite.  The screen stops a start at the
    first step that does not fall and rises by at most ``SCREEN_TOL`` over
    its best; the polish follows a rise of at most ``POLISH_TOL`` with a
    plain step and stops only at a plain step that rises by at most that.
    A plain step that falls, or whose maximizer vanishes, stops too.
    Returns the values, witnesses (unit-S_p, up to rounding) and steps, per
    start, and the indices of the starts still climbing at ``max_iter``.
    """
    tol = POLISH_TOL if polish else SCREEN_TOL
    K, n, q = B0.shape[0], A.shape[0], p.conjugate()
    nB = schatten_norms(B0, p)
    live = np.flatnonzero(nB != 0.0)  # a zero start stays as given, 0 steps
    B = B0.copy()
    B[live] = B0[live] / nB[live, None, None]
    val, used, Ac = np.zeros(K), np.zeros(K, dtype=np.int64), A.conj()
    # per live start: the best value, maximizer and its norm (the witness is
    # their quotient), T at the best point, the next point as a real vector,
    # whether it is plain, and the last residual and map value if no fall
    Tb, _, cur = _svd_map(A * B[live], p)
    Bbest, nBbest = B[live], np.ones(live.size)
    G = Tb.reshape(live.size, n * n).view(float).copy()
    plain, has_last = np.ones(live.size, dtype=bool), np.zeros(live.size, dtype=bool)
    R_last = T_last = np.zeros_like(G)
    hist: list = []  # the polish's differences (dr, dT), oldest first
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        Bn, w, _ = _svd_map(Ac * G.view(complex).reshape(-1, n, n), q)
        nBn = lp_norms(w, p)
        Tn, _, nX = _svd_map(A * Bn, p)
        new = np.divide(nX, nBn, out=np.zeros_like(nBn), where=nBn != 0.0)
        fall = new < cur
        small = new <= cur + tol * cur
        stop = small & (plain if polish else plain | ~fall)
        take = new > cur
        cur = np.maximum(new, cur)
        np.copyto(Bbest, Bn, where=take[:, None, None])
        np.copyto(nBbest, nBn, where=take)
        np.copyto(Tb, Tn, where=take[:, None, None])
        T = Tn.reshape(live.size, -1).view(float)
        R = T - G
        if polish:
            G, plain = Tb.reshape(1, -1).view(float).copy(), np.ones(1, dtype=bool)
            if fall[0]:
                hist = []
            elif has_last[0]:
                dr = R[0] - R_last[0]
                length = math.sqrt(dr @ dr)
                if length > 0.0:
                    hist = (hist + [(dr / length, (T[0] - T_last[0]) / length)])[-POLISH_DEPTH:]
            if hist and not small[0]:
                dR = np.array([h[0] for h in hist])
                H = dR @ dR.T + ANDERSON_RIDGE * np.eye(len(hist))
                with np.errstate(all="ignore"):
                    step = T[0] - np.linalg.solve(H, dR @ R[0]) @ np.array([h[1] for h in hist])
                if np.all(np.isfinite(step)):
                    G[0], plain[0] = step, False
        else:
            with np.errstate(all="ignore"):
                dr = R - R_last
                gam = np.sum(dr * R, axis=-1) / np.sum(dr * dr, axis=-1)
                gam = np.where(gam < 1.0, gam, -gam)
                plain = ~(has_last & ~fall & np.isfinite(gam))
                G = np.where(plain[:, None], Tb.reshape(live.size, -1).view(float),
                             T - gam[:, None] * (T - T_last))
        R_last, T_last, has_last = R, T, ~fall
        if stop.any():
            done, keep = live[stop], ~stop
            used[done], val[done] = it, cur[stop]
            B[done] = Bbest[stop] / nBbest[stop, None, None]
            live, cur, Bbest, nBbest, Tb, G, plain, R_last, T_last, has_last = (
                x[keep] for x in (live, cur, Bbest, nBbest, Tb, G, plain,
                                  R_last, T_last, has_last))
    used[live], val[live] = max_iter, cur
    B[live] = Bbest / nBbest[:, None, None]
    return val, B, used, live


def norm_ascent(A: np.ndarray, p: "float | SchattenIndex",
                opts: AscentOptions | None = None,
                extra_starts: Sequence[np.ndarray] = ()) -> AscentResult:
    """Best found value of ||A * B||_p / ||B||_p with its witness B.

    Starts from the entrywise phase matrix of A, the all-ones matrix, any
    caller-supplied warm starts, and seeded gaussian draws.  Every start is
    screened, with secant steps, to a relative rise of ``SCREEN_TOL``; the
    leader is then polished, with Anderson steps over its last
    ``POLISH_DEPTH``, until a plain step rises by at most ``POLISH_TOL``,
    with the rest of its ``max_iter`` steps, and keeps its screened value
    and witness if the polish does not beat them (see ``_climb``).
    ``iterations`` counts the steps of both phases, summed over starts;
    ``budget_exhausted`` says whether ``max_iter`` ended the polish.
    The returned value is always a valid lower bound for the multiplier
    norm; the witness satisfies ||B||_p = 1 up to rounding.  ``opts`` has
    checked its restarts, step budget and seed when it was built.
    """
    opts = opts or AscentOptions()
    pi = as_index(p)
    M = as_matrix(A)
    n = require_square(M, "norm_ascent")
    if n == 0 or not np.any(M):
        return AscentResult(0.0, np.zeros_like(M), 0)

    starts: list[np.ndarray] = [unit_phases(M), np.ones((n, n), dtype=complex)]
    starts.extend(as_matrix(S) for S in extra_starts)
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.restarts):
        starts.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    # the climb is scale-equivariant: run it with max |a_ij| in [1/2, 1),
    # so no norm overflows, and scale back
    e = modulus_exponent(M)
    S = ldexp(M, -e)
    val, B, used, _ = _climb(S, pi, np.stack(starts), opts.max_iter, False)
    best = int(np.argmax(val))  # ties go to the earliest start
    top, W = val[best], B[best]
    budget = opts.max_iter - int(used[best])
    pval, pB, pused, climbing = _climb(S, pi, B[best:best + 1], budget, True)
    if pval[0] > top:
        top, W = pval[0], pB[0]
    with np.errstate(over="ignore"):  # past the float range: still >= its top
        value = min(float(np.ldexp(top, e)), np.finfo(float).max)
    return AscentResult(max(value, 0.0), W.copy(), int(used.sum() + pused[0]),
                        budget == 0 or climbing.size > 0)
