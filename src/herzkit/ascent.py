"""Nonconvex lower-bound search for Schur-multiplier operator norms.

The multiplier norm on a Schatten class is a maximum of the convex function
B |-> ||A * B||_p over the unit ball, so every iterate is a valid witness and
the only question is quality.  The iteration is the classical nonlinear power
method: linearize the norm at the current point through its norming functional
in S_{p*}, then move to the exact maximizer of that linear functional over the
S_p ball.  Each step is monotone, so restarts only ever help.

The search has two phases.  The screen runs every start, climbing together
as one (K, n, n) stack, to a loose stop (a relative rise of at most
``SCREEN_TOL``); a start leaves the stack at the step where it stops.  The
starts of one symbol mostly end in the same basin, so climbing each to the
tight stop would repeat one climb K times.  The polish takes only the
leader (largest screened value, ties to the earliest start) on to the
caller's ``tol``, with the steps the screen left it of ``max_iter``.

A step takes two batched SVDs over the starts still climbing: one for the
maximizer Bn of the functional, and one of A * Bn, whose singular values
give the new value and whose factors give the next step's functional.
||Bn||_p needs no SVD, because the maximizer's weights are its singular
values.  Every start follows the same path, bit for bit, as it would
alone, so a seed pins the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (MAX_COUNT, InputError, ResourceError, SchattenIndex, as_index, as_matrix,
                   ldexp, lp_norms, lp_roots, modulus_exponent, require_square,
                   schatten_norms)

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

    ``tol`` is the polish's stop: the leader climbs while its value rises
    by more than tol * value.  ``max_iter`` bounds the leader's steps over
    both phases, and ``restarts`` runs from 0 to ``core.MAX_COUNT``.
    """

    restarts: int = 64
    max_iter: int = 200
    tol: float = 1e-12
    seed: int = 0


@dataclass(frozen=True)
class AscentResult:
    value: float
    witness: np.ndarray
    iterations: int


def _map_from_svd(U: np.ndarray, s: np.ndarray, Vh: np.ndarray,
                  p: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    """U diag(w) V^* with w = (sigma/||sigma||_p)^(p-1), from the thin SVD
    (U, sigma, V^*) of each matrix of a stack, and the weights w, which are
    the singular values of the result (largest first); at p = oo, the top
    singular dyad.  Zero matrices map to zero, without a division by zero."""
    live = s[..., 0] > 0.0
    if not np.all(live):  # map the nonzero matrices on their own
        out = np.zeros(U.shape[:-1] + Vh.shape[-1:], dtype=U.dtype)
        w = np.zeros_like(s)
        if np.any(live):
            out[live], w[live] = _map_from_svd(U[live], s[live], Vh[live], p)
        return out, w
    if p.is_inf:
        w = np.zeros_like(s)
        w[..., 0] = 1.0
        return U[..., :, :1] @ Vh[..., :1, :], w  # u v^*, the top singular dyad
    r = s / s[..., :1]  # scale-free, so the powers cannot overflow
    w = (r / lp_roots(np.sum(r ** p.value, axis=-1), p.value)[..., None]) ** (p.value - 1.0)
    return (U * w[..., None, :]) @ Vh, w


def _svd_map(X: np.ndarray, p: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    """``_map_from_svd`` of a stack X of shape (..., m, n), with one batched SVD."""
    X = np.asarray(X)
    if min(X.shape[-2:]) == 0:
        return np.zeros_like(X), np.zeros(X.shape[:-2] + (0,))
    return _map_from_svd(*np.linalg.svd(X, full_matrices=False), p)


def _dual_map(H: np.ndarray, p: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    # the S_p maximizer is H's S_{p*} norming functional: at p = oo, weights 1
    return _svd_map(H, p.conjugate())


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
    ``norming_functional``.
    """
    return _dual_map(H, p)[0]


_TINY = 2.0 ** -1000

# the screen's stop: a relative rise at which a start leaves the screen.
# At 1e-3 the screen can rank a lower basin first.
SCREEN_TOL = 1e-4


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


def _climb(A: np.ndarray, p: SchattenIndex, B0: np.ndarray,
           max_iter: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the power method from every start of the stack B0 (K, n, n) at once.

    Each start keeps its own rule: step while the value rises by more than
    tol * value, keep a last smaller rise, stop when the maximizer
    vanishes.  The screen runs it at ``SCREEN_TOL`` on every start, the
    polish at the caller's tol on the leader alone.  The functional is taken
    from the SVD of A * Bn, not of A * Bn / ||Bn||_p: it depends on
    sigma / sigma_1 alone.  ||Bn||_p is the l_p norm of the weights that
    built Bn (1 up to rounding).  Returns the values, witnesses (unit-S_p,
    up to rounding) and steps taken, per start.
    """
    K = B0.shape[0]
    nB = schatten_norms(B0, p)
    live = np.flatnonzero(nB != 0.0)  # a zero start stays as given, 0 steps
    B = B0.copy()
    B[live] = B0[live] / nB[live, None, None]
    U, s, Vh = np.linalg.svd(A * B[live], full_matrices=False)
    val = np.zeros(K)
    val[live] = lp_norms(s, p)
    used = np.zeros(K, dtype=np.int64)
    Ac = A.conj()
    for it in range(max_iter):
        if live.size == 0:
            break
        used[live] = it + 1
        G, _ = _map_from_svd(U, s, Vh, p)
        Bn, w = _dual_map(Ac * G, p)
        nBn = lp_norms(w, p)
        ok = nBn != 0.0
        U, s, Vh = np.linalg.svd(A * Bn, full_matrices=False)
        new = np.divide(lp_norms(s, p), nBn, out=np.zeros_like(nBn), where=ok)
        cur = val[live]
        stop = ~ok | (new <= cur + tol * cur)
        take = ok & (~stop | (new > cur))
        val[live[take]] = new[take]
        B[live[take]] = Bn[take] / nBn[take, None, None]
        live = live[~stop]
        U, s, Vh = U[~stop], s[~stop], Vh[~stop]
    return val, B, used


def norm_ascent(A: np.ndarray, p: "float | SchattenIndex",
                opts: AscentOptions | None = None,
                extra_starts: Sequence[np.ndarray] = ()) -> AscentResult:
    """Best found value of ||A * B||_p / ||B||_p with its witness B.

    Starts from the entrywise phase matrix of A, the all-ones matrix, any
    caller-supplied warm starts, and seeded gaussian draws.  Every start is
    screened to a relative rise of ``SCREEN_TOL``; the leader is then
    polished to ``opts.tol`` with the rest of its ``max_iter`` steps, and
    keeps its screened value and witness if the polish does not beat them.
    ``iterations`` counts the steps of both phases, summed over starts.
    The returned value is always a valid lower bound for the multiplier
    norm; the witness satisfies ||B||_p = 1 up to rounding.  Fewer than 0
    restarts is an InputError and more than ``core.MAX_COUNT`` a
    ResourceError, each raised before any start is built.
    """
    opts = opts or AscentOptions()
    if opts.restarts < 0:
        raise InputError(f"norm_ascent takes at least 0 restarts, got {opts.restarts}")
    if opts.restarts > MAX_COUNT:
        raise ResourceError(f"norm_ascent takes at most {MAX_COUNT} restarts, "
                            f"got {opts.restarts}")
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
    val, B, used = _climb(S, pi, np.stack(starts), opts.max_iter, SCREEN_TOL)
    best = int(np.argmax(val))  # ties go to the earliest start
    top, W = val[best], B[best]
    pval, pB, pused = _climb(S, pi, B[best:best + 1], opts.max_iter - int(used[best]),
                             opts.tol)
    if pval[0] > top:
        top, W = pval[0], pB[0]
    with np.errstate(over="ignore"):  # past the float range: still >= its top
        value = min(float(np.ldexp(top, e)), np.finfo(float).max)
    return AscentResult(max(value, 0.0), W.copy(), int(used.sum() + pused[0]))
