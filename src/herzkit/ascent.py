"""Nonconvex lower-bound search for Schur-multiplier operator norms.

The multiplier norm on a Schatten class is a maximum of the convex function
B |-> ||A * B||_p over the unit ball, so every iterate is a valid witness and
the only question is quality.  The iteration is the classical nonlinear power
method: linearize the norm at the current point through its norming functional
in S_{p*}, then move to the exact maximizer of that linear functional over the
S_p ball.  Each step is monotone, so restarts only ever help.

All restarts climb together as one (K, n, n) stack: each step makes one
batched SVD per functional for the starts still climbing, and a start leaves
the stack at the step where it stops.  Every start follows the same path,
bit for bit, as it would alone.  The reduction is deterministic (largest
value, ties to the earliest start), so a seed pins the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (InputError, SchattenIndex, as_index, as_matrix, lp_roots,
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
    """Budget for the restart search; defaults follow the repo-wide contract."""

    restarts: int = 64
    max_iter: int = 200
    tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class AscentResult:
    value: float
    witness: np.ndarray
    iterations: int


def _svd_map(X: np.ndarray, p: SchattenIndex, at_inf) -> np.ndarray:
    """U diag((sigma/||sigma||_p)^(p-1)) V^* for each matrix of a stack
    X of shape (..., m, n); ``at_inf(U, Vh)`` at p = oo.  Zero matrices map
    to zero, without a division by zero."""
    X = np.asarray(X)
    if min(X.shape[-2:]) == 0:
        return np.zeros_like(X)
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    live = s[..., 0] > 0.0
    if not np.all(live):  # map the nonzero matrices on their own
        out = np.zeros(X.shape, dtype=U.dtype)
        if np.any(live):
            out[live] = _svd_map(X[live], p, at_inf)
        return out
    if p.is_inf:
        return at_inf(U, Vh)
    r = s / s[..., :1]  # scale-free, so the powers cannot overflow
    g = (r / lp_roots(np.sum(r ** p.value, axis=-1), p.value)[..., None]) ** (p.value - 1.0)
    return (U * g[..., None, :]) @ Vh


def _top_dyad(U: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    return U[..., :, :1] @ Vh[..., :1, :]  # u v^*, the top singular dyad


def _polar(U: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    return U @ Vh


def norming_functional(C: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_{p*} matrix G with Re tr(G^* C) = ||C||_p (Hoelder equality).

    For finite p this is U diag((sigma/||sigma||_p)^(p-1)) V^*; at p = oo it
    degenerates to the top singular dyad.  Returns zero for C = 0.  C may be
    a stack of shape (..., m, n); each matrix is mapped on its own, with one
    batched SVD.
    """
    return _svd_map(C, p, _top_dyad)


def dual_maximizer(H: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_p matrix B maximizing Re tr(H^* B), with value ||H||_{p*}.

    At p = 1 the maximizer is the top singular dyad; at p = oo it is the polar
    factor (all singular values set to 1).  Returns zero for H = 0.  H may be
    a stack of shape (..., m, n), mapped matrix by matrix as in
    ``norming_functional``.
    """
    if p.is_inf:
        return _svd_map(H, SchattenIndex(None), _polar)
    return _svd_map(H, p.conjugate(), _top_dyad)


_TINY = 2.0 ** -1000


def unit_phases(A: np.ndarray) -> np.ndarray:
    """Entrywise phases of A, with zeros promoted to 1.

    Accepts any array shape; vectors phase through unchanged in shape.
    """
    M = np.asarray(A, dtype=complex)
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
    tol * max(1, value), keep a last smaller rise, stop when the maximizer
    vanishes.  A start leaves the stack at the step where it stops, so each
    step does one batched SVD per functional for the starts still climbing.
    Returns the values, witnesses and steps taken, per start.
    """
    K = B0.shape[0]
    nB = schatten_norms(B0, p)
    live = np.flatnonzero(nB != 0.0)  # a zero start stays as given, 0 steps
    B = B0.copy()
    B[live] = B0[live] / nB[live, None, None]
    val = np.zeros(K)
    val[live] = schatten_norms(A * B[live], p)
    used = np.zeros(K, dtype=np.int64)
    Ac = A.conj()
    for it in range(max_iter):
        if live.size == 0:
            break
        used[live] = it + 1
        G = norming_functional(A * B[live], p)
        Bn = dual_maximizer(Ac * G, p)
        nBn = schatten_norms(Bn, p)
        ok = nBn != 0.0
        new = np.divide(schatten_norms(A * Bn, p), nBn,
                        out=np.zeros_like(nBn), where=ok)
        cur = val[live]
        stop = ~ok | (new <= cur + tol * np.maximum(1.0, cur))
        take = ok & (~stop | (new > cur))
        val[live[take]] = new[take]
        B[live[take]] = Bn[take] / nBn[take, None, None]
        live = live[~stop]
    return val, B, used


def norm_ascent(A: np.ndarray, p: "float | SchattenIndex",
                opts: AscentOptions | None = None,
                extra_starts: Sequence[np.ndarray] = ()) -> AscentResult:
    """Best found value of ||A * B||_p / ||B||_p with its witness B.

    Starts from the entrywise phase matrix of A, the all-ones matrix, any
    caller-supplied warm starts, and seeded gaussian draws.  The returned
    value is always a valid lower bound for the multiplier norm; the witness
    satisfies ||B||_p = 1 up to rounding.
    """
    opts = opts or AscentOptions()
    pi = as_index(p)
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"norm_ascent requires a square symbol, got {M.shape}")
    n = M.shape[0]
    if n == 0 or not np.any(M):
        return AscentResult(0.0, np.zeros_like(M), 0)

    starts: list[np.ndarray] = [unit_phases(M), np.ones((n, n), dtype=complex)]
    starts.extend(as_matrix(S) for S in extra_starts)
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts)):
        starts.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    val, B, used = _climb(M, pi, np.stack(starts), opts.max_iter, opts.tol)
    best = int(np.argmax(val))  # ties go to the earliest start
    return AscentResult(max(float(val[best]), 0.0), B[best].copy(), int(used.sum()))
