"""Nonconvex lower-bound search for Schur-multiplier operator norms.

The multiplier norm on a Schatten class is a maximum of the convex function
B |-> ||A * B||_p over the unit ball, so every iterate is a valid witness and
the only question is quality.  The iteration is the classical nonlinear power
method: linearize the norm at the current point through its norming functional
in S_{p*}, then move to the exact maximizer of that linear functional over the
S_p ball.  Each step is monotone, so restarts only ever help.

Restarts run one after another and are reduced deterministically (largest
value, ties to the earliest start), so a seed pins the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InputError, SchattenIndex, as_index, as_matrix, schatten_norm

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


def norming_functional(C: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_{p*} matrix G with Re tr(G^* C) = ||C||_p (Hoelder equality).

    For finite p this is U diag((sigma/||sigma||_p)^(p-1)) V^*; at p = oo it
    degenerates to the top singular dyad.  Returns zero for C = 0.
    """
    U, s, Vh = np.linalg.svd(C)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(C)
    if p.is_inf:
        return np.outer(U[:, 0], Vh[0].conj())
    r = s / s[0]  # scale-free, so the powers cannot overflow
    g = (r / np.sum(r ** p.value) ** (1.0 / p.value)) ** (p.value - 1.0)
    return (U * g) @ Vh


def dual_maximizer(H: np.ndarray, p: SchattenIndex) -> np.ndarray:
    """Unit-S_p matrix B maximizing Re tr(H^* B), with value ||H||_{p*}.

    At p = 1 the maximizer is the top singular dyad; at p = oo it is the polar
    factor (all singular values set to 1).  Returns zero for H = 0.
    """
    U, s, Vh = np.linalg.svd(H)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(H)
    if p.is_inf:
        return U @ Vh
    q = p.conjugate()
    if q.is_inf:  # p = 1: sharpest dyad
        return np.outer(U[:, 0], Vh[0].conj())
    r = s / s[0]
    g = (r / np.sum(r ** q.value) ** (1.0 / q.value)) ** (q.value - 1.0)
    return (U * g) @ Vh


def unit_phases(A: np.ndarray) -> np.ndarray:
    """Entrywise phases of A, with zeros promoted to 1.

    Accepts any array shape; vectors phase through unchanged in shape.
    """
    M = np.asarray(A, dtype=complex)
    out = np.ones_like(M)
    nz = M != 0
    out[nz] = M[nz] / np.abs(M[nz])
    return out


def _one_climb(A: np.ndarray, p: SchattenIndex, B0: np.ndarray,
               max_iter: int, tol: float) -> tuple[float, np.ndarray, int]:
    nB = schatten_norm(B0, p)
    if nB == 0.0:
        return 0.0, B0, 0
    B = B0 / nB
    Ac = A.conj()
    val = schatten_norm(A * B, p)
    used = 0
    for it in range(max_iter):
        used = it + 1
        G = norming_functional(A * B, p)
        Bn = dual_maximizer(Ac * G, p)
        nBn = schatten_norm(Bn, p)
        if nBn == 0.0:
            break
        new = schatten_norm(A * Bn, p) / nBn
        if new <= val + tol * max(1.0, val):
            if new > val:
                val, B = new, Bn / nBn
            break
        val, B = new, Bn / nBn
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

    best_val, best_B, total_it = -1.0, np.zeros_like(M), 0
    for B0 in starts:
        val, B, used = _one_climb(M, pi, B0, opts.max_iter, opts.tol)
        total_it += used
        if val > best_val:
            best_val, best_B = val, B
    return AscentResult(max(best_val, 0.0), best_B, total_it)
