"""Classifying symbols whose Schur action preserves Schatten norms.

For exponents other than 2 a symbol acts isometrically exactly when it is
rank one with unimodular entries, C = a b^T with |a_i| = |b_j| = 1; the
action is then B |-> diag(a) B diag(b), a two-sided unitary rotation.  At
p = 2 the rank condition disappears and unimodular entries suffice.  This
module decides membership numerically, extracts the (a, b) factors,
verifies the forward direction on random inputs, and hunts for concrete
norm-deviation witnesses when the answer is no.

The DFT layer expands an arbitrary symbol into n^2 rank-one unimodular
character terms, an exact finite decomposition showing that the isometric
symbols span every symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .ascent import AscentOptions, norm_ascent, unit_phases
from .core import (MAX_COUNT, InputError, as_index, as_matrix, gaussians, ldexp,
                   modulus_exponent, require_range, require_square, schatten_norm,
                   schatten_norms)

__all__ = [
    "ISOMETRY_TOL",
    "IsometryVerdict",
    "classify_isometric",
    "ForwardCheckReport",
    "isometry_forward_check",
    "DeviationWitness",
    "isometry_witness_search",
    "DftTerm",
    "dft_decompose",
    "sign_average_entry",
]

ISOMETRY_TOL = 1e-8


@dataclass
class IsometryVerdict:
    """Outcome of the isometry test for one symbol at one exponent.

    ``reason`` explains the verdict: "rank_one_unimodular" or
    "unimodular_entries" on success, "zero_entry", "not_rank_one_unimodular",
    or "entries_not_unimodular" on failure.  When the symbol factors, ``a``
    and ``b`` hold unimodular vectors with C = outer(a, b) up to
    ``factor_deviation``.
    """

    is_isometric: bool
    reason: str
    p: float
    modulus_deviation: float
    rank_ratio: float
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    factor_deviation: float = 0.0


def classify_isometric(C, p, tol: float = ISOMETRY_TOL) -> IsometryVerdict:
    """Decide whether the Schur action of C on S_p preserves every norm.

    One rule: a symbol with an entry of modulus at most tol fails; any
    other is isometric when its entries are unimodular (within tol) and
    either p = 2 or it is rank one (second singular value at most tol
    relative to the first).  An isometric rank-one symbol gets its factors
    read off the (0, 0) corner: b_j = c_0j, a_i = c_i0 / c_00.
    """
    pi = as_index(p)
    M = as_matrix(C)
    require_square(M, "classify_isometric", nonempty=True)
    mods = np.abs(M)
    mod_dev = float(np.max(np.abs(mods - 1.0)))
    s = np.linalg.svd(M, compute_uv=False)
    if not np.isfinite(s[0]):
        raise InputError("the norm of this symbol exceeds the float range")
    rank_ratio = float(s[1] / s[0]) if s.size > 1 and s[0] > 0 else 0.0

    zero_entry = mods.min() <= tol
    relaxed = pi.value == 2.0
    rank_one = rank_ratio <= tol
    is_iso = not zero_entry and mod_dev <= tol and (relaxed or rank_one)
    if zero_entry:
        reason = "zero_entry"
    elif relaxed:
        reason = "unimodular_entries" if is_iso else "entries_not_unimodular"
    else:
        reason = "rank_one_unimodular" if is_iso else "not_rank_one_unimodular"
    verdict = IsometryVerdict(is_iso, reason, pi.value, mod_dev, rank_ratio)
    if is_iso and rank_one:
        verdict.a = unit_phases(M[:, 0] / M[0, 0])
        verdict.b = unit_phases(M[0, :])
        verdict.factor_deviation = float(np.max(np.abs(M - np.outer(verdict.a, verdict.b))))
    return verdict


@dataclass
class ForwardCheckReport:
    p: float
    trials: int
    max_ratio_deviation: float
    tolerance: float
    passed: bool


def isometry_forward_check(a, b, p, trials: int = 25, seed: int = 0) -> ForwardCheckReport:
    """Verify that C = outer(a, b) with unimodular factors preserves the
    p-norm of random test matrices.

    The action equals diag(a) B diag(b) with unitary diagonal factors, so
    the ratio should match 1 to within 1e-12.  ``trials`` runs from 1 to
    ``core.MAX_COUNT`` and ``seed`` from 0, checked by ``core.require_range``
    before any draw.
    """
    require_range(trials, 1, MAX_COUNT, "isometry_forward_check", "trials")
    require_range(seed, 0, None, "isometry_forward_check", "seed")
    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size or av.size == 0:
        raise InputError("factor vectors must be nonempty and equal length")
    for name, v in (("a", av), ("b", bv)):
        dev = np.max(np.abs(np.abs(v) - 1.0))
        if dev > 1e-9:
            raise InputError(f"factor {name} is not unimodular (deviation {dev:.2e})")
    pi = as_index(p)
    C = np.outer(av, bv)
    B = gaussians(av.size, seed, 7, trials)
    ratio = schatten_norms(C * B, pi) / schatten_norms(B, pi)  # a gaussian draw is nonzero
    worst = float(np.max(np.abs(ratio - 1.0), initial=0.0))
    return ForwardCheckReport(pi.value, trials, worst, 1e-12, worst <= 1e-12)


@dataclass
class DeviationWitness:
    """A concrete matrix whose p-norm the symbol fails to preserve.

    ``ratio`` is ||C o B||_p / ||B||_p for the stored witness and
    ``deviation`` is |ratio - 1|, a certified lower bound on how far the
    action is from isometric.  ``mode`` records which hunt produced it:
    "entry" (single matrix unit), "up" (norm ascent on C), or "down"
    (ascent on the entrywise reciprocal, which exhibits contraction).
    """

    deviation: float
    ratio: float
    witness: np.ndarray
    mode: str
    p: float
    p_gap: float = field(init=False)
    near_two: bool = field(init=False)

    def __post_init__(self):
        # distance of the exponent from 2; deviations shrink as this does,
        # so tiny values here are context, not failure
        self.p_gap = abs(self.p - 2.0)
        self.near_two = 1.9 < self.p < 2.1


def isometry_witness_search(C, p, opts: AscentOptions | None = None) -> DeviationWitness:
    """Best norm-deviation witness found by three complementary hunts.

    Matrix units expose entry-modulus defects exactly (the ratio on e_ij is
    |c_ij|).  Norm ascent on C exposes expansion.  When no entry vanishes
    and the entrywise reciprocal D is finite, ascent on D exposes
    contraction: if ||D o B||_p = v ||B||_p with v > 1 then B' = D o B
    satisfies ||C o B'||_p / ||B'||_p = 1/v.  Of the candidates, in that
    order ("entry", "up", "down"), the first largest deviation is returned.
    """
    pi = as_index(p)
    M = as_matrix(C)
    n = require_square(M, "isometry_witness_search", nonempty=True)
    opts = opts or AscentOptions(restarts=8)

    mods = np.abs(M)
    i, j = np.unravel_index(np.argmax(np.abs(mods - 1.0)), mods.shape)
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    found = [(abs(mods[i, j] - 1.0), mods[i, j], E, "entry")]

    # a climb that deviates the other way scores at most 0, never more than
    # the entry's |.| >= 0: it is listed but never returned
    up = norm_ascent(M, pi, opts)
    found.append((up.value - 1.0, up.value, up.witness, "up"))

    with np.errstate(all="ignore"):
        D = 1.0 / M  # not finite when an entry vanishes or is subnormal
    if np.all(np.isfinite(D)):
        # D equals M exactly when every entry is +-1: then the climb is
        # the one above
        down = up if np.array_equal(D, M) else norm_ascent(D, pi, opts)
        if down.value > 1.0:
            Bp = D * down.witness
            denom = schatten_norm(Bp, pi)
            if denom > 0:
                ratio = schatten_norm(M * Bp, pi) / denom
                found.append((1.0 - ratio, ratio, Bp, "down"))

    # max keeps the first of equal deviations
    dev, ratio, B, mode = max(found, key=lambda c: c[0])
    return DeviationWitness(float(dev), float(ratio), B, mode, pi.value)


@dataclass(eq=False)
class DftTerm:
    """One rank-one unimodular character term of the planar DFT expansion:
    coefficient * outer(a, b) with a_i = omega^{i k}, b_j = omega^{j l}."""

    k: int
    l: int
    coefficient: complex
    a: np.ndarray
    b: np.ndarray


def dft_decompose(C) -> list:
    """Exact expansion of a symbol into n^2 rank-one unimodular terms.

    Uses the planar discrete character basis: with omega = exp(2 pi i / n),

        coeff[k, l] = (1/n^2) * sum_ij c_ij omega^{-ik} omega^{-jl},

    and C = sum_kl coeff[k, l] * outer(omega^{.k}, omega^{.l}) exactly.  The
    characters are computed directly from powers of omega, so tests can
    cross-check against an FFT oracle.  The sums are one product
    conj(F) S conj(F)^T / n^2 over the character matrix F, F[k, i] =
    omega^{ik}, taken on S = C scaled by a power of two to moduli below 1,
    which is exact for normal entries and keeps them from overflowing.
    """
    M = as_matrix(C)
    n = require_square(M, "dft_decompose", nonempty=True)
    e = modulus_exponent(M)
    omega = np.exp(2j * np.pi / n)
    idx = np.arange(n)
    cols = [omega ** (idx * k) for k in range(n)]
    Fc = np.array(cols).conj()
    coeffs = Fc @ ldexp(M, -e) @ Fc.T / n ** 2
    with np.errstate(over="ignore"):  # a coefficient can exceed the range
        coeffs = ldexp(coeffs, e)
    if not np.all(np.isfinite(coeffs)):
        raise InputError("a coefficient of this symbol exceeds the float range")
    return [DftTerm(k, l, complex(coeffs[k, l]), cols[k].copy(), cols[l].copy())
            for k in range(n) for l in range(n)]


def sign_average_entry(form: Union[np.ndarray, Callable], a, b,
                       i0: int, j0: int) -> complex:
    """Recover the (i0, j0) coefficient of a bilinear form from four calls.

    For S(a, b) = sum_ij c_ij a_i b_j, flipping the sign of one coordinate
    on each side isolates a single coefficient:

        c_i0j0 = [S(a,b) - S(a',b) - S(a,b') + S(a',b')] / (4 a_i0 b_j0),

    where a' flips coordinate i0 and b' flips j0.  Works for any probe
    vectors with nonzero flipped coordinates, sign vectors included.
    """
    require_range(i0, 0, None, "sign_average_entry", "i0")
    require_range(j0, 0, None, "sign_average_entry", "j0")
    av = np.asarray(a, dtype=complex).ravel().copy()
    bv = np.asarray(b, dtype=complex).ravel().copy()
    if not (0 <= i0 < av.size) or not (0 <= j0 < bv.size):
        raise InputError(f"entry ({i0}, {j0}) outside probe range "
                         f"({av.size}, {bv.size})")
    if av[i0] == 0 or bv[j0] == 0:
        raise InputError("probe vectors must be nonzero at the target entry")
    if callable(form):
        S = form
    else:
        M = as_matrix(form)

        def S(x, y, _M=M):
            return complex(x @ _M @ y)

    a2 = av.copy()
    a2[i0] = -a2[i0]
    b2 = bv.copy()
    b2[j0] = -b2[j0]
    num = S(av, bv) - S(a2, bv) - S(av, b2) + S(a2, b2)
    return complex(num / (4.0 * av[i0] * bv[j0]))
