"""Classifying symbols whose Schur action preserves Schatten norms.

For exponents other than 2 a symbol acts isometrically exactly when it is
rank one with unimodular entries, C = a b^T with |a_i| = |b_j| = 1; the
action is then B |-> diag(a) B diag(b), a two-sided unitary rotation.  At
p = 2 the rank condition disappears and unimodular entries suffice.  This
module decides membership numerically, extracts the (a, b) factors,
verifies the forward direction on random inputs, and hunts for concrete
norm-deviation witnesses when the answer is no.

The DFT layer expands an arbitrary symbol into n^2 rank-one unimodular
character terms, an exact finite decomposition used both as a span fact and
as a seed for the predual decomposition search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .ascent import AscentOptions, norm_ascent, unit_phases
from .core import InputError, as_index, as_matrix, random_matrix, schatten_norm

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
    p: Optional[float]
    modulus_deviation: float
    rank_ratio: float
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    factor_deviation: float = 0.0

    def to_obj(self) -> dict:
        out = {
            "is_isometric": self.is_isometric,
            "reason": self.reason,
            "p": self.p,
            "modulus_deviation": self.modulus_deviation,
            "rank_ratio": self.rank_ratio,
            "factor_deviation": self.factor_deviation,
        }
        if self.a is not None:
            out["a"] = [[z.real, z.imag] for z in self.a]
            out["b"] = [[z.real, z.imag] for z in self.b]
        return out


def classify_isometric(C, p, tol: float = ISOMETRY_TOL) -> IsometryVerdict:
    """Decide whether the Schur action of C on S_p preserves every norm.

    Criterion at p != 2: every entry unimodular and rank one (second
    singular value at most tol relative to the first).  At p = 2 only the
    unimodular-entry condition applies.  On success the factors are read off
    the first row and column: b_j = c_0j, a_i = c_i0 / c_00.
    """
    pi = as_index(p)
    M = as_matrix(C)
    if M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InputError(f"expected a nonempty square symbol, got {M.shape}")
    mods = np.abs(M)
    min_mod = float(mods.min())
    mod_dev = float(np.max(np.abs(mods - 1.0)))
    s = np.linalg.svd(M, compute_uv=False)
    rank_ratio = float(s[1] / s[0]) if s.size > 1 and s[0] > 0 else 0.0

    if min_mod <= tol:
        return IsometryVerdict(False, "zero_entry", pi.value, mod_dev, rank_ratio)

    relaxed = pi.value == 2.0
    unimodular = mod_dev <= tol
    rank_one = rank_ratio <= tol

    if relaxed:
        if not unimodular:
            return IsometryVerdict(False, "entries_not_unimodular", pi.value,
                                   mod_dev, rank_ratio)
        verdict = IsometryVerdict(True, "unimodular_entries", pi.value,
                                  mod_dev, rank_ratio)
    else:
        if not (unimodular and rank_one):
            return IsometryVerdict(False, "not_rank_one_unimodular", pi.value,
                                   mod_dev, rank_ratio)
        verdict = IsometryVerdict(True, "rank_one_unimodular", pi.value,
                                  mod_dev, rank_ratio)

    if unimodular and rank_one:
        # anchor at the corner; fall back to the largest entry if the
        # corner happens to sit below the tolerance
        i0, j0 = 0, 0
        if abs(M[0, 0]) <= tol:
            i0, j0 = map(int, np.unravel_index(np.argmax(mods), mods.shape))
        a = unit_phases(M[:, j0] / M[i0, j0])
        b = unit_phases(M[i0, :])
        verdict.a = a
        verdict.b = b
        verdict.factor_deviation = float(np.max(np.abs(M - np.outer(a, b))))
    return verdict


@dataclass
class ForwardCheckReport:
    p: Optional[float]
    trials: int
    max_ratio_deviation: float
    tolerance: float
    passed: bool

    def to_obj(self) -> dict:
        return {
            "p": self.p, "trials": self.trials,
            "max_ratio_deviation": self.max_ratio_deviation,
            "tolerance": self.tolerance, "passed": self.passed,
        }


def isometry_forward_check(a, b, p, trials: int = 25, seed: int = 0,
                           tol: float = 1e-12) -> ForwardCheckReport:
    """Verify that C = outer(a, b) with unimodular factors preserves the
    p-norm of random test matrices.

    The action equals diag(a) B diag(b) with unitary diagonal factors, so
    the ratio should match 1 to rounding.
    """
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
    n = av.size
    worst = 0.0
    for t in range(trials):
        B = random_matrix(n, ensemble="gaussian", seed=seed + 7 * t)
        base = schatten_norm(B, pi)
        if base == 0:
            continue
        ratio = schatten_norm(C * B, pi) / base
        worst = max(worst, abs(ratio - 1.0))
    return ForwardCheckReport(pi.value, trials, worst, tol, worst <= tol)


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
    p: Optional[float]

    @property
    def p_gap(self) -> float:
        """Distance of the exponent from 2; deviations shrink as this does,
        so tiny values here are context, not failure."""
        return abs(self.p - 2.0) if self.p is not None else float("inf")

    @property
    def near_two(self) -> bool:
        return self.p is not None and 1.9 < self.p < 2.1

    def to_obj(self) -> dict:
        return {
            "deviation": self.deviation, "ratio": self.ratio,
            "mode": self.mode, "p": self.p,
            "p_gap": self.p_gap,
            "near_two": self.near_two,
            "witness": [[[z.real, z.imag] for z in row] for row in self.witness],
        }


def isometry_witness_search(C, p, opts: AscentOptions | None = None) -> DeviationWitness:
    """Best norm-deviation witness found by three complementary hunts.

    Matrix units expose entry-modulus defects exactly (the ratio on e_ij is
    |c_ij|).  Norm ascent on C exposes expansion.  When no entry vanishes
    and the entrywise reciprocal D is finite, ascent on D exposes
    contraction: if ||D o B||_p = v ||B||_p with v > 1 then B' = D o B
    satisfies ||C o B'||_p / ||B'||_p = 1/v.
    """
    pi = as_index(p)
    M = as_matrix(C)
    if M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InputError(f"expected a nonempty square symbol, got {M.shape}")
    n = M.shape[0]
    opts = opts or AscentOptions(restarts=8)

    best: Optional[DeviationWitness] = None

    def consider(dev, ratio, B, mode):
        nonlocal best
        if best is None or dev > best.deviation:
            best = DeviationWitness(float(dev), float(ratio), B, mode, pi.value)

    mods = np.abs(M)
    i, j = np.unravel_index(np.argmax(np.abs(mods - 1.0)), mods.shape)
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    consider(abs(mods[i, j] - 1.0), mods[i, j], E, "entry")

    up = norm_ascent(M, pi, opts)
    if up.value > 1.0:
        consider(up.value - 1.0, up.value, up.witness, "up")

    if mods.min() > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            D = 1.0 / M  # not finite when an entry is subnormal
        if np.all(np.isfinite(D)):
            down = norm_ascent(D, pi, opts)
            if down.value > 1.0:
                Bp = D * down.witness
                denom = schatten_norm(Bp, pi)
                if denom > 0:
                    ratio = schatten_norm(M * Bp, pi) / denom
                    if ratio < 1.0:
                        consider(1.0 - ratio, ratio, Bp, "down")

    assert best is not None
    return best


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
    cross-check against an FFT oracle.
    """
    M = as_matrix(C)
    if M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InputError(f"expected a nonempty square symbol, got {M.shape}")
    n = M.shape[0]
    omega = np.exp(2j * np.pi / n)
    idx = np.arange(n)
    cols = [omega ** (idx * k) for k in range(n)]
    terms = []
    for k in range(n):
        ak = cols[k]
        for l in range(n):
            bl = cols[l]
            coeff = complex(np.sum(M * np.outer(ak.conj(), bl.conj())) / n ** 2)
            terms.append(DftTerm(k, l, coeff, ak.copy(), bl.copy()))
    return terms


def sign_average_entry(form: Union[np.ndarray, Callable], a, b,
                       i0: int, j0: int) -> complex:
    """Recover the (i0, j0) coefficient of a bilinear form from four calls.

    For S(a, b) = sum_ij c_ij a_i b_j, flipping the sign of one coordinate
    on each side isolates a single coefficient:

        c_i0j0 = [S(a,b) - S(a',b) - S(a,b') + S(a',b')] / (4 a_i0 b_j0),

    where a' flips coordinate i0 and b' flips j0.  Works for any probe
    vectors with nonzero flipped coordinates, sign vectors included.
    """
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
