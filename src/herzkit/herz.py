"""The predual decomposition norm and its algebra operations.

A matrix C is measured by how cheaply it factors through Schur products:

    ||C||  =  inf sum_k ||A_k||_p * ||B_k||_{p*}   over  C = sum_k A_k * B_k,

the predual norm of the multiplier space on S_p under the bilinear trace
pairing.  At p = 2 the value is exactly the entrywise l_1 norm.  At other
exponents it is bounded above by the cheapest closed-form or caller-given
decomposition, each priced once, and from below by dual functionals of
certified multiplier norm: rank-one unimodular symbols (isometric multipliers,
norm exactly 1 at every p; every ascent start alternates in one stack) always,
and factorization-norm-certified symbols additionally at p = 1.

The algebra layer manipulates decompositions directly -- truncation,
tensoring, Schur products -- keeping the representation exact term by term,
so every cost inequality is witnessed constructively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .ascent import unit_phases
from .core import (
    InputError,
    NormBracket,
    SchattenIndex,
    as_index,
    as_matrix,
    certified_bracket,
    exact_bracket,
    schatten_norms,
    trace_pairing,
)
from .gamma2 import gamma2
from .structure import base_dim, diag_slice

__all__ = [
    "HerzDecomposition",
    "HerzOptions",
    "HerzNormResult",
    "represent",
    "herz_norm",
    "pair_with_multiplier",
    "herz_truncate",
    "herz_tensor",
    "herz_schur_product",
    "matrix_product",
    "contract_product",
    "contract_diagonal",
    "SubmultiplicativityReport",
    "submultiplicativity_check",
]


@dataclass(frozen=True)
class HerzDecomposition:
    """A finite family of Schur-product pairs representing one matrix.

    ``terms`` is a tuple of (A_k, B_k); the represented matrix is
    sum_k A_k * B_k and the cost is sum_k ||A_k||_p ||B_k||_{p*}.  The empty
    decomposition (allowed; ``dim`` keeps the size) represents zero at cost
    zero.  Instances are immutable; algebra operations build new ones.
    """

    p: SchattenIndex
    terms: tuple
    dim: int

    @staticmethod
    def build(p, terms: Iterable, dim: Optional[int] = None) -> "HerzDecomposition":
        pi = as_index(p)
        mats = []
        for A, B in terms:
            MA, MB = as_matrix(A), as_matrix(B)
            if MA.shape != MB.shape:
                raise InputError(
                    f"decomposition pair shapes differ: {MA.shape} vs {MB.shape}")
            if MA.shape[0] != MA.shape[1]:
                raise InputError(f"decomposition terms must be square, got {MA.shape}")
            mats.append((MA, MB))
        dims = {MA.shape[0] for MA, _ in mats}
        if len(dims) > 1:
            raise InputError(f"mixed dimensions in decomposition: {sorted(dims)}")
        if dims:
            d = dims.pop()
            if dim is not None and dim != d:
                raise InputError(f"declared dim {dim} does not match terms ({d})")
            dim = d
        elif dim is None:
            raise InputError("empty decomposition needs an explicit dim")
        return HerzDecomposition(pi, tuple(mats), int(dim))

    def _term_costs(self) -> list:
        """||A_k||_p ||B_k||_{p*} for each term, from one batched SVD per side."""
        if not self.terms:
            return []
        As, Bs = zip(*self.terms)
        return (schatten_norms(np.stack(As), self.p)
                * schatten_norms(np.stack(Bs), self.p.conjugate())).tolist()

    @property
    def cost(self) -> float:
        return float(sum(self._term_costs()))

    def represented(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for A, B in self.terms:
            out += A * B
        return out

    def pruned(self) -> "HerzDecomposition":
        """Drop terms whose cost contribution is zero."""
        keep = tuple(t for t, c in zip(self.terms, self._term_costs()) if c > 0.0)
        return HerzDecomposition(self.p, keep, self.dim)


def represent(d: HerzDecomposition) -> np.ndarray:
    """The matrix sum_k A_k * B_k carried by a decomposition."""
    return d.represented()


@dataclass(frozen=True)
class HerzOptions:
    """Budget for the lower-bound hunt, and extra upper-bound candidates.

    ``restarts`` and ``seed`` set the random starts of the phase ascent;
    ``seed_decompositions`` compete with the closed-form upper bounds.
    ``max_terms`` and ``iters`` are no longer read (they budgeted a removed
    decomposition refinement); they stay so that callers passing them,
    such as the acceptance tests, keep working.
    """

    max_terms: int = 8
    iters: int = 60
    restarts: int = 8
    seed: int = 0
    seed_decompositions: tuple = ()


@dataclass
class HerzNormResult:
    bracket: NormBracket
    best_decomposition: HerzDecomposition
    dual_functional: dict = field(default_factory=dict)


def pair_with_multiplier(A, C) -> complex:
    """Duality pairing of a multiplier symbol with a predual element:
    sum_ij a_ij c_ij."""
    return trace_pairing(A, C)


def _phase_ascent(C: np.ndarray, restarts: int, seed: int,
                  iters: int = 60) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Maximize |a^T C b| over unimodular vectors a, b by alternation.

    Each half-step is the exact unimodular maximizer for fixed partner, so
    the value is nondecreasing.  All starts alternate as one stack, a as
    (K, 1, n) and b as (K, n, 1), and a start leaves the stack at the
    alternation where it would stop alone.  Returns (value, a, b,
    alternations summed over starts); ties go to the earliest start.
    """
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    top = np.linalg.svd(C)[0][:, 0]  # C is nonzero, so it has a top singular vector
    starts = [np.ones(n), unit_phases(top).conj()]
    starts += [np.exp(2j * np.pi * rng.random(n)) for _ in range(max(0, restarts))]
    a = np.array(starts, dtype=complex)[:, None, :]
    b = np.ones((len(starts), n, 1), dtype=complex)
    val = np.abs(a @ C @ b).ravel()
    live = np.arange(len(starts))
    steps = 0
    for _ in range(iters):
        if live.size == 0:
            break
        steps += live.size
        b[live] = unit_phases(a[live] @ C).conj().transpose(0, 2, 1)
        a[live] = unit_phases(C @ b[live]).conj().transpose(0, 2, 1)
        new = np.abs(a[live] @ C @ b[live]).ravel()
        cur = val[live]
        stop = new <= cur * (1 + 1e-12)
        val[live] = np.where(stop & (cur > new), cur, new)  # on a stop, keep the larger
        live = live[~stop]
    best = int(np.argmax(val))
    return float(val[best]), a[best, 0], b[best, :, 0], steps


def _entrywise_terms(C: np.ndarray) -> list:
    n = C.shape[0]
    terms = []
    for i in range(n):
        for j in range(n):
            if C[i, j] != 0:
                A = np.zeros((n, n), dtype=complex)
                B = np.zeros((n, n), dtype=complex)
                A[i, j] = C[i, j]
                B[i, j] = 1.0
                terms.append((A, B))
    return terms


def _check_range(*bounds: float) -> None:
    if not all(np.isfinite(b) for b in bounds):
        raise InputError("a bound on the predual norm of this matrix exceeds the float range")


@np.errstate(over="ignore", invalid="ignore")  # overflow is left to _check_range
def herz_norm(C, p, opts: HerzOptions | None = None) -> HerzNormResult:
    """Certified bracket for the predual decomposition norm of C at exponent p.

    Upper bound: the cheapest of three closed-form decompositions -- C * J
    and J * C against the all-ones matrix J, costing n ||C||_p and
    n ||C||_{p*}, and the entrywise expansion, costing sum |c_ij| -- and the
    caller's seed decompositions, each priced once.  Ties go to fewer terms,
    then to that order.  Lower bound: best dual functional found -- rank-one
    unimodular phases at every p, all ascent starts alternating as one stack,
    and factorization-normalized symbols additionally at p = 1.
    p = 2 is closed-form: the entrywise l_1 norm, zero width.
    ``iterations`` counts the phase-ascent alternations, summed over starts.
    A bound beyond the float range is an InputError.
    """
    pi = as_index(p)
    M = as_matrix(C)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"herz_norm expects a square matrix, got {M.shape}")
    n = M.shape[0]
    opts = opts or HerzOptions()

    if n == 0 or not np.any(M):
        return HerzNormResult(exact_bracket(0.0, "closed-form", detail="zero matrix"),
                              HerzDecomposition(pi, (), n), {"kind": "zero"})

    l1 = float(np.sum(np.abs(M)))
    if pi.value == 2.0:
        _check_range(l1)
        best = HerzDecomposition.build(pi, _entrywise_terms(M), dim=n)
        D = unit_phases(M).conj()
        D[M == 0] = 0.0
        bracket = exact_bracket(l1, "closed-form", detail="entrywise l_1 at p = 2")
        return HerzNormResult(bracket, best,
                              {"kind": "multiplier-symbol", "symbol": D,
                               "norm": 1.0})

    ones = np.ones((n, n), dtype=complex)
    candidates: list[HerzDecomposition] = [
        HerzDecomposition.build(pi, [(M, ones)], dim=n),
        HerzDecomposition.build(pi, [(ones, M)], dim=n),
        HerzDecomposition.build(pi, _entrywise_terms(M), dim=n),
    ]
    for d0 in opts.seed_decompositions:
        if not isinstance(d0, HerzDecomposition):
            d0 = HerzDecomposition.build(pi, d0, dim=n)
        if d0.p != pi or d0.dim != n:
            raise InputError("seed decomposition exponent/dimension mismatch")
        dev = np.max(np.abs(d0.represented() - M), initial=0.0)
        if dev > 1e-9 * (1 + np.max(np.abs(M))):
            raise InputError(f"seed decomposition does not represent C (dev {dev:.2e})")
        candidates.append(d0)

    costs = [d._term_costs() for d in candidates]  # each candidate is priced once
    # a cost whose norms overflow to NaN is unbounded, not prunable to zero
    cheapest, _, win = min((np.nan_to_num(float(sum(c)), nan=np.inf, posinf=np.inf),
                            len(c), i) for i, c in enumerate(costs))
    _check_range(cheapest)
    kept = [k for k, c in enumerate(costs[win]) if c > 0.0]  # drop zero-cost terms
    best = HerzDecomposition(pi, tuple(candidates[win].terms[k] for k in kept), n)
    upper = float(sum(costs[win][k] for k in kept))  # adding 0.0 never moves a sum

    val, a, b, steps = _phase_ascent(M, opts.restarts, opts.seed)
    lower = val
    dual: dict = {"kind": "unimodular-pair", "a": a, "b": b, "value": val}
    if pi.value == 1.0:
        D = unit_phases(M).conj()
        g2b, _ = gamma2(D)
        if g2b.upper > 0:
            ratio = abs(trace_pairing(D, M)) / g2b.upper
            if lower < ratio < np.inf:  # the pairing can overflow below a finite upper
                lower = ratio
                dual = {"kind": "multiplier-symbol", "symbol": D,
                        "norm_upper": g2b.upper, "value": ratio}
    _check_range(lower, upper)
    bracket = certified_bracket(
        lower, upper, dict(dual),
        {"kind": "decomposition", "terms": len(best.terms), "cost": upper},
        iterations=steps)
    return HerzNormResult(bracket, best, dual)


def herz_truncate(d: HerzDecomposition, J: Iterable[int]) -> HerzDecomposition:
    """Truncate a decomposition coordinatewise: T_J hits each left factor.

    Since T_J(A) * B = T_J(A * B), the result represents the truncation of
    the represented matrix, and each term's cost can only shrink.
    """
    from .core import truncate

    idx = sorted(set(int(j) for j in J))
    new = [(truncate(A, idx), B) for A, B in d.terms]
    return HerzDecomposition.build(d.p, new, dim=d.dim).pruned()


def herz_tensor(x: HerzDecomposition, y: HerzDecomposition) -> HerzDecomposition:
    """Termwise Kronecker product; represents the Kronecker product of the
    represented matrices at multiplicative cost."""
    if x.p != y.p:
        raise InputError(f"tensor requires matching exponents: {x.p!r} vs {y.p!r}")
    terms = [(np.kron(A, C), np.kron(B, D))
             for A, B in x.terms for C, D in y.terms]
    return HerzDecomposition.build(x.p, terms, dim=x.dim * y.dim)


def herz_schur_product(x: HerzDecomposition, y: HerzDecomposition) -> HerzDecomposition:
    """Termwise Schur product decomposition of (rep x) * (rep y).

    The pair grid ((A_k * C_l), (B_k * D_l)) represents the Schur product
    exactly, and Schur submultiplicativity of Schatten norms bounds its cost
    by the product of the two costs.
    """
    if x.p != y.p:
        raise InputError(f"Schur product requires matching exponents: {x.p!r} vs {y.p!r}")
    if x.dim != y.dim:
        raise InputError(f"dimension mismatch: {x.dim} vs {y.dim}")
    terms = [(A * Cm, B * Dm) for A, B in x.terms for Cm, Dm in y.terms]
    return HerzDecomposition.build(x.p, terms, dim=x.dim).pruned()


def matrix_product(C, D) -> np.ndarray:
    """Ordinary matrix product of two represented elements."""
    MC, MD = as_matrix(C), as_matrix(D)
    if MC.shape[1] != MD.shape[0]:
        raise InputError(f"matrix product shape mismatch: {MC.shape} x {MD.shape}")
    return MC @ MD


def contract_product(E, F) -> np.ndarray:
    """Bilinear contraction along the product pattern of the doubled space:

        G[i, j] = sum_r E[(i,r),(r,j)] * F[(i,r),(r,j)].

    On Kronecker inputs it factors: contract_product(A (x) B, A' (x) B') =
    (A * A') (B * B'); against the all-ones doubled matrix it recovers the
    matrix product of the two tensor legs.
    """
    ME, MF = as_matrix(E), as_matrix(F)
    if ME.shape != MF.shape:
        raise InputError(f"shape mismatch: {ME.shape} vs {MF.shape}")
    n = base_dim(ME)
    TE = ME.reshape(n, n, n, n)
    TF = MF.reshape(n, n, n, n)
    # entry ((i,r),(r,j)) of X is X[i, r, r, j] in tensor layout
    prod = TE * TF
    G = np.zeros((n, n), dtype=complex)
    for r in range(n):
        G += prod[:, r, r, :]
    return G


def contract_diagonal(E, F) -> np.ndarray:
    """Bilinear contraction along the diagonal pair grid:

        G[i, j] = E[(i,i),(j,j)] * F[(i,i),(j,j)].

    On Kronecker inputs: contract_diagonal(A (x) C, B (x) D) =
    (A * C) * (B * D) entrywise.
    """
    ME, MF = as_matrix(E), as_matrix(F)
    if ME.shape != MF.shape:
        raise InputError(f"shape mismatch: {ME.shape} vs {MF.shape}")
    return diag_slice(ME) * diag_slice(MF)


@dataclass
class SubmultiplicativityReport:
    product: str
    p: float
    lower_product: float
    upper_left: float
    upper_right: float
    slack: float
    passed: bool


def submultiplicativity_check(C, D, p, product: str = "schur",
                              opts: HerzOptions | None = None,
                              tol: float = 1e-6) -> SubmultiplicativityReport:
    """Bracket-level check that the predual norm is submultiplicative.

    product = "schur" uses the entrywise product, "matrix" the ordinary one.
    Verifies lower(C o D) <= upper(C) * upper(D) + tol, which certified
    brackets can never violate when the algebra inequality holds.
    """
    if product not in ("schur", "matrix"):
        raise InputError(f"product must be 'schur' or 'matrix', got {product!r}")
    pi = as_index(p)
    MC, MD = as_matrix(C), as_matrix(D)
    opts = opts or HerzOptions()
    prod = MC * MD if product == "schur" else matrix_product(MC, MD)
    rc = herz_norm(MC, pi, opts)
    rd = herz_norm(MD, pi, opts)
    rp = herz_norm(prod, pi, opts)
    bound = rc.bracket.upper * rd.bracket.upper
    slack = bound + tol - rp.bracket.lower
    return SubmultiplicativityReport(
        product=product, p=pi.value,
        lower_product=rp.bracket.lower,
        upper_left=rc.bracket.upper, upper_right=rd.bracket.upper,
        slack=slack, passed=slack >= 0.0)
