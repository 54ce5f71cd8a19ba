"""The predual decomposition norm and its algebra operations.

A matrix C is measured by how cheaply it factors through Schur products:

    ||C||  =  inf sum_k ||A_k||_p * ||B_k||_{p*}   over  C = sum_k A_k * B_k,

the predual norm of the multiplier space on S_p under the bilinear trace
pairing.  At p = 2 the value is exactly the entrywise l_1 norm.  At other
exponents the infimum is approached from above by a budgeted decomposition
search and from below by dual functionals of certified multiplier norm:
rank-one unimodular symbols (isometric multipliers, norm exactly 1 at every
p) always, and factorization-norm-certified symbols additionally at p = 1.

The algebra layer manipulates decompositions directly -- truncation,
tensoring, Schur products -- keeping the representation exact term by term,
so every cost inequality is witnessed constructively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .ascent import norming_functional, unit_phases
from .core import (
    InputError,
    NormBracket,
    SchattenIndex,
    as_index,
    as_matrix,
    schatten_norms,
    trace_pairing,
)
from .gamma2 import gamma2
from .structure import base_dim

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
    """Budget for the decomposition search and the dual functional hunt."""

    max_terms: int = 8
    iters: int = 60
    restarts: int = 8
    seed: int = 0
    tol: float = 1e-9
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
                  iters: int = 60) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize |a^T C b| over unimodular vectors a, b by alternation.

    Each half-step is the exact unimodular maximizer for fixed partner, so
    the value is nondecreasing.  Returns (value, a, b).
    """
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    starts = [np.ones(n, dtype=complex)]
    U, s, Vh = np.linalg.svd(C)
    if s.size and s[0] > 0:
        starts.append(unit_phases(U[:, 0].reshape(1, -1)).ravel().conj())
    for _ in range(max(0, restarts)):
        starts.append(np.exp(2j * np.pi * rng.random(n)))
    best = (-1.0, np.ones(n, dtype=complex), np.ones(n, dtype=complex))
    for a in starts:
        a = a.copy()
        b = np.ones(n, dtype=complex)
        val = abs(a @ C @ b)
        for _ in range(iters):
            w = a @ C            # row vector: sum_i a_i c_ij
            b = unit_phases(w.reshape(1, -1)).ravel().conj()
            v = C @ b
            a = unit_phases(v.reshape(1, -1)).ravel().conj()
            new = abs(a @ C @ b)
            if new <= val * (1 + 1e-12) + 1e-15:
                val = max(val, new)
                break
            val = new
        if val > best[0]:
            best = (val, a, b)
    return best


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


def _dft_seed(C: np.ndarray, p: SchattenIndex, budget: int) -> Optional[HerzDecomposition]:
    """Top character terms of the 2-D DFT expansion, remainder folded into
    one all-ones pair."""
    from .isometry import dft_decompose  # local import: isometry sits above

    n = C.shape[0]
    terms_all = dft_decompose(C)
    terms_all.sort(key=lambda t: -abs(t.coefficient))
    keep = terms_all[: max(1, budget - 1)]
    used = np.zeros_like(C)
    pairs = []
    ones = np.ones(n, dtype=complex)
    for t in keep:
        if t.coefficient == 0:
            continue
        S = t.coefficient * np.outer(t.a, t.b)
        used = used + S
        pairs.append((t.coefficient * np.outer(t.a, ones), np.outer(ones, t.b)))
    R = C - used
    if np.max(np.abs(R)) > 1e-14 * (1 + np.max(np.abs(C))):
        pairs.append((R, np.ones((n, n), dtype=complex)))
    if not pairs:
        return None
    return HerzDecomposition.build(p, pairs, dim=n)


def _project_exact(M: np.ndarray, V: np.ndarray, C: np.ndarray) -> None:
    """Least-norm correction of the stack M so sum_k M[k] * V[k] = C.

    Entrywise: across the term index the constraint is a single linear
    equation; the correction moves along the conjugate coefficient vector.
    Mutates M, of shape (K, n, n) like the partners V, in place.  Entries
    where every partner vanishes cannot be repaired; the caller must
    guarantee a nonvanishing partner there.
    """
    denom = np.sum(np.abs(V) ** 2, axis=0)       # (n, n)
    defect = C - np.sum(M * V, axis=0)
    ok = denom > 0
    scale = np.where(ok, defect / np.where(ok, denom, 1.0), 0.0)
    M += V.conj() * scale[None, :, :]


def _refine(d: HerzDecomposition, iters: int) -> HerzDecomposition:
    """Projected-subgradient descent of the cost at fixed exact representation.

    Alternates sides: freeze the B_k and step each A_k against the Schatten
    norm subgradient, re-project onto the exact-representation set, keep the
    step only if the cost dropped; then swap roles.  Cheap and monotone.
    The terms sit on two (K, n, n) stacks, so each cost and each set of
    subgradients takes one batched SVD per side.
    """
    if not d.terms or iters <= 0:
        return d
    C = d.represented()
    p, q = d.p, d.p.conjugate()
    As = np.stack([A for A, _ in d.terms])
    Bs = np.stack([B for _, B in d.terms])
    norms = [schatten_norms(As, p), schatten_norms(Bs, q)]

    def cost(nA, nB):  # summed term by term, left to right
        return sum((nA * nB).tolist())

    cur = cost(*norms)
    steps = (0.25, 0.05)
    for sweep in range(iters):
        improved = False
        for side in (0, 1):
            prim, part = (As, Bs) if side == 0 else (Bs, As)
            pp = p if side == 0 else q
            w = norms[1 - side]
            grads = w[:, None, None] * norming_functional(prim, pp).conj()
            gnorm = np.array([max(1.0, np.linalg.norm(G)) for G in grads])
            scale = max(cur, 1e-30)
            for eta in steps:
                trial = prim - eta * scale * grads / gnorm[:, None, None]
                _project_exact(trial, part, C)
                nt = schatten_norms(trial, pp)
                c_new = cost(nt, w)
                if c_new < cur - 1e-12 * (1 + cur):
                    prim[...] = trial
                    norms[side] = nt
                    cur = c_new
                    improved = True
                    break
        if not improved:
            break
    out = HerzDecomposition.build(p, list(zip(As, Bs)), dim=d.dim)
    # refinement must never corrupt the representation
    if np.max(np.abs(out.represented() - C), initial=0.0) > 1e-10 * (1 + np.max(np.abs(C), initial=0.0)):
        return d
    return out


def herz_norm(C, p, opts: HerzOptions | None = None) -> HerzNormResult:
    """Certified bracket for the predual decomposition norm of C at exponent p.

    Upper bound: the cheapest decomposition among structured seeds (one-term
    against the all-ones symbol, the entrywise expansion, truncated DFT
    character expansion, caller seeds) after budgeted refinement.  The
    optimizer never reports worse than a seed it was handed.
    Lower bound: best dual functional found -- rank-one unimodular phases at
    every p, factorization-normalized symbols additionally at p = 1.
    p = 2 is closed-form: the entrywise l_1 norm, zero width.
    """
    pi = as_index(p)
    M = as_matrix(C)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"herz_norm expects a square matrix, got {M.shape}")
    n = M.shape[0]
    opts = opts or HerzOptions()

    if n == 0 or not np.any(M):
        empty = HerzDecomposition(pi, (), n)
        zero = {"kind": "closed-form", "detail": "zero matrix"}
        return HerzNormResult(NormBracket(0.0, 0.0, dict(zero), dict(zero), 0, True),
                              empty, {"kind": "zero"})

    l1 = float(np.sum(np.abs(M)))
    if pi.value == 2.0:
        best = HerzDecomposition.build(pi, _entrywise_terms(M), dim=n)
        D = unit_phases(M).conj()
        D[M == 0] = 0.0
        cert = {"kind": "closed-form", "detail": "entrywise l_1 at p = 2"}
        bracket = NormBracket(l1, l1, dict(cert), dict(cert), 0, True)
        return HerzNormResult(bracket, best,
                              {"kind": "multiplier-symbol", "symbol": D,
                               "norm": 1.0})

    ones = np.ones((n, n), dtype=complex)
    candidates: list[HerzDecomposition] = [
        HerzDecomposition.build(pi, [(M, ones)], dim=n),
        HerzDecomposition.build(pi, [(ones, M)], dim=n),
        HerzDecomposition.build(pi, _entrywise_terms(M), dim=n),
    ]
    dft = _dft_seed(M, pi, opts.max_terms)
    if dft is not None:
        candidates.append(dft)
    for d0 in opts.seed_decompositions:
        if not isinstance(d0, HerzDecomposition):
            d0 = HerzDecomposition.build(pi, d0, dim=n)
        if d0.p != pi or d0.dim != n:
            raise InputError("seed decomposition exponent/dimension mismatch")
        dev = np.max(np.abs(d0.represented() - M), initial=0.0)
        if dev > 1e-9 * (1 + np.max(np.abs(M))):
            raise InputError(f"seed decomposition does not represent C (dev {dev:.2e})")
        candidates.append(d0)

    refined = []
    for d0 in candidates:
        refined.append(d0)
        if 0 < len(d0.terms) <= opts.max_terms:
            refined.append(_refine(d0, opts.iters))
    scored = sorted(((d.cost, len(d.terms), i) for i, d in enumerate(refined)))
    best_cost, _, best_idx = scored[0]
    best = refined[best_idx].pruned()
    upper = best.cost  # recompute after pruning; pruning never raises cost

    val, a, b = _phase_ascent(M, opts.restarts, opts.seed)
    lower = val
    dual: dict = {"kind": "unimodular-pair", "a": a, "b": b, "value": val}
    if pi.value == 1.0:
        D = unit_phases(M).conj()
        g2b, _ = gamma2(D)
        if g2b.upper > 0:
            ratio = abs(trace_pairing(D, M)) / g2b.upper
            if ratio > lower:
                lower = ratio
                dual = {"kind": "multiplier-symbol", "symbol": D,
                        "norm_upper": g2b.upper, "value": ratio}
    lower = min(lower, upper)  # a witnessed ratio can round above it

    bracket = NormBracket(
        lower, upper,
        dict(dual),
        {"kind": "decomposition", "terms": len(best.terms), "cost": upper},
        iterations=opts.iters, converged=(upper - lower) <= 1e-6 * (1 + upper))
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
    n = base_dim(ME)
    pos = np.arange(n) * (n + 1)
    return (ME[np.ix_(pos, pos)] * MF[np.ix_(pos, pos)]).copy()


@dataclass
class SubmultiplicativityReport:
    product: str
    p: float
    lower_product: float
    upper_left: float
    upper_right: float
    slack: float
    passed: bool

    def to_obj(self) -> dict:
        return {
            "product": self.product, "p": self.p,
            "lower_product": self.lower_product,
            "upper_left": self.upper_left, "upper_right": self.upper_right,
            "slack": self.slack, "passed": self.passed,
        }


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
