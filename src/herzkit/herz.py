"""The predual decomposition norm and its algebra operations.

A matrix C is measured by how cheaply it factors through Schur products:

    ||C||  =  inf sum_k ||A_k||_p * ||B_k||_{p*}   over  C = sum_k A_k * B_k,

the predual norm of the multiplier space on S_p under the bilinear trace
pairing.  At p = 2 the value is exactly the entrywise l_1 norm.  At other
exponents it is bounded above by the cheapest closed-form or caller-given
decomposition, each completed by one more term that carries what its terms
miss of C in floating point, so it is ranked by the price it is returned
at.  A decomposition is a pair of factor stacks, priced once, when it is
built; it keeps no term of cost zero and refuses a non-finite factor.  The
entrywise expansion of cost sum |c_ij| takes one term per cyclic diagonal,
at most n terms.  From below come dual functionals of certified multiplier
norm: rank-one unimodular symbols (isometric multipliers, norm exactly 1
at every p; the ascent starts still climbing alternate in one stack, and
the returned pair attains the value reported) always, and factorization-
norm-certified symbols additionally at p = 1 and p = oo (herz_p = herz_{p*}).

The algebra layer manipulates decompositions directly -- truncation,
tensoring, Schur products -- keeping the representation exact term by term,
so every cost inequality is witnessed constructively, each by one
expression over the factor stacks.  A tensor product runs no SVD: ||A (x) C||_p = ||A||_p ||C||_p prices each Kronecker term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .ascent import unit_phases
from .core import (
    MAX_COUNT,
    InputError,
    NormBracket,
    ResourceError,
    SchattenIndex,
    as_index,
    as_matrix,
    as_stack,
    certified_bracket,
    exact_bracket,
    ldexp,
    modulus_exponent,
    require_square,
    schatten_norms,
    trace_pairing,
    truncate,
)
from .gamma2 import gamma2
from .structure import _as_tensor, diag_slice

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

    ``terms`` is a read-only tuple view of the pairs (A_k, B_k); the
    represented matrix is sum_k A_k * B_k and the cost is
    sum_k ||A_k||_p ||B_k||_{p*}.  The empty decomposition (allowed; ``dim``
    keeps the size) represents zero at cost zero.  The factors are held as
    two read-only (K, n, n) stacks and priced once, when they are built, so
    ``cost`` and ``represented`` run no SVD: one batched SVD per side, or
    the price ``herz_tensor`` passes for its Kronecker terms, the products
    of its factors' prices.  Building refuses a non-finite factor with
    ``build``'s InputError and drops the terms of cost 0.  Instances are
    immutable; algebra operations build new ones through ``_make``.
    """

    p: SchattenIndex
    terms: tuple
    dim: int

    def __post_init__(self):
        terms = tuple(self.terms)
        if terms:  # stacked copies that no caller holds
            As, Bs = (np.array(X, dtype=complex) for X in zip(*terms))
        else:
            As = Bs = np.zeros((0, self.dim, self.dim), dtype=complex)
        self._settle(As, Bs)

    @classmethod
    def _make(cls, p: SchattenIndex, As: np.ndarray, Bs: np.ndarray, dim: int,
              target: np.ndarray | None = None,
              price: tuple | None = None) -> "HerzDecomposition":
        """The decomposition of the factor stacks As, Bs of shape (K, dim, dim).

        With a ``target``, one more term (target - R, J) carries what the
        terms miss of it, R being what they represent; with a ``price`` =
        (c, e, R), term k costs c[k] * 2**e and the terms represent R * 2**e.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "p", p)
        object.__setattr__(d, "dim", dim)
        d._settle(As, Bs, target, price)
        return d

    def _settle(self, As, Bs, target=None, price=None) -> None:
        As, Bs = as_stack(As), as_stack(Bs)
        if target is not None:
            As, Bs = _complete(As, Bs, target)
        costs, e, R = price or _term_costs(As, Bs, self.p)
        keep = costs != 0.0
        As, Bs = As[keep], Bs[keep]  # copies that no caller holds
        As.flags.writeable = Bs.flags.writeable = False
        # term k costs _costs[k] * 2**_e, and the terms represent _R * 2**_e
        for name, value in (("_As", As), ("_Bs", Bs), ("terms", tuple(zip(As, Bs))),
                            ("_costs", costs[keep].tolist()), ("_e", e), ("_R", R)):
            object.__setattr__(self, name, value)

    @staticmethod
    def build(p, terms: Iterable, dim: Optional[int] = None) -> "HerzDecomposition":
        mats = [(as_matrix(A), as_matrix(B)) for A, B in terms]
        for k, (MA, MB) in enumerate(mats):
            if MA.shape != MB.shape:
                raise InputError(
                    f"decomposition pair shapes differ: {MA.shape} vs {MB.shape}")
            d = require_square(MA, "a decomposition term")
            dim = d if dim is None else dim
            if d != dim:
                raise InputError(f"decomposition term {k} is {d} x {d}, expected dim {dim}")
        if dim is None:
            raise InputError("empty decomposition needs an explicit dim")
        return HerzDecomposition(as_index(p), tuple(mats), int(dim))

    @property
    def cost(self) -> float:
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            return float(np.ldexp(sum(self._costs), self._e))

    def represented(self) -> np.ndarray:
        return ldexp(self._R, self._e)


def _scaled(As: np.ndarray, Bs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(As * 2**-eA, Bs * 2**-eB, eA + eB): each stack scaled by the power of
    two that puts its largest modulus in [1/2, 1)."""
    eA, eB = modulus_exponent(As), modulus_exponent(Bs)
    return ldexp(As, -eA), ldexp(Bs, -eB), eA + eB


def _term_costs(As: np.ndarray, Bs: np.ndarray,
                p: SchattenIndex) -> tuple[np.ndarray, int, np.ndarray]:
    """(c, e, R): term k of the stacks costs ||A_k||_p ||B_k||_{p*} =
    c[k] * 2**e, and the terms of nonzero cost represent R * 2**e.

    Each side is priced at its scale by one batched SVD, so subnormal
    entries and norms beyond the float range are priced to full precision.
    R is summed from the scaled factors, so it keeps what a subnormal factor
    entry lost to rounding.
    """
    As, Bs, e = _scaled(As, Bs)
    costs = schatten_norms(As, p) * schatten_norms(Bs, p.conjugate())
    return costs, e, np.sum((As * Bs)[costs != 0.0], axis=0)


def _complete(As: np.ndarray, Bs: np.ndarray,
              target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacks with one more term (target - R, J) when the terms
    represent R != target.  The miss is taken at the scale of the factors,
    exact by Sterbenz's lemma, and 2**e is put where it loses no bits."""
    Sa, Sb, e = _scaled(As, Bs)
    miss, k = ldexp(target, -e) - np.sum(Sa * Sb, axis=0), min(e, 0)
    if not np.any(miss):
        return As, Bs
    J = ldexp(np.ones_like(miss), k)
    return np.concatenate([As, ldexp(miss, e - k)[None]]), np.concatenate([Bs, J[None]])


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
    the value is nondecreasing.  The starts still climbing alternate as one
    stack, a as (L, 1, n) and b as (L, n, 1), and a start leaves the stack
    at the alternation where it would stop alone; its value and witness are
    written back then, or when the budget ends.  The product a C of each
    value step is the next b-step's input.  A start that stops on a fall
    keeps its previous value and the (a, b) that attains it.  Returns
    (value, a, b, alternations summed over starts); ties go to the earliest
    start.
    """
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    top = np.linalg.svd(C)[0][:, 0]  # C is nonzero, so it has a top singular vector
    starts = [np.ones(n), unit_phases(top).conj()]
    starts += [np.exp(2j * np.pi * rng.random(n)) for _ in range(restarts)]
    K = len(starts)
    a = np.array(starts, dtype=complex).reshape(K, 1, n)
    b = np.ones((K, n, 1), dtype=complex)
    aC = a @ C
    cur = np.abs(aC @ b).ravel()
    val = np.empty(K)
    wa, wb = np.empty((K, n), dtype=complex), np.empty((K, n), dtype=complex)
    idx = np.arange(K)
    steps = 0
    for _ in range(iters):
        if idx.size == 0:
            break
        steps += idx.size
        b1 = unit_phases(aC).conj().reshape(-1, n, 1)
        a1 = unit_phases(C @ b1).conj().reshape(-1, 1, n)
        aC1 = a1 @ C
        new = np.abs(aC1 @ b1).ravel()
        stop = new <= cur * (1 + 1e-12)
        if stop.any():
            fell = (cur > new)[stop]  # keep the previous value and witness
            out = idx[stop]
            val[out] = np.where(fell, cur[stop], new[stop])
            wa[out] = np.where(fell[:, None], a[stop, 0], a1[stop, 0])
            wb[out] = np.where(fell[:, None], b[stop, :, 0], b1[stop, :, 0])
            go = ~stop
            idx, a, b, aC, cur = idx[go], a1[go], b1[go], aC1[go], new[go]
        else:
            a, b, aC, cur = a1, b1, aC1, new
    val[idx], wa[idx], wb[idx] = cur, a[:, 0], b[:, :, 0]
    best = int(np.argmax(val))
    return float(val[best]), wa[best], wb[best], steps


def _entrywise_stacks(S: np.ndarray, e: int,
                      p: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    """The factor stacks of the entrywise expansion of C = S * 2**e, one
    term per nonzero cyclic diagonal; S has its largest modulus in [1/2, 1).

    Term k carries the entries (i, i + k mod n): A_k = phase(c) |c|^(1/p)
    and B_k = |c|^(1/p*) there, zero elsewhere (1/p = 0 at p = oo).  A
    matrix with at most one nonzero per row and per column has its entry
    moduli as singular values, so by Hoelder equality each term costs the
    l_1 norm of its diagonal and the expansion costs sum |c_ij|.  The powers
    are taken of the moduli of S, and the factor 2**e is put on A_k alone,
    so the split keeps its precision at every scale short of subnormal
    entries.
    """
    n = S.shape[0]
    inv_p = 0.0 if p.is_inf else 1.0 / p.value
    nz = S != 0
    r = np.abs(S)
    A = ldexp(np.where(nz, unit_phases(S) * r ** inv_p, 0.0), e)
    B = np.where(nz, r ** (1.0 - inv_p), 0.0).astype(complex)
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    j = (i + k) % n  # row k of (i, j) is cyclic diagonal k
    As = np.zeros((n, n, n), dtype=complex)
    Bs = np.zeros((n, n, n), dtype=complex)
    As[k, i, j] = A[i, j]
    Bs[k, i, j] = B[i, j]
    live = np.any(nz[i, j], axis=1)
    return As[live], Bs[live]


def _check_range(*bounds: float) -> None:
    if not all(np.isfinite(b) for b in bounds):
        raise InputError("a bound on the predual norm of this matrix exceeds the float range")


@np.errstate(over="ignore", invalid="ignore")  # overflow is left to _check_range
def herz_norm(C, p, opts: HerzOptions | None = None) -> HerzNormResult:
    """Certified bracket for the predual decomposition norm of C at exponent p.

    Upper bound: the cheapest of three closed-form decompositions -- C * J
    and J * C against the all-ones matrix J, costing n ||C||_p and
    n ||C||_{p*}, and the entrywise expansion by cyclic diagonals, costing
    sum |c_ij| in at most n terms -- and the caller's seed decompositions,
    all priced when built.  Each candidate gets one more term, (C - R, J)
    for the matrix R its terms represent, unless that miss is zero (as for
    C * J and J * C), so it is ranked by the price it is returned at: the
    upper bound is the cost of the returned decomposition.  Ties go to
    fewer terms, then to that order.
    Lower bound: best dual functional found -- rank-one unimodular phases
    at every p, all ascent starts alternating as one stack, and
    factorization-normalized symbols additionally at p = 1 and p = oo.
    Each side is computed on copies scaled by powers of two to entries near
    1 and rounded back once, so a subnormal symbol gets the bracket of its
    scaled copy, rounded.  p = 2 is closed-form: the entrywise l_1 norm,
    zero width, with the entrywise expansion as decomposition.
    ``iterations`` counts the phase-ascent alternations, summed over starts.
    A bound beyond the float range is an InputError.  Fewer than 0 restarts
    is an InputError and more than ``core.MAX_COUNT`` a ResourceError, each
    raised before any work.
    """
    opts = opts or HerzOptions()
    if opts.restarts < 0:
        raise InputError(f"herz_norm takes at least 0 restarts, got {opts.restarts}")
    if opts.restarts > MAX_COUNT:
        raise ResourceError(f"herz_norm takes at most {MAX_COUNT} restarts, "
                            f"got {opts.restarts}")
    pi = as_index(p)
    M = as_matrix(C)
    n = require_square(M, "herz_norm")

    if n == 0 or not np.any(M):
        return HerzNormResult(exact_bracket(0.0, "closed-form", detail="zero matrix"),
                              HerzDecomposition(pi, (), n), {"kind": "zero"})

    e = modulus_exponent(M)
    S = ldexp(M, -e)
    entrywise = _entrywise_stacks(S, e, pi)
    if pi.value == 2.0:
        l1 = float(np.ldexp(np.sum(np.abs(S)), e))  # summed at the scale of S
        _check_range(l1)
        D = unit_phases(M).conj()
        D[M == 0] = 0.0
        bracket = exact_bracket(l1, "closed-form", detail="entrywise l_1 at p = 2")
        return HerzNormResult(bracket, HerzDecomposition._make(pi, *entrywise, n),
                              {"kind": "multiplier-symbol", "symbol": D,
                               "norm": 1.0})

    ones = np.ones((1, n, n), dtype=complex)
    stacks = [(M[None], ones), (ones, M[None]), entrywise]
    for d0 in opts.seed_decompositions:
        if not isinstance(d0, HerzDecomposition):
            d0 = HerzDecomposition.build(pi, d0, dim=n)
        if d0.p != pi or d0.dim != n:
            raise InputError("seed decomposition exponent/dimension mismatch")
        dev = np.max(np.abs(d0.represented() - M), initial=0.0)
        if not dev <= 1e-9 * (1 + np.max(np.abs(M))):  # a NaN dev is refused too
            raise InputError(f"seed decomposition does not represent C (dev {dev:.2e})")
        stacks.append((d0._As, d0._Bs))

    # the terms multiply back to C only up to rounding (a seed to 1e-9), so
    # each candidate gets one more term that carries what it misses and is
    # ranked by the cost it is returned at; ties go to fewer terms, then to
    # the order above
    best = min((HerzDecomposition._make(pi, As, Bs, n, target=M) for As, Bs in stacks),
               key=lambda d: (d.cost, len(d.terms)))
    upper = best.cost
    _check_range(upper)

    # the lower side is found on S = C * 2**-e and scaled back once
    val, a, b, steps = _phase_ascent(S, opts.restarts, opts.seed)
    lower = float(np.ldexp(val, e))
    dual: dict = {"kind": "unimodular-pair", "a": a, "b": b, "value": lower}
    if pi.value == 1.0 or pi.is_inf:  # herz_p = herz_{p*}, and ||D||_{M_oo} = gamma2(D)
        D = unit_phases(M).conj()
        g2b, _ = gamma2(D)
        if g2b.upper > 0:
            ratio = float(np.ldexp(abs(trace_pairing(D, S)) / g2b.upper, e))
            if lower < ratio < np.inf:  # the ratio can overflow below a finite upper
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
    return HerzDecomposition._make(d.p, truncate(d._As, J), d._Bs, d.dim)


def herz_tensor(x: HerzDecomposition, y: HerzDecomposition) -> HerzDecomposition:
    """Termwise Kronecker product; represents the Kronecker product of the
    represented matrices at multiplicative cost.

    It runs no SVD: ||A (x) C||_p = ||A||_p ||C||_p, so term (k, l) costs the
    product of the costs of term k of x and term l of y, and the terms
    represent the Kronecker product of what x and y represent.
    """
    if x.p != y.p:
        raise InputError(f"tensor requires matching exponents: {x.p!r} vs {y.p!r}")
    K, N = len(x.terms) * len(y.terms), x.dim * y.dim
    with np.errstate(over="ignore", invalid="ignore"):  # _settle refuses an overflow
        # term (k, l) is (A_k (x) C_l, B_k (x) D_l), formed as np.kron forms it
        As, Bs = ((F[:, None, :, None, :, None] * G[None, :, None, :, None, :]).reshape(K, N, N)
                  for F, G in ((x._As, y._As), (x._Bs, y._Bs)))
    price = np.outer(x._costs, y._costs).ravel(), x._e + y._e, np.kron(x._R, y._R)
    return HerzDecomposition._make(x.p, As, Bs, N, price=price)


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
    K, n = len(x.terms) * len(y.terms), x.dim
    return HerzDecomposition._make(
        x.p, (x._As[:, None] * y._As[None]).reshape(K, n, n),
        (x._Bs[:, None] * y._Bs[None]).reshape(K, n, n), n)


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
    (TE, _), (TF, _) = _as_tensor(E), _as_tensor(F)
    if TE.shape != TF.shape:
        raise InputError(f"shape mismatch: {np.shape(E)} vs {np.shape(F)}")
    # entry ((i,r),(r,j)) of X is X[i, r, r, j] in tensor layout
    return np.trace(TE * TF, axis1=-3, axis2=-2)


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
    Verifies lower(C o D) <= (1 + tol) * upper(C) * upper(D), which
    certified brackets can never violate when the algebra inequality holds;
    tol is relative, so the check means the same at every scale.
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
    slack = bound + tol * bound - rp.bracket.lower
    return SubmultiplicativityReport(
        product=product, p=pi.value,
        lower_product=rp.bracket.lower,
        upper_left=rc.bracket.upper, upper_right=rd.bracket.upper,
        slack=slack, passed=slack >= 0.0)
