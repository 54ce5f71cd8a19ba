"""The predual decomposition norm and its algebra operations.

A matrix C is measured by how cheaply it factors through Schur products:

    ||C||  =  inf sum_k ||A_k||_p * ||B_k||_{p*}   over  C = sum_k A_k * B_k,

the predual norm of the multiplier space on S_p under the bilinear trace
pairing.  At p = 2 the value is exactly the entrywise l_1 norm.  At other
exponents it is bounded above by the cheapest of three closed-form
decompositions, completed by one more term that carries what its terms
miss of C in floating point, so it is ranked by the price it is returned
at.  The closed forms are priced from one set of singular values first,
and only the cheapest is built.  A decomposition is a pair of factor
stacks, priced once, when it is built; it keeps no term of cost zero and
refuses a non-finite factor.  The entrywise expansion of cost sum |c_ij|
takes one term per cyclic diagonal, at most n terms.  From below,
herz_p(C) >= |<D, C>| / ||D||_{M_p}.

One low-rank mixing solve (Burer-Monteiro) for gamma2*(C) =
max Re tr(X^T C Y) over X, Y with unit rows serves every p: D = X Y^T has
||D||_{M_p} <= gamma2(D) at most the product g of the largest row norms of
X and Y, so |<D, C>| / g is a lower bound.  The set of such D holds every
rank-one unimodular symbol a b^T, the isometric multipliers, and at rank
one the solve is the phase ascent over them.  At p = 1 and oo the
multipliers are the gamma2-bounded symbols, so the norm is gamma2*(C) and
the solve closes the bracket from both sides: its row norms lam of C Y and
mu of C^T X give weights u = sqrt(lam), v = sqrt(mu) and the decomposition
(u v^T) * (D_u^-1 C D_v^-1), of price |u| |v| ||D_u^-1 C D_v^-1||_op,
which meets sum(mu) at the optimum.  That price is ranked with the closed
forms'.

The other lower witness is the phase symbol (conj(phase(c_ij)) on the
support of C, 0 off it; <D, C> = sum |c_ij|).  ||D||_{M_2} = 1, and
D = D I = I D give gamma2(D) <= sqrt(k), k the smaller of the largest row
and column support, so by Riesz-Thorin ||D||_{M_p} <= k^(theta/2),
theta = |1 - 2/p|, at every p with no solve.  The solve runs at every
p != 2 from one fixed start and stops as soon as it cannot beat the phase
symbol: its value is at most ||D_u^-1 C D_v^-1||_op |u| |v| for any
positive weights u, v (the upper side of gamma2*'s scaling identity), so
it prices three closed-form weightings before its first sweep and its own
weights at every check, and ends where a price falls below the symbol's
value.

Every bracket also contains herz_cb, the predual norm of M_{p,cb}: every
lower witness is cb-normed (Riesz-Thorin bounds cb norms too, gamma2
being the cb norm at p = 1 and oo), and a decomposition costs at least
herz_p >= herz_cb.

The algebra layer manipulates decompositions directly -- truncation,
tensoring, Schur products -- keeping the representation exact term by term,
so every cost inequality is witnessed constructively, each by one
expression over the factor stacks.  A tensor product runs no SVD:
||A (x) C||_p = ||A||_p ||C||_p prices each Kronecker term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .ascent import unit_phases
from .core import (
    MAX_COUNT,
    InputError,
    NormBracket,
    SchattenIndex,
    as_index,
    as_matrix,
    as_stack,
    certified_bracket,
    exact_bracket,
    ldexp,
    lp_norms,
    modulus_exponent,
    require_range,
    require_square,
    schatten_norms,
    trace_pairing,
    truncate,
)
from .gamma2 import MAX_SWEEPS, WIDTH_FLOOR

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
    """Options that ``herz_norm`` accepts and does not read.

    The mixing solve starts from one fixed draw and has no setting; the
    fields stay so that callers passing them, such as the acceptance tests,
    keep working.  The options check themselves when built, by
    ``core.require_range``: ``restarts`` runs from 0 to ``core.MAX_COUNT``
    and ``seed`` from 0.
    """

    max_terms: int = 8
    iters: int = 60
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        require_range(self.restarts, 0, MAX_COUNT, "HerzOptions", "restarts")
        require_range(self.seed, 0, None, "HerzOptions", "seed")


@dataclass
class HerzNormResult:
    bracket: NormBracket
    best_decomposition: HerzDecomposition
    dual_functional: dict = field(default_factory=dict)


def pair_with_multiplier(A, C) -> complex:
    """Duality pairing of a multiplier symbol with a predual element:
    sum_ij a_ij c_ij."""
    return trace_pairing(A, C)


def _row_norms(Z: np.ndarray) -> np.ndarray:
    F = Z.view(float)
    return np.sqrt(np.einsum("ij,ij->i", F, F))


@np.errstate(all="ignore")  # a zero or NaN weight is caught at a check
def _mixing(S: np.ndarray, s1: float, floor: float) -> tuple[int, Optional[tuple]]:
    """The low-rank mixing solve for gamma2*(S), the predual norm at p = 1
    and oo: max Re tr(X^T S Y) over X, Y with unit rows (Burer-Monteiro).

    It runs on R, S restricted to its nonzero rows and columns (m x k), at
    rank r = isqrt(m + k) + 1, above the rank where such factorizations of
    smooth SDPs have no spurious second-order points (Boumal-Voroninski-
    Bandeira 2016), from one fixed Gaussian Y drawn from seed 0.  Each sweep
    sets X = conj(R Y / lam), lam the row norms of R Y, then
    Y = conj(R^T X / mu), mu the row norms of R^T X; each half-step is the
    exact maximizer for its fixed partner, so the value sum(mu) never
    falls, and at rank 1 it is the phase ascent.

    For positive weights u, v, R = (u v^T) * (D_u^-1 R D_v^-1), whose price
    |u| |v| ||D_u^-1 R D_v^-1||_op bounds gamma2*(S) from above.  Before
    its first sweep the solve prices three closed-form weightings: uniform
    ones (s1 = ||S||_op), the square roots of the row and column l_1 sums,
    and one damped step from those towards the moduli of the top singular
    vectors, floored at 1e-8.  Then it prices u = sqrt(lam), v = sqrt(mu),
    which meets sum(mu) at the optimum, by one values-only SVD after 5
    sweeps and after every max(5, sweeps // 8) more, and stops once the
    price is within gamma2.WIDTH_FLOOR of sum(mu), or after
    gamma2.MAX_SWEEPS.  Once a price * (1 + 1e-12) falls below ``floor``
    (the value the caller holds already, in units of S) the solve cannot
    beat it and stops.

    Returns (sweeps, found).  found is (P, Q, F, G, price): X and Y, and
    F = u v^T and G = D_u^-1 S D_v^-1, on all of S's rows and columns (zero
    off R), so F * G = S up to rounding; or None where a weight is not
    positive or G is not finite at a check, or where the floor stops it.
    """
    rows, cols = np.any(S, axis=1), np.any(S, axis=0)
    R = np.ascontiguousarray(S[np.ix_(rows, cols)])
    Rh = np.ascontiguousarray(R.conj().T)
    m, k = R.shape

    def weighted():  # cheapest first
        yield s1 * np.sqrt(R.size)
        u, v = np.sqrt(np.sum(np.abs(R), axis=1)), np.sqrt(np.sum(np.abs(R), axis=0))
        x, t, yh = np.linalg.svd(R / u[:, None] / v)
        yield t[0] * np.linalg.norm(u) * np.linalg.norm(v)
        u = np.sqrt(u * np.maximum(np.abs(x[:, 0]), 1e-8))
        v = np.sqrt(v * np.maximum(np.abs(yh[0]), 1e-8))
        yield np.linalg.svd(R / u[:, None] / v, compute_uv=False)[0] \
            * np.linalg.norm(u) * np.linalg.norm(v)

    if any(price * (1 + 1e-12) < floor for price in weighted()):
        return 0, None
    r = math.isqrt(m + k) + 1
    Y = np.random.default_rng(0).standard_normal((k, 2 * r)).view(complex)
    Y /= _row_norms(Y)[:, None]
    sweeps = 0
    while True:
        # Xc = conj(X), so conj(R^T X) = R^* Xc needs no conjugation per sweep
        for _ in range(min(max(5, sweeps // 8), MAX_SWEEPS - sweeps)):
            Xc = R @ Y
            lam = _row_norms(Xc)
            Xc /= lam[:, None]
            Y = Rh @ Xc
            mu = _row_norms(Y)
            Y /= mu[:, None]
            sweeps += 1
        u, v = np.sqrt(lam), np.sqrt(mu)
        W = R / u[:, None] / v
        if not (np.all(u > 0) and np.all(v > 0) and np.all(np.isfinite(W))):
            return sweeps, None
        price = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.svd(W, compute_uv=False)[0]
        if price * (1 + 1e-12) < floor:
            return sweeps, None
        if price - np.sum(mu) <= WIDTH_FLOOR * price or sweeps == MAX_SWEEPS:
            break
    n = S.shape[0]
    P, Q = np.zeros((n, r), dtype=complex), np.zeros((n, r), dtype=complex)
    P[rows], Q[cols] = Xc.conj(), Y
    F, G = np.zeros_like(S), np.zeros_like(S)
    F[np.ix_(rows, cols)], G[np.ix_(rows, cols)] = np.outer(u, v), W
    return sweeps, (P, Q, F, G, float(price))


def _entrywise_stacks(S: np.ndarray, e: int,
                      p: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    """The factor stacks of the entrywise expansion of C = S * 2**e, one
    term per nonzero cyclic diagonal; S has its largest modulus in [1/2, 1).

    Term k carries the entries (i, i + k mod n): A_k = phase(c) |c|^(1/p)
    and B_k = |c|^(1/p*) there, zero elsewhere (1/p = 0 at p = oo).  A
    matrix with at most one nonzero per row and per column has its entry
    moduli as singular values, so by Hoelder equality each term costs the
    l_1 norm of its diagonal and the expansion costs sum |c_ij|.  The powers
    are taken of the moduli of S, and the factor 2**e is put on the factor
    with the larger power of them, A_k where 1/p >= 1/2 and B_k otherwise,
    so the split keeps its precision at every scale short of subnormal
    entries, and at p = oo the unimodular A_k is not scaled past the float
    range.
    """
    n = S.shape[0]
    inv_p = 0.0 if p.is_inf else 1.0 / p.value
    nz = S != 0
    r = np.abs(S)
    eA = e if inv_p >= 0.5 else 0
    A = ldexp(np.where(nz, unit_phases(S) * r ** inv_p, 0.0), eA)
    B = ldexp(np.where(nz, r ** (1.0 - inv_p), 0.0).astype(complex), e - eA)
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
    sum |c_ij| in at most n terms -- and, at p = 1 and oo, the mixing
    solve's (u v^T) * (D_u^-1 C D_v^-1), factors swapped at p = oo
    (``_mixing``).  They are priced first, the closed forms from the
    singular values of C, and only those within 1e-9 of the cheapest are
    built (all of them when max |c_ij| is subnormal).  Each one built gets
    one more term, (C - R, J) for the matrix R its terms represent, unless
    that miss is zero (as for C * J and J * C), so it is ranked by the
    price it is returned at: the upper bound is the cost of the returned
    decomposition.  Ties go to fewer terms, then to that order.
    Lower bound: the better of two dual functionals -- the phase symbol D
    of norm at most k^(theta/2) (Riesz-Thorin between ||D||_{M_2} = 1 and
    gamma2(D) <= sqrt(k); module docstring), giving sum |c_ij| / k^(theta/2)
    at every p, and the mixing solve's X Y^T, whose "factored-symbol"
    certificate holds P = X, Q = Y and g, the product of their largest row
    norms, which bounds gamma2(P Q^T) and so its norm at every p: the value
    is |<P Q^T, C>| / g.  A solve that meets a zero or non-finite weight or
    factor leaves no candidate and no lower side.  The solve runs at every
    p != 2 and stops without a candidate, before its first sweep or at a
    check, once a price of gamma2*(C) falls below the symbol's value
    (``_mixing``), which happens at interior p only; the symbol certifies
    the lower bound then.  Either way the lower certificate's ``value`` is
    the bracket's lower bound, clamped to the upper one.
    Each side is computed on copies scaled by powers of two to entries near
    1 and rounded back once, so a subnormal symbol gets the bracket of its
    scaled copy, rounded.  p = 2 (theta = 0) is closed-form: the entrywise
    l_1 norm, zero width, with the completed entrywise expansion as
    decomposition.
    ``iterations`` counts the mixing solve's sweeps, 0 where it stops
    before the first.  ``opts`` is not read (``HerzOptions``): the result
    depends on C and p alone.  A bound beyond the float range is an
    InputError.
    """
    pi = as_index(p)
    M = as_matrix(C)
    n = require_square(M, "herz_norm")

    if n == 0 or not np.any(M):
        return HerzNormResult(exact_bracket(0.0, "closed-form", detail="zero matrix"),
                              HerzDecomposition(pi, (), n), {"kind": "zero"})

    e = modulus_exponent(M)
    S = ldexp(M, -e)
    l1 = np.sum(np.abs(S))
    # the phase symbol, of norm at most k^(theta/2), theta = 1 at p = oo;
    # its value sum |c_ij| / k^(theta/2) is summed at the scale of S
    nz = M != 0
    D = np.where(nz, unit_phases(M).conj(), 0.0)
    k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
    theta = abs(1.0 - 2.0 / pi.value)
    norm_upper = float(k) ** (theta / 2)
    value = float(np.ldexp(l1 / norm_upper, e))
    symbol = {"kind": "multiplier-symbol", "symbol": D, "norm_upper": norm_upper, "value": value}
    if pi.value == 2.0:
        _check_range(value)
        bracket = exact_bracket(value, "closed-form", detail="entrywise l_1 at p = 2")
        entrywise = HerzDecomposition._make(pi, *_entrywise_stacks(S, e, pi), n, target=M)
        return HerzNormResult(bracket, entrywise, symbol)

    # C o J, J o C, the expansion and, at p = 1 and oo, the mixing solve's
    # decomposition cost n ||S||_p, n ||S||_p*, sum |s_ij| and the solve's
    # price in units of 2**e.  While max |c_ij| is a normal float,
    # completing a candidate moves its price by rounding only, so one priced
    # above the cheapest by more than 1e-9 cannot win and is not built;
    # below that the factors round away from C, and all are built
    s = np.linalg.svd(S, compute_uv=False)
    ones = np.ones((1, n, n), dtype=complex)
    # (stacks, price); the expansion's stacks (None) are built only if needed
    candidates = [((M[None], ones), n * float(lp_norms(s, pi))),
                  ((ones, M[None]), n * float(lp_norms(s, pi.conjugate()))), (None, l1)]
    # the solve's value is at most gamma2*(S), so it stops where a price of
    # gamma2*(S) falls below the phase symbol's value (in units of S; 0
    # where it overflows), which it takes as its floor.  At p = 1 and oo the
    # symbol's value is at most gamma2*(S), so the floor never stops the
    # solve, and its decomposition is a candidate
    floor = l1 / norm_upper if value < np.inf else 0.0
    steps, found = _mixing(S, s[0], floor)
    if found is not None and theta == 1:
        F, G, mix_price = found[2:]
        # 2**e goes where the term completing the candidate puts it, on the
        # left factor when e > 0 and on the right one when e < 0, so the
        # candidate scales exactly with C; a factor past the float range is
        # not built
        A, B = (F, G) if pi.value == 1.0 else (G, F)
        A, B = ldexp(A, max(e, 0)), ldexp(B, min(e, 0))
        candidates.append(((A[None], B[None]), mix_price if np.all(np.isfinite(A)) else np.inf))
    near = (1 + 1e-9) * min(price for _, price in candidates) if e > -1022 else np.inf
    stacks = [st or _entrywise_stacks(S, e, pi) for st, price in candidates if price <= near]

    # the terms multiply back to C only up to rounding, so each candidate
    # gets one more term that carries what it misses and is ranked by the
    # cost it is returned at; ties go to fewer terms, then to the order above
    best = min((HerzDecomposition._make(pi, As, Bs, n, target=M) for As, Bs in stacks),
               key=lambda d: (d.cost, len(d.terms)))
    upper = best.cost
    _check_range(upper)

    # the lower side is found on S = C * 2**-e and scaled back once: the
    # solve's X Y^T pairs with S, divided by g, the product of the largest
    # row norms of X and Y, which bounds gamma2(X Y^T)
    lower, dual = value, symbol
    if found is not None:
        P, Q = found[:2]
        g = float(np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1)))
        lower = float(np.ldexp(abs(trace_pairing(P @ Q.T, S)) / g, e))
        dual = {"kind": "factored-symbol", "P": P, "Q": Q, "g": g}
    if lower < value < np.inf:  # the value can overflow below a finite upper
        lower, dual = value, symbol
    _check_range(lower, upper)
    # the certificate names the clamped value, which can sit an ulp below
    # the dual's own
    lower = min(lower, upper)
    dual = {**dual, "value": lower}
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


@dataclass
class SubmultiplicativityReport:
    product: str
    p: float
    lower_product: float
    upper_left: float
    upper_right: float
    slack: float
    passed: bool


def submultiplicativity_check(C, D, p, product: str = "schur") -> SubmultiplicativityReport:
    """Bracket-level check that the predual norm is submultiplicative.

    product = "schur" uses the entrywise product, "matrix" the ordinary one.
    Verifies lower(C o D) <= (1 + 1e-6) * upper(C) * upper(D), which
    certified brackets can never violate when the algebra inequality holds;
    the slack is relative, so the check means the same at every scale.
    """
    if product not in ("schur", "matrix"):
        raise InputError(f"product must be 'schur' or 'matrix', got {product!r}")
    pi = as_index(p)
    MC, MD = as_matrix(C), as_matrix(D)
    if product == "matrix" and MC.shape[1] != MD.shape[0]:
        raise InputError(f"matrix product shape mismatch: {MC.shape} x {MD.shape}")
    prod = MC * MD if product == "schur" else MC @ MD
    rc = herz_norm(MC, pi)
    rd = herz_norm(MD, pi)
    rp = herz_norm(prod, pi)
    bound = rc.bracket.upper * rd.bracket.upper
    slack = bound + 1e-6 * bound - rp.bracket.lower
    return SubmultiplicativityReport(
        product=product, p=pi.value,
        lower_product=rp.bracket.lower,
        upper_left=rc.bracket.upper, upper_right=rd.bracket.upper,
        slack=slack, passed=slack >= 0.0)
