"""The predual decomposition norm and its algebra operations.

A matrix C is measured by how cheaply it factors through Schur products:

    ||C||  =  inf sum_k ||A_k||_p * ||B_k||_{p*}   over  C = sum_k A_k * B_k,

the predual norm of the multiplier space on S_p under the bilinear trace
pairing.  Swapping A_k and B_k maps a decomposition at p to one at p* of
the same cost, so herz_p = herz_p*, and herz computes at q = min(p, p*)
only, pricing the right factors at the conjugate the caller named.  At
p = 2 the value is exactly the entrywise l_1 norm.  At other exponents it
is bounded above by the cheapest of a few closed-form decompositions,
completed by one more term that carries what its terms miss of C in
floating point, so it is ranked by the price it is returned at.  The
closed forms are priced from singular values first, and only the cheapest
is built.  A decomposition is a pair of factor stacks, priced once, when
it is built; it keeps no term of cost zero and refuses a non-finite
factor.  The entrywise expansion of cost sum |c_ij| takes one term per
cyclic diagonal, at most n terms.

Every candidate but the expansion is a weighted split: for weights u, v,
positive on C's nonzero rows and columns and zero off them,
C = (u v^T) * (D_u^-1 C D_v^-1).  The
rank-one factor costs |u| |v| at every exponent, so the split costs
|u| |v| ||D_u^-1 C D_v^-1||_{q*}.  Uniform weights give J * C; the l_1
weighting, u and v the square roots of C's row and column l_1 sums, is
priced at interior q; at q = 1 the mixing solve's weights are.

From below, herz_p(C) >= |<D, C>| / ||D||_{M_p}.  For D = P Q^T, g, the
product of the largest row norms of P and Q, bounds gamma2(D) = ||D||_{M_1}
= ||D||_{M_oo}, and m = max |d_ij| = ||D||_{M_2} <= g, so by Riesz-Thorin
||D||_{M_p} <= g^theta m^(1 - theta), theta = |1 - 2/p|
(``multipliers.interpolation_bound``, unweighted): a factored symbol
certifies |<D, C>| / (g^theta m^(1 - theta)), which is |<D, C>| / g at
p = 1 and oo.  Every lower witness is a factored symbol.  One low-rank
mixing solve (Burer-Monteiro) for gamma2*(C) = max Re tr(X^T C Y) over X,
Y with unit rows serves every p: D = X Y^T.  The set of such D holds every
rank-one unimodular symbol a b^T, the isometric multipliers, and at rank
one the solve is the phase ascent over them.  At q = 1 the multipliers
are the gamma2-bounded symbols, so the norm is gamma2*(C) and the solve
closes the bracket from both sides: its row norms lam of C Y and mu of
C^T X give weights u = sqrt(lam), v = sqrt(mu), whose split, of price
|u| |v| ||D_u^-1 C D_v^-1||_op, meets sum(mu) at the optimum.

The others are the phase symbol (conj(phase(c_ij)) on the support of C,
0 off it; <D, C> = sum |c_ij|).  m = 1, and it is factored as (D, I) or
(I, D^T), whichever has the smaller g, sqrt(k) with k the smaller of the
largest row and column support, so ||D||_{M_p} <= k^(theta/2) at every p
with no solve.  At interior p it is also factored by its SVD,
U diag(sig) V^H = P Q^T with P = U sig^(1/2) and Q = conj(V) sig^(1/2),
whose g is often well below sqrt(k).  At interior p the solve stops as soon
as it cannot beat those values: its value is at most
||D_u^-1 C D_v^-1||_op |u| |v| for any positive weights u, v (the upper
side of gamma2*'s scaling identity), so it prices uniform weights,
sqrt(mk) ||C||_op from the SVD herz holds, before its first sweep and
its own weights at every check, and ends where a price falls below the
best value.

Every bracket also contains herz_cb, the predual norm of M_{p,cb}: every
lower witness is cb-normed (M_2 and gamma2 are cb norms, gamma2 being the
cb norm at p = 1 and oo, and Riesz-Thorin interpolation bounds cb norms
too), and a decomposition costs at least herz_p >= herz_cb.

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
from .multipliers import interpolation_bound

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


@dataclass(frozen=True, eq=False)
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
              target: np.ndarray | None = None, price: tuple | None = None,
              r: SchattenIndex | None = None) -> "HerzDecomposition":
        """The decomposition of the factor stacks As, Bs of shape (K, dim, dim).

        With a ``target``, one more term (target - R, J) carries what the
        terms miss of it, R being what they represent; with a ``price`` =
        (c, e, R), term k costs c[k] * 2**e and the terms represent R * 2**e,
        and no target is read; with an exponent ``r``, the B_k are priced at
        r in place of p*.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "p", p)
        object.__setattr__(d, "dim", dim)
        d._settle(As, Bs, target, price, r)
        return d

    def _settle(self, As, Bs, target=None, price=None, r=None) -> None:
        As, Bs = as_stack(As), as_stack(Bs)
        if price is None:  # each stack is scaled once, for the miss and the prices
            scaled = _scaled(As, Bs)
            if target is not None:
                As, Bs, scaled = _complete(As, Bs, scaled, target)
            price = _term_costs(*scaled, self.p, r or self.p.conjugate())
        costs, e, R = price
        keep = costs != 0.0
        if not keep.all():
            As, Bs = As[keep], Bs[keep]
        # no caller holds the stacks but as another decomposition's
        # read-only ones (herz_norm copies the one input it stacks as it
        # is), so they are frozen in place
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


def _scaled(As: np.ndarray, Bs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(As * 2**-eA, Bs * 2**-eB, eA, eB): each stack scaled by the power of
    two that puts its largest modulus in [1/2, 1)."""
    eA, eB = modulus_exponent(As), modulus_exponent(Bs)
    return ldexp(As, -eA), ldexp(Bs, -eB), eA, eB


def _term_costs(Sa: np.ndarray, Sb: np.ndarray, eA: int, eB: int, p: SchattenIndex,
                r: SchattenIndex) -> tuple[np.ndarray, int, np.ndarray]:
    """(c, e, R) for the stacks Sa * 2**eA and Sb * 2**eB (``_scaled``):
    term k costs ||A_k||_p ||B_k||_r = c[k] * 2**e, and the terms of nonzero
    cost represent R * 2**e.

    Each side is priced at its scale by one batched SVD, so subnormal
    entries and norms beyond the float range are priced to full precision.
    R is summed from the scaled factors, so it keeps what a subnormal factor
    entry lost to rounding.
    """
    costs = schatten_norms(Sa, p) * schatten_norms(Sb, r)
    return costs, eA + eB, np.sum((Sa * Sb)[costs != 0.0], axis=0)


def _place(A: np.ndarray, B: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(A * 2**max(e, 0), B * 2**min(e, 0)): a split of C = S * 2**e taken
    at the scale of S, 2**e on the left factor when e > 0 and on the right
    one when e < 0.  Every split herz builds does so, and scales with C.
    The factor that is not scaled is returned as it is."""
    return (ldexp(A, e) if e > 0 else A), (ldexp(B, e) if e < 0 else B)


def _complete(As: np.ndarray, Bs: np.ndarray, scaled: tuple,
              target: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The stacks and their ``_scaled`` copies with one more term
    (target - R, J) when the terms represent R != target.  The miss is taken
    at the scale of the factors, exact by Sterbenz's lemma, and 2**e is put
    as ``_place`` puts it; the new term joins the scaled copies as it is
    stored, at the others' scale."""
    Sa, Sb, eA, eB = scaled
    e = eA + eB
    miss = ldexp(target, -e) - np.sum(Sa * Sb, axis=0)
    if not np.any(miss):
        return As, Bs, scaled
    A, J = _place(miss, np.ones_like(miss), e)
    return (np.concatenate([As, A[None]]), np.concatenate([Bs, J[None]]),
            (np.concatenate([Sa, ldexp(A, -eA)[None]]),
             np.concatenate([Sb, ldexp(J, -eB)[None]]), eA, eB))


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


def _block(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, R): the masks of S's nonzero rows and columns and R, S
    restricted to them (S itself where they are all of S)."""
    rows, cols = S.any(axis=1), S.any(axis=0)
    return rows, cols, S if rows.all() and cols.all() else S[np.ix_(rows, cols)]


def _embed(S: np.ndarray, rows: np.ndarray, cols: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X, given on S's nonzero rows and columns, as an array of S's shape
    and type that is zero off them."""
    if X.shape == S.shape:
        return X.astype(S.dtype, copy=False)
    Z = np.zeros_like(S)
    Z[np.ix_(rows, cols)] = X
    return Z


def _l1_weighting(R: np.ndarray) -> tuple:
    """(u, v, W, t) for a block R with no zero row or column: u and v the
    square roots of its row and column l_1 sums, W = D_u^-1 R D_v^-1 and t
    its singular values."""
    a = np.abs(R)
    u, v = np.sqrt(a.sum(axis=1)), np.sqrt(a.sum(axis=0))
    W = R / u[:, None] / v
    return u, v, W, np.linalg.svd(W, compute_uv=False)


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
    its first sweep the solve prices uniform weights, s1 sqrt(mk) with
    s1 = ||S||_op, which costs no SVD.  Then it prices u = sqrt(lam),
    v = sqrt(mu), which meets sum(mu) at the optimum, by one values-only
    SVD after 5 sweeps and after every max(5, sweeps // 8) more, and stops
    once the price is within gamma2.WIDTH_FLOOR of sum(mu), or after
    gamma2.MAX_SWEEPS.  Once a price * (1 + 1e-12) falls below ``floor``
    (the value the caller holds already, in units of S) the solve stops;
    no price falls below floor 0.  Divided by g = 1, the solve's value is
    at most that price, so it cannot beat the floor.  At interior p
    ``herz_norm`` divides X Y^T by g^theta m^(1 - theta) <= g instead,
    which can lift it past the price, so there the floor only marks the
    solve as not worth running; near its optimum m is within a few percent
    of 1, and on the test symbol sets no stopped solve would have won.

    Returns (sweeps, found).  found is (P, Q, F, G, price): X and Y, and
    F = u v^T and G = D_u^-1 S D_v^-1, on all of S's rows and columns (zero
    off R), so F * G = S up to rounding; or None where a weight is not
    positive or G is not finite at a check, or where the floor stops it.
    """
    rows, cols, R = _block(S)
    R = np.ascontiguousarray(R)
    m, k = R.shape
    if s1 * np.sqrt(R.size) * (1 + 1e-12) < floor:
        return 0, None
    Rh = np.ascontiguousarray(R.conj().T)
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
    F, G = (_embed(S, rows, cols, X) for X in (np.outer(u, v), W))
    return sweeps, (P, Q, F, G, float(price))


def _factored(P: np.ndarray, Q: np.ndarray, S: np.ndarray, theta: float) -> tuple[float, dict]:
    """The lower bound that D = P Q^T gives in units of S, with its
    certificate: |<D, S>| divided by ``multipliers.interpolation_bound``'s
    unweighted bound on ||D||_{M_p} from the factors, g^theta m^(1 - theta)
    (g the product of the largest row norms of P and Q, m = max |d_ij|),
    which is g exactly at theta = 1.  P and Q come in C order, as a
    record's reader holds them, so a re-check forms P Q^T with the same
    rounding."""
    D = P @ Q.T
    bound, cert = interpolation_bound(D, theta, factors=(P, Q))
    return abs(complex((D * S).sum())) / bound, cert


def _entrywise_stacks(S: np.ndarray, e: int,
                      q: SchattenIndex) -> tuple[np.ndarray, np.ndarray]:
    """The factor stacks at q <= 2 of the entrywise expansion of
    C = S * 2**e, one term per nonzero cyclic diagonal; S has its largest
    modulus in [1/2, 1).

    Term k carries the entries (i, i + k mod n): A_k = phase(c) |c|^(1/q)
    and B_k = |c|^(1/q*) there, zero elsewhere.  A matrix with at most one
    nonzero per row and per column has its entry moduli as singular values,
    so by Hoelder equality each term costs the l_1 norm of its diagonal and
    the expansion costs sum |c_ij|.  The powers are taken of the moduli of
    S, and 1/q >= 1/q*, so ``_place`` scales up the factor of the smaller
    moduli and down the one of the larger, exactly short of subnormals.
    """
    n = S.shape[0]
    inv_q = 1.0 / q.value
    nz = S != 0
    r = np.abs(S)
    A, B = _place(np.where(nz, unit_phases(S) * r ** inv_q, 0.0),
                  np.where(nz, r ** (1.0 - inv_q), 0.0).astype(complex), e)
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

    Everything is computed at q = min(p, p*) (module docstring), with the
    right factors priced at r, the conjugate of q the caller named: q* at
    p <= 2, p itself at p > 2, where the winner comes back with its terms
    swapped at its price.  So p and p* give one result wherever the
    conjugate of p* is p, and the upper bound is what the returned terms
    cost at p, also where it is not (p = 4, 6).
    Upper bound: the cheapest of J * C against the all-ones J, costing
    n ||C||_r <= n ||C||_q, the cost of C * J; the entrywise expansion by
    cyclic diagonals, costing sum |c_ij| in at most n terms; at q = 1, the
    mixing solve's (u v^T) * (D_u^-1 C D_v^-1) (``_mixing``); and at
    interior q the l_1-weighted split (``_l1_weighting``), costing
    |u| |v| ||D_u^-1 C D_v^-1||_r, listed only where it undercuts both
    closed forms above by more than 1e-9 (uniform weights make it J * C,
    and where |c_ij| has rank one it costs sum |c_ij|).  They are priced
    first, the closed forms from singular values, and only those within
    1e-9 of the cheapest are built (all of them when max |c_ij| is
    subnormal).  Each one built gets one more term, (C - R, J) for the
    matrix R its terms represent, unless that miss is zero, so the upper
    bound is the cost of the returned decomposition.  Ties go to fewer
    terms, then to that order.
    Lower bound: the largest of the phase symbol D factored as (D, I) or
    (I, D^T), at interior q the phase symbol factored by its SVD, and the
    mixing solve's X Y^T; ties go to the later one, and a value past the
    float range is passed over unless all are.  A factored symbol
    P Q^T certifies |<P Q^T, C>| / (g^theta m^(1 - theta)), computed as
    |<P Q^T, C>| / (g min(1, m/g)^(1 - theta)), and its "factored-symbol"
    certificate holds P, Q, g (the product of their largest row norms,
    which bounds gamma2(P Q^T)), m = max |(P Q^T)_ij| and theta, so the
    bound rebuilds from the record and C alone.  A solve that meets a zero
    or non-finite weight or factor leaves no candidate and no lower side.
    The solve runs at every p != 2; at interior p it stops without a
    candidate once a price of gamma2*(C), uniform weights' before its
    first sweep or its own weights' at a check (``_mixing``), falls below
    the best of the phase symbol's two values, its floor, and the larger
    certifies the lower bound.  The lower certificate's ``value`` is the
    lower bound, clamped to the upper one.
    Each side is computed on copies scaled by powers of two to entries near
    1 and rounded back once, so a subnormal symbol gets the bracket of its
    scaled copy, rounded.  p = 2 is closed-form: the entrywise l_1 norm,
    zero width, with the completed entrywise expansion as decomposition and
    the phase symbol's certificate, its ``value`` the l_1 norm.
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

    # computed at q = min(p, p*); the right factors are priced at r, the
    # conjugate of q that the caller named (p itself at p > 2)
    q, r = (pi.conjugate(), pi) if pi.value > 2 else (pi, pi.conjugate())
    e = modulus_exponent(M)
    S = ldexp(M, -e)
    a = np.abs(S)
    l1 = np.sum(a)
    theta = abs(1.0 - 2.0 / q.value)
    # the phase symbol D, factored as D I or I D, whichever has the smaller
    # largest row norm: g = sqrt(k), k the smaller of the largest row and
    # column support, so ||D||_{M_p} <= k^(theta/2) with no solve
    nz = M != 0
    D = np.where(nz, unit_phases(M).conj(), 0.0)
    eye = np.eye(n, dtype=complex)
    phase = (D, eye) if np.sum(nz, axis=1).max() <= np.sum(nz, axis=0).max() \
        else (eye, np.ascontiguousarray(D.T))
    # the lower witnesses as (value in units of S, certificate)
    lows = [_factored(*phase, S, theta)]
    if q.value == 2.0:
        value = float(np.ldexp(l1, e))
        _check_range(value)
        bracket = exact_bracket(value, "closed-form", detail="entrywise l_1 at p = 2")
        entrywise = HerzDecomposition._make(q, *_entrywise_stacks(S, e, q), n, target=M)
        return HerzNormResult(bracket, entrywise, {**lows[0][1], "value": value})

    # J o C, the expansion and, at q = 1, the mixing solve's decomposition
    # or, at interior q, the l_1-weighted split cost n ||S||_r, sum |s_ij|
    # and |u| |v| ||D_u^-1 S D_v^-1||_r in units of 2**e.
    # While max |c_ij| is a normal float, completing a candidate moves its
    # price by rounding only, so one priced above the cheapest by more than
    # 1e-9 cannot win and is not built; below that the factors round away
    # from C, and all are built
    s = np.linalg.svd(S, compute_uv=False)
    # (stacks, price); the expansion's stacks (None) are built only if needed
    candidates = [((np.ones((1, n, n), dtype=complex), M[None].copy()),
                   n * float(lp_norms(s, r))), (None, l1)]
    if theta < 1:
        # the l_1-weighted split, listed only where it undercuts both closed
        # forms by more than 1e-9, so it is built alone or not at all:
        # uniform weights make it J o C reweighted, and where |c_ij| has
        # rank one it is priced at sum |c_ij|, the expansion's price.  Equal
        # moduli give uniform weights, so there it is not formed
        if a.min() < a.max():
            rows, cols, R = _block(S)
            u, v, W, t = _l1_weighting(R)
            price = float(np.linalg.norm(u) * np.linalg.norm(v) * lp_norms(t, r))
            if price * (1 + 1e-9) < min(candidates[0][1], l1):
                A, B = _place(*(_embed(S, rows, cols, X) for X in (np.outer(u, v), W)), e)
                candidates.append(((A[None], B[None]),
                                   price if np.all(np.isfinite(A)) else np.inf))
        # the phase symbol factored by its SVD, U diag(sig) V^H = P Q^T
        U, sig, Vh = np.linalg.svd(D)
        root = np.sqrt(sig)
        lows.append(_factored(U * root, np.ascontiguousarray(Vh.T) * root, S, theta))
    # the solve stops where a price of gamma2*(S) falls below its floor:
    # the best value above whose scaled value is finite, or 0 at q = 1,
    # where the symbol's value is at most gamma2*(S)
    floor = max((w for w, _ in lows if np.ldexp(w, e) < np.inf), default=0.0) \
        if theta < 1 else 0.0
    steps, found = _mixing(S, s[0], floor)
    if found is not None:
        lows.append(_factored(*found[:2], S, theta))
        if theta == 1:
            # a factor past the float range is not built
            A, B = _place(*found[2:4], e)
            candidates.append(((A[None], B[None]),
                               found[4] if np.all(np.isfinite(A)) else np.inf))
    near = (1 + 1e-9) * min(price for _, price in candidates) if e > -1022 else np.inf
    stacks = [st or _entrywise_stacks(S, e, q) for st, price in candidates if price <= near]

    # the terms multiply back to C only up to rounding, so each candidate
    # gets one more term that carries what it misses and is ranked by the
    # cost it is returned at; ties go to fewer terms, then to the order above
    best = min((HerzDecomposition._make(q, As, Bs, n, target=M, r=r) for As, Bs in stacks),
               key=lambda d: (d.cost, len(d.terms)))
    if q != pi:  # p > 2: the terms swapped, each at its price at (q, p)
        best = HerzDecomposition._make(pi, best._Bs, best._As, n,
                                       price=(np.array(best._costs), best._e, best._R))
    upper = best.cost
    _check_range(upper)

    # the lower side is found on S = C * 2**-e and scaled back once; the
    # best witness whose value stays in the float range wins, ties going to
    # the later one
    lower, dual = max(((float(np.ldexp(w, e)), d) for w, d in reversed(lows)),
                      key=lambda c: (c[0] < np.inf, c[0]))
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
