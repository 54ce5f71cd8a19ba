"""Dense complex-matrix substrate for the toolkit.

Everything downstream consumes this module: Schatten norms computed from
singular values, the exponent type with exact conjugation at the endpoints,
Kronecker products, coordinate truncation, the bilinear trace pairing, and
seeded random ensembles.  All matrices are numpy complex arrays; all
randomness flows through ``numpy.random.default_rng(seed)`` so a seed pins
every downstream artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

VERSION = "0.1.0"

__all__ = [
    "InputError",
    "ResourceError",
    "SchattenIndex",
    "INF",
    "as_index",
    "as_matrix",
    "require_range",
    "schatten_norm",
    "schatten_norms",
    "conjugate_index",
    "kron",
    "truncate",
    "trace_pairing",
    "random_matrix",
    "matrix_unit",
    "NormBracket",
]


class InputError(ValueError):
    """Malformed or out-of-contract input (maps to CLI exit code 2)."""


class ResourceError(RuntimeError):
    """Request exceeds the desk-scale caps this toolkit promises to handle."""


# the most restarts or trials one call may ask for, in the library and the CLI
MAX_COUNT = 1024

# the desk-scale cap on either dimension; herz_norm's entrywise expansion
# alone holds n pairs of n x n matrices, 2 n^3 complex numbers.
MAX_DIM = 64


def require_range(value: int, low: int, high: "int | None", who: str, name: str) -> None:
    """The library's one range rule for a count, size or seed: ``value``
    that is not an int or numpy integer (a bool neither), or below ``low``,
    is malformed input (InputError), above ``high`` a request past a
    desk-scale cap (ResourceError; ``high=None`` sets no cap).  Each caller
    checks before any work, and the message names ``who`` and ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{who} needs an integer {name}, got {value!r}")
    if value < low:
        raise InputError(f"{who} needs {name} >= {low}, got {value}")
    if high is not None and value > high:
        raise ResourceError(f"{who} needs {name} <= {high}, got {value}")


class SchattenIndex:
    """Exponent p in [1, oo] for Schatten classes.

    Infinity is held as a distinguished internal state rather than a float
    sentinel, so ``conjugate`` is exact at the endpoints: 1 <-> oo and
    2 -> 2 involve no arithmetic.  Finite exponents conjugate through
    p / (p - 1).
    """

    __slots__ = ("_finite",)

    def __init__(self, value: "float | None | SchattenIndex"):
        if isinstance(value, SchattenIndex):
            self._finite = value._finite
            return
        if value is None:
            self._finite = None
            return
        try:
            v = float(value)
        except (TypeError, ValueError):
            raise InputError(f"Schatten exponent must be a number, got {value!r}") from None
        if math.isnan(v):
            raise InputError("Schatten exponent must not be NaN")
        if v == math.inf:
            self._finite = None
        elif v >= 1.0:
            self._finite = v
        else:
            raise InputError(f"Schatten exponent must be in [1, inf], got {v}")

    @property
    def is_inf(self) -> bool:
        return self._finite is None

    @property
    def value(self) -> float:
        """The exponent as an extended real (math.inf for the top endpoint)."""
        return math.inf if self._finite is None else self._finite

    def conjugate(self) -> "SchattenIndex":
        if self._finite is None:
            return SchattenIndex(1.0)
        p = self._finite
        if p == 1.0:
            return INF
        if p == 2.0:
            return SchattenIndex(2.0)
        return SchattenIndex(p / (p - 1.0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchattenIndex):
            return self._finite == other._finite
        if isinstance(other, (int, float)):
            return self.value == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return "SchattenIndex(inf)" if self.is_inf else f"SchattenIndex({self._finite:g})"


INF = SchattenIndex(math.inf)


def as_index(p: "float | None | SchattenIndex") -> SchattenIndex:
    """Coerce to a SchattenIndex; math.inf and None both mean the endpoint."""
    return p if isinstance(p, SchattenIndex) else SchattenIndex(p)


def conjugate_index(p: "float | SchattenIndex") -> SchattenIndex:
    """Conjugate exponent p* = p/(p-1); 1 <-> oo and 2 -> 2 are exact."""
    return as_index(p).conjugate()


def as_stack(A: Any) -> np.ndarray:
    """A as a C-ordered complex128 array with finite entries; callers check
    its shape.  C order makes results independent of the input's memory
    layout, which changes how BLAS products round."""
    M = np.asarray(A, dtype=complex, order="C")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    return M


def as_matrix(A: Any) -> np.ndarray:
    """Validate and return A as a 2-D complex128 array with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={M.ndim}")
    return as_stack(M)


def require_square(A: np.ndarray, who: str, nonempty: bool = False) -> int:
    """The size n of a square matrix, or of a stack of them, of shape
    (..., n, n).  Any other shape, or n = 0 when ``nonempty``, is an
    InputError that names ``who``."""
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or (nonempty and A.shape[-1] == 0):
        kind = "a nonempty square" if nonempty else "a square"
        raise InputError(f"{who} requires {kind} matrix, got shape {A.shape}")
    return A.shape[-1]


def schatten_norm(A: Any, p: "float | SchattenIndex") -> float:
    """Schatten p-norm: the l_p norm of the singular values.

    Parameters
    ----------
    A : array_like
        Any rectangular complex matrix.  A dimension-zero matrix has norm 0.
    p : float or SchattenIndex
        Exponent in [1, oo]; p = oo gives the largest singular value.

    Returns
    -------
    float
        (sum_i sigma_i^p)^(1/p), or max_i sigma_i at p = oo.  The powers are
        taken of sigma_i / sigma_1, so no step overflows or underflows
        unless the norm itself does, which is an InputError.
    """
    pi = as_index(p)
    M = as_matrix(A)
    if M.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(lp_norms(np.linalg.svd(M, compute_uv=False), pi))
    if not np.isfinite(value):
        raise InputError("the Schatten norm of this matrix exceeds the float range")
    return value


def lp_roots(totals: np.ndarray, p: float) -> np.ndarray:
    """totals ** (1/p) entrywise, by scalar ``**`` on each entry.

    numpy's vectorised power can differ from the scalar one in the last bit,
    and the stacked norms below must equal ``schatten_norm`` bit for bit.
    """
    e = 1.0 / p
    return np.array([t ** e for t in totals.ravel().tolist()]).reshape(totals.shape)


def lp_norms(s: np.ndarray, p: "float | SchattenIndex") -> np.ndarray:
    """l_p norms along the last axis of a stack s of shape (..., k), k >= 1.

    Each vector must be nonnegative with its largest entry first, as
    singular values come.  The powers are taken of s / s[..., 0], so no
    step overflows or underflows unless the norm itself does.
    """
    pi = as_index(p)
    s0 = s[..., 0]
    if pi.is_inf:
        return s0.copy()
    r = s / np.where(s0 > 0.0, s0, 1.0)[..., None]  # zero vectors give r = 0
    return s0 * lp_roots(np.sum(r ** pi.value, axis=-1), pi.value)


def schatten_norms(X: np.ndarray, p: "float | SchattenIndex") -> np.ndarray:
    """Schatten p-norms of every matrix of a stack X of shape (..., m, n).

    One batched SVD; each entry of the result equals ``schatten_norm`` of
    the matching matrix bit for bit.  X is taken as given (no validation).
    """
    X = np.asarray(X)
    if min(X.shape[-2:]) == 0:
        return np.zeros(X.shape[:-2])
    return lp_norms(np.linalg.svd(X, compute_uv=False), p)


def kron(A: Any, B: Any) -> np.ndarray:
    """Kronecker product under the pair-index convention pos(t, r) = t*n + r.

    The left factor carries the outer index: entry ((t,r),(u,s)) of the result
    is A[t,u] * B[r,s], which is exactly ``numpy.kron``.
    """
    return np.kron(as_matrix(A), as_matrix(B))


def truncate(A: Any, J: Iterable[int]) -> np.ndarray:
    """Zero out all rows and columns whose index is outside J.

    J is a set of coordinates of the (square) index set; the surviving block
    is the J x J corner pattern.  Idempotent, and truncation by the full index
    set is the identity.  A stack of shape (..., n, n) is truncated matrix by
    matrix.  Each index is checked by ``require_range``.
    """
    M = as_stack(A)
    n = require_square(M, "truncate")
    idx = list(J)
    for j in idx:
        require_range(j, 0, None, "truncate", "index")
    idx = sorted(set(map(int, idx)))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise InputError(f"truncation index out of range for n={n}: {idx}")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    out = M.copy()
    out[..., ~mask, :] = 0
    out[..., :, ~mask] = 0
    return out


def trace_pairing(A: Any, B: Any) -> complex:
    """Bilinear pairing <A, B> = sum_ij a_ij * b_ij = tr(A B^T).

    This is the duality pairing used throughout (bilinear, no conjugation):
    pairing a multiplier symbol against a matrix reads off weighted entries.
    """
    MA, MB = as_matrix(A), as_matrix(B)
    if MA.shape != MB.shape:
        raise InputError(f"shape mismatch for trace pairing: {MA.shape} vs {MB.shape}")
    return complex(np.sum(MA * MB))


_ENSEMBLES = ("gaussian", "unitary", "sign", "sparse")


def random_matrix(n: int, ensemble: str = "gaussian", seed: int = 0) -> np.ndarray:
    """Seeded n x n sample from one of four ensembles.

    gaussian : independent standard complex normal entries
    unitary  : Haar-distributed unitary (QR of a gaussian with phase fix)
    sign     : independent +-1 real entries
    sparse   : gaussian entries kept with probability 0.3, else zero

    The same (n, ensemble, seed) always reproduces the same matrix.  n below
    1 or a negative seed is an InputError, raised before any draw.
    """
    require_range(n, 1, None, "random_matrix", "n")
    require_range(seed, 0, None, "random_matrix", "seed")
    rng = np.random.default_rng(seed)
    if ensemble == "gaussian":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    if ensemble == "unitary":
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, R = np.linalg.qr(G)
        d = np.diag(R)
        return Q * (d / np.abs(d))
    if ensemble == "sign":
        return (2.0 * rng.integers(0, 2, size=(n, n)) - 1.0).astype(complex)
    if ensemble == "sparse":
        G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        mask = rng.random((n, n)) < 0.3
        return G * mask
    raise InputError(f"unknown ensemble {ensemble!r}; expected one of {_ENSEMBLES}")


def gaussians(n: int, first: int, step: int, trials: int) -> np.ndarray:
    """Stack of ``trials`` gaussian n x n draws; draw t has seed first + step * t."""
    return np.array([random_matrix(n, ensemble="gaussian", seed=first + step * t)
                     for t in range(trials)], dtype=complex).reshape(-1, n, n)


def matrix_unit(i: int, j: int, n: int) -> np.ndarray:
    """The n x n matrix with a single 1 at position (i, j)."""
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def ldexp(Z: np.ndarray, e: int) -> np.ndarray:
    """Complex Z * 2**e without forming 2**e, which may overflow; a new
    array.  A C-ordered Z is scaled as one float array."""
    if Z.flags.c_contiguous and Z.ndim:
        return np.ldexp(Z.view(float), e).view(complex)
    out = np.empty_like(Z)
    out.real, out.imag = np.ldexp(Z.real, e), np.ldexp(Z.imag, e)
    return out


_NORMAL_MIN = float(np.finfo(float).tiny)


def modulus_exponent(Z: np.ndarray) -> int:
    """The e that puts max |z_ij| * 2**-e in [1/2, 1); 0 for a zero or empty Z.

    Unlike the largest real or imaginary part, it does not move when the
    entries are rephased.  Where |z_ij| overflows or is subnormal, and so
    inexact, it is taken after a first scaling by that part.
    """
    with np.errstate(over="ignore"):
        top = np.max(np.abs(Z), initial=0.0)
    if top == 0.0:
        return 0
    if not _NORMAL_MIN <= top < np.inf:
        k = int(np.frexp(np.max(np.abs([Z.real, Z.imag])))[1])
        return k + int(np.frexp(np.max(np.abs(ldexp(Z, -k))))[1])
    return int(np.frexp(top)[1])


def entry_floor(M: np.ndarray, value: float,
                witness: np.ndarray) -> tuple[float, np.ndarray]:
    """A witnessed lower bound for a multiplier norm of M, raised to max |m_ij|
    where it falls short: the matrix unit at that entry, padded to the
    witness's size, attains it exactly on every S_p and becomes the witness."""
    max_abs = float(np.max(np.abs(M)))
    if value >= max_abs:
        return value, witness
    i, j = np.unravel_index(int(np.argmax(np.abs(M))), M.shape)
    return max_abs, matrix_unit(i, j, witness.shape[0])


@dataclass(frozen=True)
class NormBracket:
    """A certified two-sided norm estimate [lower, upper].

    Every norm estimate in the toolkit travels in one of these.  The
    certificates are plain dicts describing how each side was obtained
    (closed form, test matrix, interpolation exponents, PSD block, or a
    decomposition); matrices inside certificates are numpy arrays.
    ``converged`` is False when the requested width was not reached -- the
    bracket is then wide but still valid.
    """

    lower: float
    upper: float
    lower_certificate: dict = field(default_factory=dict)
    upper_certificate: dict = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        if self.lower > self.upper + 1e-9 * abs(self.upper):
            raise InputError(
                f"invalid bracket: lower {self.lower} exceeds upper {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


def exact_bracket(value: float, kind: str, **extra: Any) -> NormBracket:
    """Zero-width bracket for closed-form values."""
    cert = {"kind": kind, **extra}
    return NormBracket(value, value, dict(cert), dict(cert), iterations=0, converged=True)


def certified_bracket(lower: float, upper: float, lower_cert: dict,
                      upper_cert: dict, iterations: int,
                      tol: float = 1e-6) -> NormBracket:
    """Bracket from two certified sides.  A witnessed lower bound can round
    above the upper one, so it is clamped to it exactly; ``converged`` means
    the width reached tol * upper."""
    lower = min(lower, upper)
    return NormBracket(lower, upper, lower_cert, upper_cert, iterations,
                       converged=(upper - lower) <= tol * upper)
