"""Structure maps on the doubled index space, with exact diagram checks.

Matrices over the doubled index set I x I are held as (n^2) x (n^2) arrays
under the pair-index convention pos(t, r) = t*n + r (outer index on the
left), which matches ``numpy.kron``: the entry of A (x) B at ((t,r),(u,s))
is A[t,u] * B[r,s].  Equivalently a tensor e_ij (x) e_kl sits at row (i,k),
column (j,l).

Two 0/1 relocation maps tie the matrix product to Schur multiplication at
the doubled level:

* ``column_splice`` keeps only tensors e_ij (x) e_kk and sends them to
  e_ik (x) e_kj (a partial isometry);
* ``row_splice`` keeps tensors e_ij (x) e_jl and sends them to e_il (x) e_jj;
  it is the adjoint of column_splice under the bilinear trace pairing.

With ``product_symbol(A)`` (the doubled symbol a_ts delta_ur) they satisfy
the exactly checkable identity: the multiplier of product_symbol(A) equals
column_splice after the amplified multiplier of A after row_splice.  The
diagonal-embedding symbol ``diag_embed(A)`` (entries of A placed at the
((r,r),(s,s)) grid) satisfies the companion identity through the diagonal
mask.  Both verifiers run the full tensor basis plus random operands, and
each carries a negative control that must fail.

The maps act on the last two axes: a stack gets, matrix by matrix, what
each matrix gets alone, bit for bit.  The verifiers pass the n^4 matrix
units and the random operands through each map as one stack, and
``partial_isometry_check`` applies ``column_splice`` to the same units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_COUNT, InputError, as_matrix, as_stack, require_range, require_square

__all__ = [
    "base_dim",
    "column_splice",
    "row_splice",
    "product_symbol",
    "diag_embed",
    "diag_slice",
    "diag_mask",
    "splice_adjoint_defect",
    "DiagramReport",
    "verify_product_diagram",
    "verify_diag_embed_diagram",
    "PartialIsometryReport",
    "partial_isometry_check",
]

MAX_DIAGRAM_DIM = 6
EXACT_TOL = 1e-12  # the deviation that the exact checks below forgive


def base_dim(X: np.ndarray) -> int:
    """Base dimension n of a doubled-index matrix, or stack, of shape (..., n^2, n^2)."""
    if X.ndim < 2 or X.shape[-2] != X.shape[-1]:
        raise InputError(f"doubled-index matrix must be square, got {X.shape}")
    n = int(round(np.sqrt(X.shape[-1])))
    if n * n != X.shape[-1]:
        raise InputError(
            f"doubled-index dimension {X.shape[-1]} is not a perfect square")
    return n


def _as_tensor(X) -> tuple[np.ndarray, int]:
    M = as_stack(X)
    n = base_dim(M)
    # T[..., t, r, u, s] = X[..., (t,r),(u,s)]
    return M.reshape(M.shape[:-2] + (n, n, n, n)), n


def column_splice(X) -> np.ndarray:
    """Send e_ij (x) e_kk to e_ik (x) e_kj; kill e_ij (x) e_kl for k != l.

    On entries: the input at row (i,k), column (j,k) lands at row (i,k),
    column (k,j); everything else is dropped.  A partial isometry.
    """
    T, n = _as_tensor(X)
    out = np.zeros_like(T)
    for k in range(n):
        # tensor coefficient at [i, k, j, k] moves to [i, k, k, j]
        out[..., :, k, k, :] = T[..., :, k, :, k]
    return out.reshape(T.shape[:-4] + (n * n, n * n))


def row_splice(X) -> np.ndarray:
    """Send e_ij (x) e_jl to e_il (x) e_jj; kill e_ij (x) e_kl for j != k.

    The trace-pairing adjoint of ``column_splice``.
    """
    T, n = _as_tensor(X)
    out = np.zeros_like(T)
    for j in range(n):
        out[..., :, j, :, j] = T[..., :, j, j, :]
    return out.reshape(T.shape[:-4] + (n * n, n * n))


def product_symbol(A) -> np.ndarray:
    """Doubled symbol with entry ((t,r),(u,s)) = A[t,s] * delta_ur.

    Its Schur multiplier acts on tensors by e_ij (x) e_kl |->
    delta_jk a_il e_ij (x) e_kl: the pattern of the matrix product against A.
    """
    M = as_matrix(A)
    n = require_square(M, "product_symbol")
    out = np.zeros((n, n, n, n), dtype=complex)
    for r in range(n):
        out[:, r, r, :] = M  # a_ts at fixed inner pair u = r
    return out.reshape(n * n, n * n)


def diag_embed(A) -> np.ndarray:
    """Place A on the diagonal pair grid: entry ((r,r),(s,s)) = A[r,s].

    As an element this embedding is isometric for every Schatten norm (the
    singular values are preserved); as a symbol it drives the diagonal
    factorization identity.
    """
    M = as_stack(A)
    n = require_square(M, "diag_embed")
    out = np.zeros(M.shape[:-2] + (n * n, n * n), dtype=complex)
    pos = np.arange(n) * (n + 1)  # flattened position of the pair (r, r)
    out[..., pos[:, None], pos] = M
    return out


def diag_slice(X) -> np.ndarray:
    """Read the diagonal pair grid back off: entry (r, s) = X[(r,r),(s,s)].

    Left inverse of ``diag_embed``.
    """
    M = as_stack(X)
    n = base_dim(M)
    pos = np.arange(n) * (n + 1)
    return M[..., pos[:, None], pos]  # advanced indexing copies


def diag_mask(n: int) -> np.ndarray:
    """0/1 symbol supported on rows (r,r) and columns (s,s).

    Schur multiplication by it keeps exactly the tensors e_ij (x) e_ij.
    """
    require_range(n, 1, None, "diag_mask", "n")
    chi = np.zeros(n * n)
    chi[np.arange(n) * (n + 1)] = 1.0
    return np.outer(chi, chi).astype(complex)


def splice_adjoint_defect(X, Y) -> float | np.ndarray:
    """| <column_splice(X), Y> - <X, row_splice(Y)> | under the trace pairing,
    one value per matrix of a stack."""
    MX, MY = as_stack(X), as_stack(Y)
    left = np.sum(column_splice(MX) * MY, axis=(-2, -1))
    right = np.sum(MX * row_splice(MY), axis=(-2, -1))
    d = left - right
    return np.hypot(d.real, d.imag)  # rounds as abs() of one complex does; np.abs may not


@dataclass
class DiagramReport:
    """Outcome of an exact factorization-diagram check."""

    diagram: str
    n: int
    max_deviation: float
    passed: bool
    control_deviation: float
    control_failed_as_expected: bool
    tolerance: float


def _matrix_units(n: int) -> np.ndarray:
    """All n^4 matrix units of the doubled index space, as one stack."""
    return np.eye(n ** 4, dtype=complex).reshape(n ** 4, n * n, n * n)


def _run_diagram(diagram: str, n: int, sym: np.ndarray, rhss, control,
                 random_trials: int, seed: int) -> DiagramReport:
    """Worst deviation of sym * X from each rhs(X) in rhss, and from control(X).

    Runs every matrix unit (absolute deviations), then random doubled
    operands (deviations over 1 + ||X||_F), as one stack through each map.
    """
    rng = np.random.default_rng(seed)
    randoms = [rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
               for _ in range(random_trials)]
    X = np.concatenate([_matrix_units(n), np.reshape(randoms, (-1, n * n, n * n))])
    # one norm per operand: a stacked Frobenius norm sums in another order
    scale = np.array([1.0] * n ** 4 + [1.0 + float(np.linalg.norm(R)) for R in randoms])
    L = sym * X

    def worst(Y):
        return float(np.max(np.max(np.abs(L - Y), axis=(-2, -1)) / scale))

    dev = max(worst(rhs(X)) for rhs in rhss)
    ctrl = worst(control(X))
    return DiagramReport(
        diagram=diagram, n=n, max_deviation=dev, passed=dev <= EXACT_TOL,
        control_deviation=ctrl, control_failed_as_expected=ctrl > EXACT_TOL,
        tolerance=EXACT_TOL)


def _check_args(A: np.ndarray, random_trials: int, seed: int, who: str) -> int:
    """The size n of a diagram verifier's symbol; ``core.require_range`` checks
    n (to MAX_DIAGRAM_DIM, for the full n^4 basis), random_trials (to
    ``core.MAX_COUNT``) and seed before any draw."""
    n = require_square(A, who)
    require_range(n, 0, MAX_DIAGRAM_DIM, who, "n")
    require_range(random_trials, 0, MAX_COUNT, who, "random_trials")
    require_range(seed, 0, None, who, "seed")
    return n


def verify_product_diagram(A, random_trials: int = 16, seed: int = 0) -> DiagramReport:
    """Check M_{product_symbol(A)} = column_splice o (M_A (x) Id) o row_splice.

    Runs every tensor basis element plus random doubled operands.  The
    negative control replaces row_splice by the identity, which must fail for
    a generic A (it fails whenever some a_il with i != l is nonzero).
    """
    M = as_matrix(A)
    n = _check_args(M, random_trials, seed, "verify_product_diagram")
    amp = np.kron(M, np.ones((n, n)))  # symbol of M_A (x) Id on the doubled space
    sym = product_symbol(M)

    def rhs(X):
        return column_splice(amp * row_splice(X))

    def control(X):  # row_splice dropped
        return column_splice(amp * X)

    return _run_diagram("product", n, sym, (rhs,), control, random_trials, seed)


def verify_diag_embed_diagram(A, random_trials: int = 16, seed: int = 0) -> DiagramReport:
    """Check both factorizations of the diagonal-embedding multiplier.

    Identity 1: M_{diag_embed(A)} = M_mask o (M_A (x) Id) o M_mask.
    Identity 2: M_{diag_embed(A)} = diag_embed o M_A o diag_slice.
    The negative control strips the mask entirely (bare amplification), which
    must fail on tensors e_ij (x) e_kl with (i,j) != (k,l) whenever a_ij != 0.
    A single-sided mask drop would be vacuous: the mask absorbs into the
    amplified symbol entrywise, so only the full strip is informative.
    """
    M = as_matrix(A)
    n = _check_args(M, random_trials, seed, "verify_diag_embed_diagram")
    amp = np.kron(M, np.ones((n, n)))
    sym = diag_embed(M)
    mask = diag_mask(n)

    def rhs_masked(X):
        return mask * (amp * (mask * X))

    def rhs_embedded(X):
        return diag_embed(M * diag_slice(X))

    def control(X):  # both masks dropped
        return amp * X

    return _run_diagram("diag-embed", n, sym, (rhs_masked, rhs_embedded), control,
                        random_trials, seed)


@dataclass
class PartialIsometryReport:
    """Exact partial-isometry evidence for the column-splice relocation."""

    n: int
    rrr_defect: float        # || R R^* R - R ||_max
    projection_defect: float  # || (R^* R)^2 - R^* R ||_max and Hermitian defect
    rank: int
    expected_rank: int
    passed: bool


def partial_isometry_check(n: int) -> PartialIsometryReport:
    """Materialize column_splice on the n^4-dimensional entry space and test it.

    Column m of R is the shipped ``column_splice`` of the m-th matrix unit.

    R relocates a set of coordinate vectors bijectively and kills the rest,
    so R R^* R = R must hold exactly and R^* R is the orthogonal projection
    onto the surviving coordinates.  The rank is n^3: the surviving tensors
    e_ij (x) e_kk are indexed by three free indices.
    """
    require_range(n, 1, MAX_DIAGRAM_DIM, "partial_isometry_check", "n")
    images = column_splice(_matrix_units(n)).real.reshape(n ** 4, n ** 4)
    R = np.ascontiguousarray(images.T)  # C order keeps the products below fast
    RRR = R @ R.T @ R
    rrr_defect = float(np.max(np.abs(RRR - R)))
    P = R.T @ R
    proj_defect = float(max(np.max(np.abs(P @ P - P)), np.max(np.abs(P - P.T))))
    rank = int(round(np.trace(P)))
    expected = n ** 3
    passed = rrr_defect <= EXACT_TOL and proj_defect <= EXACT_TOL and rank == expected
    return PartialIsometryReport(n, rrr_defect, proj_defect, rank, expected, passed)
