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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, ResourceError, as_matrix

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


def base_dim(X: np.ndarray) -> int:
    """Base dimension n of a doubled-index matrix of shape (n^2, n^2)."""
    if X.shape[0] != X.shape[1]:
        raise InputError(f"doubled-index matrix must be square, got {X.shape}")
    n = int(round(np.sqrt(X.shape[0])))
    if n * n != X.shape[0]:
        raise InputError(
            f"doubled-index dimension {X.shape[0]} is not a perfect square")
    return n


def _as_tensor(X) -> tuple[np.ndarray, int]:
    M = as_matrix(X)
    n = base_dim(M)
    # T[t, r, u, s] = X[(t,r),(u,s)]
    return M.reshape(n, n, n, n), n


def column_splice(X) -> np.ndarray:
    """Send e_ij (x) e_kk to e_ik (x) e_kj; kill e_ij (x) e_kl for k != l.

    On entries: the input at row (i,k), column (j,k) lands at row (i,k),
    column (k,j); everything else is dropped.  A partial isometry.
    """
    T, n = _as_tensor(X)
    out = np.zeros_like(T)
    for k in range(n):
        # tensor coefficient at [i, k, j, k] moves to [i, k, k, j]
        out[:, k, k, :] = T[:, k, :, k]
    return out.reshape(n * n, n * n)


def row_splice(X) -> np.ndarray:
    """Send e_ij (x) e_jl to e_il (x) e_jj; kill e_ij (x) e_kl for j != k.

    The trace-pairing adjoint of ``column_splice``.
    """
    T, n = _as_tensor(X)
    out = np.zeros_like(T)
    for j in range(n):
        out[:, j, :, j] = T[:, j, j, :]
    return out.reshape(n * n, n * n)


def product_symbol(A) -> np.ndarray:
    """Doubled symbol with entry ((t,r),(u,s)) = A[t,s] * delta_ur.

    Its Schur multiplier acts on tensors by e_ij (x) e_kl |->
    delta_jk a_il e_ij (x) e_kl: the pattern of the matrix product against A.
    """
    M = as_matrix(A)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise InputError(f"product_symbol needs a square matrix, got {M.shape}")
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
    M = as_matrix(A)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise InputError(f"diag_embed needs a square matrix, got {M.shape}")
    out = np.zeros((n * n, n * n), dtype=complex)
    pos = np.arange(n) * (n + 1)  # flattened position of the pair (r, r)
    out[np.ix_(pos, pos)] = M
    return out


def diag_slice(X) -> np.ndarray:
    """Read the diagonal pair grid back off: entry (r, s) = X[(r,r),(s,s)].

    Left inverse of ``diag_embed``.
    """
    M = as_matrix(X)
    n = base_dim(M)
    pos = np.arange(n) * (n + 1)
    return M[np.ix_(pos, pos)].copy()


def diag_mask(n: int) -> np.ndarray:
    """0/1 symbol supported on rows (r,r) and columns (s,s).

    Schur multiplication by it keeps exactly the tensors e_ij (x) e_ij.
    """
    if n < 1:
        raise InputError(f"diag_mask needs n >= 1, got {n}")
    chi = np.zeros(n * n)
    chi[np.arange(n) * (n + 1)] = 1.0
    return np.outer(chi, chi).astype(complex)


def splice_adjoint_defect(X, Y) -> float:
    """| <column_splice(X), Y> - <X, row_splice(Y)> | under the trace pairing."""
    MX, MY = as_matrix(X), as_matrix(Y)
    left = np.sum(column_splice(MX) * MY)
    right = np.sum(MX * row_splice(MY))
    return float(abs(left - right))


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

    def to_obj(self) -> dict:
        return {
            "diagram": self.diagram,
            "n": self.n,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
            "control_deviation": self.control_deviation,
            "control_failed_as_expected": self.control_failed_as_expected,
            "tolerance": self.tolerance,
        }


def _tensor_basis(n: int):
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    X = np.zeros((n * n, n * n), dtype=complex)
                    X[i * n + k, j * n + l] = 1.0
                    yield X


def _random_doubled(n: int, rng) -> np.ndarray:
    return (rng.standard_normal((n * n, n * n))
            + 1j * rng.standard_normal((n * n, n * n)))


def _check_dim(A: np.ndarray, who: str) -> int:
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise InputError(f"{who} needs a square matrix, got {A.shape}")
    if n > MAX_DIAGRAM_DIM:
        raise ResourceError(f"{who} runs the full n^4 basis; n <= {MAX_DIAGRAM_DIM}")
    return n


def verify_product_diagram(A, random_trials: int = 16, seed: int = 0,
                           tol: float = 1e-12) -> DiagramReport:
    """Check M_{product_symbol(A)} = column_splice o (M_A (x) Id) o row_splice.

    Runs every tensor basis element plus random doubled operands.  The
    negative control replaces row_splice by the identity, which must fail for
    a generic A (it fails whenever some a_il with i != l is nonzero).
    """
    M = as_matrix(A)
    n = _check_dim(M, "verify_product_diagram")
    amp = np.kron(M, np.ones((n, n)))  # symbol of M_A (x) Id on the doubled space
    sym = product_symbol(M)

    def lhs(X):
        return sym * X

    def rhs(X):
        return column_splice(amp * row_splice(X))

    def control(X):  # row_splice dropped
        return column_splice(amp * X)

    dev = 0.0
    ctrl = 0.0
    for X in _tensor_basis(n):
        dev = max(dev, float(np.max(np.abs(lhs(X) - rhs(X)))))
        ctrl = max(ctrl, float(np.max(np.abs(lhs(X) - control(X)))))
    rng = np.random.default_rng(seed)
    for _ in range(random_trials):
        X = _random_doubled(n, rng)
        scale = 1.0 + float(np.linalg.norm(X))
        dev = max(dev, float(np.max(np.abs(lhs(X) - rhs(X)))) / scale)
        ctrl = max(ctrl, float(np.max(np.abs(lhs(X) - control(X)))) / scale)
    return DiagramReport(
        diagram="product", n=n, max_deviation=dev, passed=dev <= tol,
        control_deviation=ctrl, control_failed_as_expected=ctrl > tol,
        tolerance=tol)


def verify_diag_embed_diagram(A, random_trials: int = 16, seed: int = 0,
                              tol: float = 1e-12) -> DiagramReport:
    """Check both factorizations of the diagonal-embedding multiplier.

    Identity 1: M_{diag_embed(A)} = M_mask o (M_A (x) Id) o M_mask.
    Identity 2: M_{diag_embed(A)} = diag_embed o M_A o diag_slice.
    The negative control strips the mask entirely (bare amplification), which
    must fail on tensors e_ij (x) e_kl with (i,j) != (k,l) whenever a_ij != 0.
    A single-sided mask drop would be vacuous: the mask absorbs into the
    amplified symbol entrywise, so only the full strip is informative.
    """
    M = as_matrix(A)
    n = _check_dim(M, "verify_diag_embed_diagram")
    amp = np.kron(M, np.ones((n, n)))
    sym = diag_embed(M)
    mask = diag_mask(n)

    def lhs(X):
        return sym * X

    def rhs_masked(X):
        return mask * (amp * (mask * X))

    def rhs_embedded(X):
        return diag_embed(M * diag_slice(X))

    def control(X):  # both masks dropped
        return amp * X

    dev = 0.0
    ctrl = 0.0
    for X in _tensor_basis(n):
        r1 = float(np.max(np.abs(lhs(X) - rhs_masked(X))))
        r2 = float(np.max(np.abs(lhs(X) - rhs_embedded(X))))
        dev = max(dev, r1, r2)
        ctrl = max(ctrl, float(np.max(np.abs(lhs(X) - control(X)))))
    rng = np.random.default_rng(seed)
    for _ in range(random_trials):
        X = _random_doubled(n, rng)
        scale = 1.0 + float(np.linalg.norm(X))
        r1 = float(np.max(np.abs(lhs(X) - rhs_masked(X)))) / scale
        r2 = float(np.max(np.abs(lhs(X) - rhs_embedded(X)))) / scale
        dev = max(dev, r1, r2)
        ctrl = max(ctrl, float(np.max(np.abs(lhs(X) - control(X)))) / scale)
    return DiagramReport(
        diagram="diag-embed", n=n, max_deviation=dev, passed=dev <= tol,
        control_deviation=ctrl, control_failed_as_expected=ctrl > tol,
        tolerance=tol)


@dataclass
class PartialIsometryReport:
    """Exact partial-isometry evidence for the column-splice relocation."""

    n: int
    rrr_defect: float        # || R R^* R - R ||_max
    projection_defect: float  # || (R^* R)^2 - R^* R ||_max and Hermitian defect
    rank: int
    expected_rank: int
    passed: bool

    def to_obj(self) -> dict:
        return {
            "n": self.n, "rrr_defect": self.rrr_defect,
            "projection_defect": self.projection_defect,
            "rank": self.rank, "expected_rank": self.expected_rank,
            "passed": self.passed,
        }


def partial_isometry_check(n: int, tol: float = 1e-12) -> PartialIsometryReport:
    """Materialize column_splice on the n^4-dimensional entry space and test it.

    R relocates a set of coordinate vectors bijectively and kills the rest,
    so R R^* R = R must hold exactly and R^* R is the orthogonal projection
    onto the surviving coordinates.  The rank is n^3: the surviving tensors
    e_ij (x) e_kk are indexed by three free indices.
    """
    if n < 1:
        raise InputError(f"partial_isometry_check needs n >= 1, got {n}")
    if n > MAX_DIAGRAM_DIM:
        raise ResourceError(f"n <= {MAX_DIAGRAM_DIM} for the n^4 materialization")
    N = n * n
    R = np.zeros((N * N, N * N))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                row_in = i * n + k
                col_in = j * n + k
                col_out = k * n + j
                R[row_in * N + col_out, row_in * N + col_in] = 1.0
    RRR = R @ R.T @ R
    rrr_defect = float(np.max(np.abs(RRR - R)))
    P = R.T @ R
    proj_defect = float(max(np.max(np.abs(P @ P - P)), np.max(np.abs(P - P.T))))
    rank = int(round(np.trace(P)))
    expected = n ** 3
    passed = rrr_defect <= tol and proj_defect <= tol and rank == expected
    return PartialIsometryReport(n, rrr_defect, proj_defect, rank, expected, passed)
