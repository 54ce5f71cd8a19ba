"""The stacked screen-and-polish ascent and the stacked Schatten norms agree
bit for bit with one-matrix references."""

import tracemalloc

import numpy as np
import pytest

from herzkit.ascent import (
    SCREEN_TOL,
    AscentOptions,
    _dual_map,
    dual_maximizer,
    norm_ascent,
    norming_functional,
    unit_phases,
)
from herzkit.core import (INF, MAX_COUNT, InputError, ResourceError, as_index, lp_norms,
                          random_matrix, schatten_norm, schatten_norms)
from herzkit.multipliers import _pad_witness


def svd_norm(X, p):
    """||X||_p from the singular values of the full SVD, which the climb
    shares with its norming functional."""
    return float(lp_norms(np.linalg.svd(X, full_matrices=False)[1], p))


def reference_climb(A, p, B0, max_iter, tol):
    """One start at a time: the loop that the stacked climb must reproduce.

    A step takes two SVDs: the maximizer's, and that of X = A * Bn, which
    gives the new value and the next step's functional (X is a positive
    multiple of A * B); ||Bn||_p is the l_p norm of the maximizer's weights.
    """
    nB = schatten_norm(B0, p)
    if nB == 0.0:
        return 0.0, B0, 0
    B = B0 / nB
    Ac = A.conj()
    X = A * B
    val = svd_norm(X, p)
    used = 0
    for it in range(max_iter):
        used = it + 1
        Bn, w = _dual_map(Ac * norming_functional(X, p), p)
        nBn = float(lp_norms(w, p))
        if nBn == 0.0:
            break
        X = A * Bn
        new = svd_norm(X, p) / nBn
        if new <= val + tol * val:
            if new > val:
                val, B = new, Bn / nBn
            break
        val, B = new, Bn / nBn
    return val, B, used


def starts_of(M, opts, extra_starts=()):
    n = M.shape[0]
    starts = [unit_phases(M), np.ones((n, n), dtype=complex)]
    starts.extend(np.asarray(S, dtype=complex) for S in extra_starts)
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts)):
        starts.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return starts


def reference_ascent(A, p, opts, extra_starts=()):
    """The two-phase rule, one start at a time: every start climbs to a rise
    of SCREEN_TOL, then the leader (ties to the earliest start) climbs on at
    opts.tol with the steps it has left, and keeps its screened value and
    witness unless the polish beats them."""
    pi, M = as_index(p), np.asarray(A, dtype=complex)
    best_val, best_B, best_used, total = -1.0, None, 0, 0
    for B0 in starts_of(M, opts, extra_starts):
        val, B, used = reference_climb(M, pi, B0, opts.max_iter, SCREEN_TOL)
        total += used
        if val > best_val:
            best_val, best_B, best_used = val, B, used
    val, B, used = reference_climb(M, pi, best_B, opts.max_iter - best_used, opts.tol)
    if val > best_val:
        best_val, best_B = val, B
    return max(best_val, 0.0), best_B, total + used


def one_rule_ascent(A, p, opts):
    """The rule the two phases replaced, kept as a reference only: every
    start climbs to opts.tol, and the largest value wins."""
    pi, M = as_index(p), np.asarray(A, dtype=complex)
    return max(reference_climb(M, pi, B0, opts.max_iter, opts.tol)[0]
               for B0 in starts_of(M, opts))


def assert_same_ascent(A, p, opts, extra_starts=()):
    res = norm_ascent(A, p, opts, extra_starts=extra_starts)
    val, B, its = reference_ascent(A, p, opts, extra_starts)
    assert res.value == val
    assert res.iterations == its
    assert res.witness.tobytes() == B.tobytes()
    return res


@pytest.mark.parametrize("n", [1, 3, 8, 16])
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("restarts", [0, 16])
def test_stacked_climb_matches_one_start_loop(n, p, restarts):
    A = random_matrix(n, "gaussian", seed=10 * n + restarts)
    assert_same_ascent(A, p, AscentOptions(restarts=restarts, seed=5, max_iter=60))


def test_zero_extra_start_takes_no_steps():
    A = random_matrix(4, "gaussian", seed=1)
    opts = AscentOptions(restarts=2, seed=1)
    res = assert_same_ascent(A, 3.0, opts, [np.zeros((4, 4))])
    assert res.iterations == norm_ascent(A, 3.0, opts).iterations


def test_padded_ladder_witness_start():
    A = random_matrix(3, "gaussian", seed=4)
    opts = AscentOptions(restarts=4, seed=2)
    base = norm_ascent(A, 1.5, opts)
    S = np.kron(np.ones((2, 2)), A)
    assert_same_ascent(S, 1.5, opts, [_pad_witness(base.witness, 6)])


def test_zero_lane_leaves_the_stack_cleanly():
    # the extra start has A o B = 0: its functional and maximizer vanish
    A = np.diag([1.0, 2.0, 3.0])
    res = assert_same_ascent(A, 3.0, AscentOptions(restarts=0),
                             [np.ones((3, 3)) - np.eye(3)])
    assert res.value == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
@pytest.mark.parametrize("ensemble", ["gaussian", "unitary", "sign", "sparse"])
def test_value_is_the_witness_ratio(p, ensemble):
    # the value comes from the SVDs the climb shares, not from the witness
    for n in (1, 3, 8, 16):
        A = random_matrix(n, ensemble, seed=n)
        res = norm_ascent(A, p, AscentOptions(restarts=4, seed=n))
        W = res.witness
        fresh = schatten_norm(A * W, p) / schatten_norm(W, p)
        assert res.value == pytest.approx(fresh, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("ensemble", ["gaussian", "unitary", "sign", "sparse"])
def test_ascent_is_scale_equivariant(p, ensemble):
    # the stop rule is relative and the climb is scaled by max |a_ij|, which
    # a rotation leaves alone, so a tiny, huge or rotated symbol climbs as
    # far as at scale 1
    A = random_matrix(6, ensemble, seed=1)
    opts = AscentOptions(restarts=4, seed=0)
    ref = norm_ascent(A, p, opts)
    for B in (A, A * np.exp(1j * np.pi / 4)):
        for e in (0, -30, 600, -600):
            res = norm_ascent(B * 2.0 ** e, p, opts)
            if B is A:
                assert res.iterations == ref.iterations
            assert res.value * 2.0 ** -e == pytest.approx(ref.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("ensemble", ["gaussian", "unitary", "sign", "sparse"])
def test_polish_reaches_the_one_rule_value(p, ensemble):
    # screening loosely loses no value that climbing every start to the old
    # stop (1e-9) found, up to that stop's own slack
    opts = AscentOptions(restarts=16, seed=1)
    for n in (3, 8):
        A = random_matrix(n, ensemble, seed=n)
        old = one_rule_ascent(A, p, AscentOptions(restarts=16, seed=1, tol=1e-9))
        assert norm_ascent(A, p, opts).value >= old * (1.0 - 1e-8)


def test_restarts_past_the_cap_are_refused_before_any_start():
    A = random_matrix(3, "gaussian", seed=1)
    tracemalloc.start()
    try:
        # the finite cases first: without the cap they end, and the test fails
        for restarts, error in ((MAX_COUNT + 1, ResourceError), (-1, InputError),
                                (2 ** 65, ResourceError)):
            with pytest.raises(error, match="restarts"):
                norm_ascent(A, 1.5, AscentOptions(restarts=restarts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    res = norm_ascent(A[:2, :2], 1.5, AscentOptions(restarts=MAX_COUNT, max_iter=2))
    assert res.value > 0.0


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0, INF])
def test_stacked_norms_equal_one_matrix_norms(p):
    rng = np.random.default_rng(3)
    for shape in [(7, 3, 3), (5, 8, 8), (4, 16, 16), (6, 3, 5), (2, 3, 4, 4)]:
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        X[(0,) * (len(shape) - 2)] = 0.0  # a zero matrix in the stack
        X.reshape(-1, *shape[-2:])[1] *= 2.0 ** -1000
        got = schatten_norms(X, p)
        want = np.array([schatten_norm(Y, p) for Y in X.reshape(-1, *shape[-2:])])
        assert got.shape == shape[:-2]
        assert got.ravel().tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_functionals_satisfy_hoelder_on_complex_stacks(p):
    pi, rng = as_index(p), np.random.default_rng(3)
    q = pi.conjugate()
    X = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    G, B = norming_functional(X, pi), dual_maximizer(X, pi)
    for k, C in enumerate(X):
        for stacked, single in ((G[k], norming_functional(C, pi)),
                                (B[k], dual_maximizer(C, pi))):
            assert stacked.tobytes() == single.tobytes()
        # Re tr(G^* C) = ||C||_p with ||G||_{p*} = 1
        assert np.real(np.vdot(G[k], C)) == pytest.approx(schatten_norm(C, pi), rel=1e-12)
        assert schatten_norm(G[k], q) == pytest.approx(1.0, rel=1e-12)
        # Re tr(C^* B) = ||C||_{p*} with ||B||_p = 1
        assert np.real(np.vdot(C, B[k])) == pytest.approx(schatten_norm(C, q), rel=1e-12)
        assert schatten_norm(B[k], pi) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, INF])
def test_functionals_map_zero_matrices_to_zero(p):
    X = np.zeros((3, 4, 4), dtype=complex)
    X[1] = random_matrix(4, "gaussian", seed=2)
    G, B = norming_functional(X, as_index(p)), dual_maximizer(X, as_index(p))
    assert not np.any(G[[0, 2]]) and not np.any(B[[0, 2]])
    assert G[1].tobytes() == norming_functional(X[1], as_index(p)).tobytes()


def test_polar_factor_is_the_p1_norming_functional():
    # at p = oo the maximizer's weights (r / ||r||_1)^0 are all 1: the polar
    # factor U V^*, on zero, rank-deficient and rectangular stacks too
    rng = np.random.default_rng(0)
    for t in range(60):
        K, m, n = (int(k) for k in rng.integers(1, 6, size=3))
        H = rng.standard_normal((K, m, n)) + 1j * rng.standard_normal((K, m, n))
        H[0] *= t % 3  # a zero matrix every third stack
        if t % 2:
            H = H[..., :, :1] @ H[..., :1, :]  # rank one
        B, G = dual_maximizer(H, INF), norming_functional(H, as_index(1))
        assert B.tobytes() == G.tobytes()
        U, _, Vh = np.linalg.svd(H[1:], full_matrices=False)
        assert B[1:].tobytes() == (U @ Vh).tobytes()


def test_unit_phases_of_subnormal_entries():
    z = np.array([[1e-310, -1e-310j], [0.0, 3e-320 * (1 + 1j)]])
    got = unit_phases(z)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, [[1, -1j], [1, (1 + 1j) / np.sqrt(2)]], rtol=0, atol=1e-15)
    M = random_matrix(5, "gaussian", seed=9)
    assert unit_phases(M).tobytes() == (M / np.abs(M)).tobytes()


def masked_phases(A):
    """Phases entry by entry through the mask of nonzeros, rescaling the
    entries below 2**-1000: the path that the one-pass phases must match."""
    M = np.asarray(A, dtype=complex)
    out = np.ones_like(M)
    nz = M != 0
    Z = M[nz]
    tiny = np.abs(Z) < 2.0 ** -1000
    Z[tiny] *= 2.0 ** 1000
    out[nz] = Z / np.abs(Z)
    return out


@pytest.mark.parametrize("special", [None, 0.0, 1e-310, 2.0 ** -1001, np.nan,
                                     np.inf, complex(-np.inf, 1.0), complex(0, np.nan)])
def test_unit_phases_match_the_masked_path_bit_for_bit(special):
    rng = np.random.default_rng(11)
    for shape in [(7,), (1,), (5, 5), (6, 1, 9), (6, 9, 1), (3, 4, 4)]:
        for scale in (1.0, 2.0 ** 600, 2.0 ** -600, 2.0 ** -1060):
            Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
            for M in (Z, Z.T, Z[..., ::-1], Z.real + 0j):
                M = np.array(M, order="K")
                if special is not None:
                    M.flat[rng.integers(M.size)] = special
                with np.errstate(invalid="ignore"):  # inf / inf is NaN either way
                    got, want = unit_phases(M), masked_phases(M)
                assert got.shape == want.shape and got.strides == want.strides
                assert got.tobytes() == want.tobytes()
    z = 3.0 - 4.0j if special is None else special
    with np.errstate(invalid="ignore"):
        got, want = unit_phases(z), masked_phases(z)
    assert got.shape == want.shape == () and got.tobytes() == want.tobytes()
