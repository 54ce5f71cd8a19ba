import math
import time

import numpy as np
import pytest

from herzkit.core import INF, MAX_DIM, InputError, ldexp, random_matrix, schatten_norm
from herzkit.gamma2 import (
    Gamma2Certificate,
    _solve,
    check_certificate,
    gamma2,
)

H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
WIDTH_TOL = 1e-4


def h2_factorization_grid_oracle():
    """Independent value for the factorization norm of the 2x2 sign matrix.

    Upper: scan the one-angle family of unit factor rows
    u = (angles c, 3c), v = (angles 0, 2c); the Gram pattern matches the
    sign matrix exactly where cos 3c = -cos c, and the realized value is
    1 / |cos c| there.  Lower: the duality ratio ||H o B||_oo / ||B||_oo
    at the explicit test matrix B = H.  Both sides are solver-free.
    """
    c = np.linspace(0.01, np.pi - 0.01, 200001)
    residual = np.abs(np.cos(3 * c) + np.cos(c))
    feasible = np.abs(np.cos(c)) > 0.1
    idx = np.argmin(np.where(feasible, residual, np.inf))
    upper = 1.0 / abs(np.cos(c[idx]))

    sv = np.linalg.svd(H2 * H2, compute_uv=False)[0]
    lower = sv / np.linalg.svd(H2, compute_uv=False)[0]
    assert abs(upper - lower) < 1e-4, "oracle sides disagree"
    return lower, upper


def test_h2_matches_independent_grid_oracle():
    lo, up = h2_factorization_grid_oracle()
    bracket, cert = gamma2(H2, tol=1e-6)
    assert bracket.lower == pytest.approx(lo, abs=1e-3)
    assert bracket.upper == pytest.approx(up, abs=1e-3)
    assert check_certificate(H2, cert).ok


def test_rank_one_unimodular_has_norm_one():
    rng = np.random.default_rng(5)
    a = np.exp(2j * np.pi * rng.random(4))
    b = np.exp(2j * np.pi * rng.random(4))
    bracket, cert = gamma2(np.outer(a, b), tol=1e-6)
    assert bracket.lower == pytest.approx(1.0, abs=1e-6)
    assert bracket.upper == pytest.approx(1.0, abs=1e-6)
    assert check_certificate(np.outer(a, b), cert).ok


def test_all_ones_has_norm_one():
    J = np.ones((3, 3), dtype=complex)
    bracket, cert = gamma2(J, tol=1e-6)
    # witnessed ratios may sit a rounding error above the true value
    assert bracket.lower <= 1.0 + 1e-9
    assert bracket.upper >= 1.0 - 1e-9
    assert bracket.upper - bracket.lower <= 1e-5
    assert check_certificate(J, cert).ok


def test_bracket_width_meets_target_on_random_matrices():
    rng = np.random.default_rng(11)
    for t in range(12):
        n = int(rng.integers(2, 7))
        A = random_matrix(n, ensemble="gaussian", seed=100 + t)
        bracket, cert = gamma2(A, tol=WIDTH_TOL)
        width = bracket.upper - bracket.lower
        assert width <= WIDTH_TOL * (1 + bracket.upper)
        assert check_certificate(A, cert).ok


def test_zero_matrix_is_exact():
    bracket, cert = gamma2(np.zeros((3, 3)))
    assert bracket.lower == bracket.upper == 0.0
    assert check_certificate(np.zeros((3, 3)), cert).ok


def test_certificate_tampering_is_detected():
    J = np.ones((2, 2), dtype=complex)
    bracket, cert = gamma2(J, tol=1e-6)
    assert check_certificate(J, cert).ok

    # inflate a diagonal entry of P above the cap
    P_bad = cert.P.copy()
    P_bad[0, 0] = cert.t + 1.0
    bad = Gamma2Certificate(cert.t, P_bad, cert.Q, cert.min_eig, cert.dual_witness)
    res = check_certificate(J, bad)
    assert not res.ok
    assert any("cap" in r or "diag" in r for r in res.reasons)

    # lie about the eigenvalue floor
    bad2 = Gamma2Certificate(cert.t, -np.eye(2) + 0j, cert.Q, -1.0, None)
    assert not check_certificate(J, bad2).ok


def test_certificate_check_never_raises_on_garbage():
    J = np.ones((2, 2), dtype=complex)
    junk = Gamma2Certificate(1.0, np.zeros((3, 3)), np.zeros((2, 2)), 0.0, None)
    res = check_certificate(J, junk)
    assert not res.ok


def test_certificate_check_fails_on_a_symbol_that_is_not_square():
    # a 2 x 3 symbol cannot sit in the PSD block; the check says so
    I = np.eye(2, dtype=complex)
    res = check_certificate(np.ones((2, 3)), Gamma2Certificate(1.0, I, I, 0.0, I))
    assert not res.ok
    assert res.reasons == [
        "symbol: check_certificate requires a square matrix, got shape (2, 3)"]


def test_dimension_cap_enforced():
    big = np.zeros((MAX_DIM + 1, MAX_DIM + 1))
    big[0, 0] = 1.0
    with pytest.raises(Exception):
        gamma2(big)


def test_scaling_homogeneity():
    A = random_matrix(3, ensemble="gaussian", seed=42)
    b1, _ = gamma2(A, tol=1e-5)
    b2, _ = gamma2(2.5 * A, tol=1e-5)
    assert b2.midpoint == pytest.approx(2.5 * b1.midpoint, rel=1e-3)


def test_hermitian_conjugation_invariance():
    A = random_matrix(3, ensemble="gaussian", seed=43)
    b1, _ = gamma2(A, tol=1e-5)
    b2, _ = gamma2(A.conj().T, tol=1e-5)
    assert b1.midpoint == pytest.approx(b2.midpoint, rel=1e-3)


@pytest.mark.parametrize("A", [
    np.diag([1.0, 0.0, 0.0]),
    np.array([[1, 0, 0], [0.5, 0, 0], [-0.25j, 0, 0]]),
    np.array([[0, 0, 0], [1, 2, 0], [0, 0, 0]]),
], ids=["diag-100", "one-column", "one-row"])
def test_zero_rows_and_columns_are_exact(A):
    bracket, cert = gamma2(A, tol=1e-6)
    assert bracket.lower == np.max(np.abs(A))
    assert bracket.upper - bracket.lower <= 1e-12 * bracket.upper
    assert check_certificate(A, cert).ok


def test_n32_sign_converges():
    A = random_matrix(32, ensemble="sign", seed=3)
    bracket, cert = gamma2(A, tol=1e-4)
    assert bracket.converged
    assert check_certificate(A, cert).ok


def test_repeat_calls_bit_identical():
    A = random_matrix(8, ensemble="sparse", seed=4)
    (b1, c1), (b2, c2) = gamma2(A, tol=1e-6), gamma2(A, tol=1e-6)
    assert (b1.lower, b1.upper, b1.iterations) == (b2.lower, b2.upper, b2.iterations)
    np.testing.assert_array_equal(c1.P, c2.P)
    np.testing.assert_array_equal(c1.dual_witness, c2.dual_witness)


@pytest.mark.parametrize("seed", range(4))
def test_stored_witness_reproduces_lower_bound(seed):
    A = random_matrix(6, ensemble="gaussian", seed=seed)
    bracket, cert = gamma2(A, tol=1e-6)
    B = cert.dual_witness
    assert schatten_norm(B, INF) <= 1 + 1e-12
    assert schatten_norm(A * B, INF) >= bracket.lower - 1e-12
    np.testing.assert_array_equal(bracket.lower_certificate["matrix"], B)


@pytest.mark.parametrize("entry, reason", [
    # finite, but its norm is NaN, not a number <= 1
    (1.7976931348623157e308 * (1 + 1j), "dual witness has ||B||_oo = nan"),
    (complex(np.nan, 0.0), "dual witness entries must be finite"),
    (complex(np.inf, 0.0), "dual witness entries must be finite"),
], ids=["max-float", "nan", "inf"])
def test_overflowing_witness_fails_without_raising(entry, reason):
    J = np.ones((2, 2), dtype=complex)
    _, cert = gamma2(J, tol=1e-6)
    W = np.zeros((2, 2), dtype=complex)
    W[0, 0] = entry
    res = check_certificate(J, Gamma2Certificate(cert.t, cert.P, cert.Q, cert.min_eig, W))
    assert not res.ok
    assert res.reasons[0].startswith(reason)


def test_missing_witness_is_named():
    J = np.ones((2, 2), dtype=complex)
    _, cert = gamma2(J, tol=1e-6)
    bare = Gamma2Certificate(cert.t, cert.P, cert.Q, cert.min_eig, None)
    res = check_certificate(J, bare)
    assert not res.ok
    assert res.reasons == ["dual witness missing"]


def test_n32_sign_converges_in_few_sweeps():
    # the plain rebalancing took 65 sweeps here, Anderson acceleration 16
    bracket, cert = gamma2(random_matrix(32, ensemble="sign", seed=1), tol=1e-6)
    assert bracket.converged
    assert bracket.iterations <= 30


def sylvester(n):
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H.astype(complex)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["hadamard", "identity", "ones", "rank-one"])
def test_brackets_contain_known_values(kind, n):
    rng = np.random.default_rng(n)
    A, value = {
        "hadamard": (sylvester(n), math.sqrt(n)),
        "identity": (np.eye(n, dtype=complex), 1.0),
        "ones": (np.ones((n, n), dtype=complex), 1.0),
        "rank-one": (np.outer(np.exp(2j * np.pi * rng.random(n)),
                              np.exp(2j * np.pi * rng.random(n))), 1.0),
    }[kind]
    bracket, cert = gamma2(A, tol=1e-6)
    slack = 1e-8 * value
    assert bracket.lower - slack <= value <= bracket.upper + slack
    assert bracket.converged
    assert check_certificate(A, cert).ok


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
@pytest.mark.parametrize("ensemble", ["gaussian", "sign", "sparse", "unitary"])
def test_certificates_hold_at_every_scale(ensemble, n):
    A = random_matrix(n, ensemble=ensemble, seed=n)
    sweeps = set()
    for e in (0, 600, -600):
        As = np.ldexp(A.real, e) + 1j * np.ldexp(A.imag, e)
        bracket, cert = gamma2(As, tol=1e-6)
        res = check_certificate(As, cert)
        assert res.ok, res.reasons
        assert bracket.lower <= bracket.upper
        sweeps.add(bracket.iterations)
    # the solve runs on the symbol scaled by a power of two, so the sweeps
    # do not depend on the scale
    assert len(sweeps) == 1


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("ensemble", ["gaussian", "sign", "sparse", "unitary"])
def test_certificates_hold_at_subnormal_scale(ensemble, n):
    # scaled back to 2**-1060, P, Q, t and min_eig fall on the subnormal
    # grid, about 2**-15 of the symbol apart
    A = ldexp(random_matrix(n, ensemble=ensemble, seed=1), -1060)
    bracket, cert = gamma2(A)
    res = check_certificate(A, cert)
    assert res.ok, res.reasons
    assert 0.0 < bracket.lower <= bracket.upper == cert.t
    bad = Gamma2Certificate(0.5 * cert.t, cert.P, cert.Q, cert.min_eig, cert.dual_witness)
    assert not check_certificate(A, bad).ok


def test_norm_beyond_float_range_is_input_error():
    # entries near the top of the range: the scale-back overflows, which is
    # reported as an InputError and not as an overflow warning
    A = random_matrix(8, ensemble="gaussian", seed=1)
    with pytest.raises(InputError, match="float range"):
        gamma2(A / np.max(np.abs(A)) * 1.7e308)


@pytest.mark.parametrize("k", [600, 0, -20, -40, -600])
@pytest.mark.parametrize("symbol", ["hadamard-4", "gaussian-5", "sparse-6"])
def test_lowered_t_is_refused_at_every_scale(symbol, k):
    # every slack is relative to the symbol, so a certificate for half or
    # none of gamma2 fails however small the symbol is
    kind, n = symbol.split("-")
    A = sylvester(int(n)) if kind == "hadamard" else random_matrix(int(n), ensemble=kind, seed=3)
    A = np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)
    _, cert = gamma2(A, tol=1e-6)
    assert check_certificate(A, cert).ok
    for t in (0.5 * cert.t, 0.0):
        bad = Gamma2Certificate(t, cert.P, cert.Q, cert.min_eig, cert.dual_witness)
        assert not check_certificate(A, bad).ok


@pytest.mark.parametrize("n", [3, 8, 16, 32])
@pytest.mark.parametrize("ensemble", ["gaussian", "sign", "unitary"])
def test_sweeps_do_not_depend_on_the_presentation(ensemble, n):
    # permuted, rephased and transposed copies have the same gamma2 but
    # round differently; the sweeps must not amplify that rounding into a
    # different path, a different stop or a different bracket width
    A = random_matrix(n, ensemble=ensemble, seed=n)
    rng = np.random.default_rng(n)
    copies = [A]
    for _ in range(5):
        d1, d2 = np.exp(2j * np.pi * rng.random((2, n)))
        B = (d1[:, None] * A * d2)[np.ix_(rng.permutation(n), rng.permutation(n))]
        copies.append(B.T if rng.random() < 0.5 else B)
    sweeps, widths = set(), []
    for B in copies:
        bracket, _ = gamma2(B, tol=1e-6)
        sweeps.add(bracket.iterations)
        widths.append(max(bracket.upper - bracket.lower, 1e-12 * bracket.upper))
    assert len(sweeps) == 1
    assert max(widths) <= 1.01 * min(widths), widths


def test_diagonally_dominant_case_tightens():
    # gamma2 here is the largest entry, reached only as the weights
    # concentrate on one row and column; the plain rebalancing ran all
    # 2000 sweeps to relative width 1.13e-5
    G = np.random.default_rng(1).standard_normal((6, 6))
    A = 5 * np.eye(6) + 0.3 * G
    start = time.perf_counter()
    bracket, cert = gamma2(A, tol=1e-6)
    elapsed = time.perf_counter() - start
    width = (bracket.upper - bracket.lower) / bracket.upper
    assert width <= 1.13e-5, (width, bracket.iterations, elapsed)
    assert check_certificate(A, cert).ok


def shifted_certificate(A):
    """A certificate whose block is not PSD: P lowered by t/2 on the diagonal."""
    _, cert = gamma2(A, tol=1e-6)
    P = cert.P - 0.5 * cert.t * np.eye(A.shape[0])
    return Gamma2Certificate(cert.t, P, cert.Q, cert.min_eig, cert.dual_witness)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_tol_fails_the_check(tol):
    J = np.ones((2, 2), dtype=complex)
    bad = shifted_certificate(J)
    assert any("recomputed min_eig" in r for r in check_certificate(J, bad).reasons)
    for cert in (bad, gamma2(J, tol=1e-6)[1]):
        res = check_certificate(J, cert, tol=tol)
        assert not res.ok
        assert res.reasons == [f"tol must be finite and nonnegative, got {tol}"]


@pytest.mark.parametrize("width", [1e-7, 1e-3])
def test_a_wider_stop_ends_no_later_at_a_certified_upper_bound(width):
    # the sweep path does not depend on the stop width, so a wider stop
    # takes no more sweeps and certifies an upper bound no lower than the
    # default's, which check_certificate accepts
    earlier = 0
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for n in (3, 5, 8, 16):
            for seed in (1, 2):
                A = random_matrix(n, ensemble=ens, seed=seed)
                b0, _ = gamma2(A)
                b, cert = _solve(A, 1e-6, width)
                assert b.iterations <= b0.iterations
                assert b.upper >= b0.upper
                assert check_certificate(A, cert)
                earlier += b.iterations < b0.iterations
    assert earlier > 0
