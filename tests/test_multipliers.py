import numpy as np
import pytest

from herzkit.ascent import AscentOptions
from herzkit.core import INF, InputError, ResourceError, random_matrix, schatten_norm
from herzkit.multipliers import (
    LinearOperatorOnSp,
    averaging_projection,
    averaging_projection_grid,
    cb_norm_ladder,
    inclusion_monotonicity_report,
    multiplier_norm,
)

FAST = AscentOptions(restarts=4, max_iter=80, seed=0)


@pytest.mark.parametrize("k", [-1000, -500, 0, 400, 1000])
def test_interior_bracket_never_crosses_at_any_scale(k):
    H = np.array([[1, 1], [1, -1]], dtype=complex) * 2.0 ** k
    b = multiplier_norm(H, 3, opts=FAST)
    assert b.lower <= b.upper
    # the sign pattern meets the interpolation bound 2^(1/6)
    assert b.lower == pytest.approx(2.0 ** (1 / 6) * 2.0 ** k, rel=1e-12)


def test_p2_norm_is_max_modulus_exactly():
    rng = np.random.default_rng(3)
    for t in range(30):
        n = int(rng.integers(1, 7))
        A = random_matrix(n, ensemble="gaussian", seed=200 + t)
        b = multiplier_norm(A, 2)
        assert b.lower == b.upper == np.max(np.abs(A))


def test_endpoint_uses_factorization_norm():
    # diagonal symbol: multiplier norm at p = oo is the largest modulus
    D = np.diag([3.0, -1.0, 2.0]) + 0j
    b = multiplier_norm(D, INF, opts=FAST)
    assert b.lower <= 3.0 + 1e-9
    assert b.upper >= 3.0 - 1e-9
    assert b.upper - b.lower <= 1e-4


def test_general_p_bracket_contains_witnessed_ratio():
    A = random_matrix(3, ensemble="gaussian", seed=9)
    b = multiplier_norm(A, 4.0, opts=FAST)
    W = b.lower_certificate.get("matrix")
    assert W is not None
    ratio = schatten_norm(A * W, 4.0) / schatten_norm(W, 4.0)
    assert ratio >= b.lower - 1e-9
    assert b.lower <= b.upper + 1e-9


def test_duality_brackets_overlap():
    A = random_matrix(3, ensemble="gaussian", seed=17)
    for p in (1.5, 3.0, 1.0):
        b1 = multiplier_norm(A, p, opts=FAST, gamma2_tol=1e-5)
        b2 = multiplier_norm(A, np.inf if p == 1.0 else p / (p - 1),
                             opts=FAST, gamma2_tol=1e-5)
        assert b1.lower <= b2.upper + 1e-6
        assert b2.lower <= b1.upper + 1e-6


def test_interpolation_upper_between_endpoints():
    A = random_matrix(3, ensemble="sign", seed=21)
    b2 = multiplier_norm(A, 2)
    binf = multiplier_norm(A, INF, opts=FAST, gamma2_tol=1e-5)
    b4 = multiplier_norm(A, 4.0, opts=FAST, gamma2_tol=1e-5)
    assert b4.upper <= binf.upper + 1e-6
    assert b4.upper >= b2.upper - 1e-9


def test_ladder_monotone_and_capped():
    A = random_matrix(3, ensemble="gaussian", seed=33)
    levels = cb_norm_ladder(A, 1.5, 3, opts=FAST, gamma2_tol=1e-4)
    lowers = [b.lower for b in levels]
    assert all(lowers[i] <= lowers[i + 1] + 1e-12 for i in range(len(lowers) - 1))
    from herzkit.gamma2 import gamma2
    g2, _ = gamma2(A, tol=1e-5)
    assert all(b.lower <= g2.upper + 1e-6 for b in levels)
    assert all(b.upper <= g2.upper + 1e-6 for b in levels)


def test_ladder_constant_at_p2():
    A = random_matrix(4, ensemble="gaussian", seed=35)
    levels = cb_norm_ladder(A, 2, 4)
    vals = {(b.lower, b.upper) for b in levels}
    assert len(vals) == 1
    assert levels[0].lower == np.max(np.abs(A))


def test_ladder_resource_cap():
    A = np.eye(33, dtype=complex)
    with pytest.raises(ResourceError):
        cb_norm_ladder(A, 3.0, 2)


def test_operator_rep_roundtrip():
    A = random_matrix(3, ensemble="gaussian", seed=40)
    T = LinearOperatorOnSp.from_multiplier(A)
    B = random_matrix(3, ensemble="gaussian", seed=41)
    np.testing.assert_allclose(T(B), A * B, atol=1e-14)
    T2 = LinearOperatorOnSp.from_function(3, lambda X: A * X)
    np.testing.assert_allclose(T2.rep, T.rep, atol=1e-14)


def test_averaging_projection_exact_on_multipliers():
    A = random_matrix(3, ensemble="gaussian", seed=44)
    T = LinearOperatorOnSp.from_multiplier(A)
    np.testing.assert_array_equal(averaging_projection(T), A)


def test_averaging_projection_idempotent():
    rng = np.random.default_rng(50)
    R = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    D = averaging_projection(LinearOperatorOnSp(R))
    D2 = averaging_projection(LinearOperatorOnSp.from_multiplier(D))
    np.testing.assert_array_equal(D, D2)


def test_averaging_grid_matches_closed_form():
    rng = np.random.default_rng(51)
    R = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    T = LinearOperatorOnSp(R)
    D = averaging_projection(T)
    for N in (3, 6):
        G = averaging_projection_grid(T, N)
        np.testing.assert_allclose(G, D, atol=1e-10)
    with pytest.raises(InputError):
        averaging_projection_grid(T, 2)


def test_monotonicity_report_and_domain():
    A = random_matrix(3, ensemble="gaussian", seed=60)
    rep = inclusion_monotonicity_report(A, (1.0, 1.5, 2.0), opts=FAST)
    assert rep.passed
    assert len(rep.pairs) == 3
    with pytest.raises(InputError):
        inclusion_monotonicity_report(A, (1.0, 3.0))


def test_zero_symbol_short_circuits():
    b = multiplier_norm(np.zeros((3, 3)), 1.7)
    assert b.lower == b.upper == 0.0
