import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzkit.core import (
    INF,
    InputError,
    NormBracket,
    SchattenIndex,
    as_index,
    as_matrix,
    conjugate_index,
    exact_bracket,
    kron,
    matrix_unit,
    random_matrix,
    schatten_norm,
    schur_product,
    trace_pairing,
    truncate,
)

RNG = np.random.default_rng(7)


def test_index_endpoints_exact():
    assert conjugate_index(1.0) == INF
    assert conjugate_index(INF).value == 1.0
    assert conjugate_index(2.0).value == 2.0
    # float conjugation of 2 must not produce 1.9999999...
    assert conjugate_index(2.0)._finite == 2.0


def test_index_conjugate_involution():
    # bit-exact at the special-cased points, float-exact elsewhere
    for p in (1.0, 2.0, math.inf):
        pi = as_index(p)
        assert pi.conjugate().conjugate() == pi
    for p in (1.25, 1.5, 3.0, 7.5):
        back = as_index(p).conjugate().conjugate()
        assert back.value == pytest.approx(p, rel=1e-15)


def test_index_none_means_infinity():
    assert SchattenIndex(None).is_inf
    assert as_index(None) == INF


def test_index_rejects_bad_values():
    with pytest.raises(InputError):
        SchattenIndex(0.5)
    with pytest.raises(InputError):
        SchattenIndex(float("nan"))


def test_schatten_norm_against_numpy():
    A = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    s = np.linalg.svd(A, compute_uv=False)
    assert schatten_norm(A, INF) == pytest.approx(s[0], rel=1e-13)
    assert schatten_norm(A, 1) == pytest.approx(np.sum(s), rel=1e-13)
    assert schatten_norm(A, 2) == pytest.approx(np.linalg.norm(A), rel=1e-13)
    assert schatten_norm(A, 3) == pytest.approx(np.sum(s ** 3) ** (1 / 3), rel=1e-13)


def test_schatten_norm_unitary_invariance():
    A = RNG.normal(size=(5, 5))
    U = np.linalg.qr(RNG.normal(size=(5, 5)))[0]
    for p in (1, 1.7, 2, 4, INF):
        assert schatten_norm(U @ A, p) == pytest.approx(schatten_norm(A, p), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.0, max_value=20.0))
def test_schatten_norm_monotone_in_p(p):
    # p-norms of a fixed matrix decrease as p grows
    A = np.array([[1.0, 2.0], [0.5, -1.5]], dtype=complex)
    q = p + 0.5
    assert schatten_norm(A, q) <= schatten_norm(A, p) + 1e-12


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4, INF])
@pytest.mark.parametrize("k", [-1000, -500, 0, 400, 1000])
def test_schatten_norm_scales_across_float_range(p, k):
    # powering raw singular values overflows at 2^400 and underflows at 2^-500
    H = np.array([[1, 1], [1, -1]], dtype=complex)
    want = 2.0 ** k * schatten_norm(H, p)
    assert schatten_norm(H * 2.0 ** k, p) == pytest.approx(want, rel=1e-15)


def test_schur_product_and_pairing():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    B = np.array([[5, 6], [7, 8]], dtype=complex)
    np.testing.assert_allclose(schur_product(A, B), A * B)
    # bilinear pairing, no conjugation
    assert trace_pairing(A, B) == pytest.approx(5 + 12 + 21 + 32)


def test_kron_pair_index_convention():
    # entry of A (x) B at row (i,k), col (j,l) is a_ij * b_kl
    A = RNG.normal(size=(3, 3)) + 0j
    B = RNG.normal(size=(3, 3)) + 0j
    K = kron(A, B)
    for i, j, k, l in ((0, 2, 1, 1), (2, 0, 2, 1)):
        assert K[i * 3 + k, j * 3 + l] == pytest.approx(A[i, j] * B[k, l])


def test_truncate_keeps_only_listed_rows_cols():
    A = np.arange(16, dtype=float).reshape(4, 4) + 0j
    T = truncate(A, [0, 2])
    assert T[0, 0] == 0 and T[0, 2] == 2 and T[2, 2] == 10
    assert T[1, 1] == 0 and T[3, 3] == 0 and T[0, 1] == 0


def test_matrix_unit():
    E = matrix_unit(1, 2, 3)
    assert E.shape == (3, 3)
    assert E[1, 2] == 1 and np.sum(np.abs(E)) == 1


def test_random_matrix_deterministic_and_ensembles():
    a = random_matrix(4, ensemble="gaussian", seed=11)
    b = random_matrix(4, ensemble="gaussian", seed=11)
    np.testing.assert_array_equal(a, b)
    u = random_matrix(4, ensemble="unitary", seed=3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    s = random_matrix(4, ensemble="sign", seed=5)
    assert set(np.unique(s.real)) <= {-1.0, 1.0}
    with pytest.raises(InputError):
        random_matrix(3, ensemble="bogus", seed=0)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        as_matrix(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_norm_bracket_orders_endpoints():
    b = NormBracket(1.0, 2.0, {"kind": "x"}, {"kind": "y"})
    assert b.width == 1.0 and b.midpoint == 1.5
    assert b.contains(1.5) and not b.contains(3.0)
    with pytest.raises(InputError):
        NormBracket(2.0, 1.0, {}, {})


def test_exact_bracket_zero_width():
    b = exact_bracket(4.0, "closed-form", detail="test")
    assert b.lower == b.upper == 4.0
    assert b.converged
