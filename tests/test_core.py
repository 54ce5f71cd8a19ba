import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzkit.core import (
    INF,
    MAX_COUNT,
    MAX_DIM,
    InputError,
    NormBracket,
    ResourceError,
    SchattenIndex,
    as_index,
    as_matrix,
    conjugate_index,
    exact_bracket,
    kron,
    matrix_unit,
    random_matrix,
    schatten_norm,
    trace_pairing,
    truncate,
)
from herzkit.ascent import AscentOptions, norm_ascent
from herzkit.gamma2 import gamma2
from herzkit.herz import HerzDecomposition, herz_norm
from herzkit.isometry import (classify_isometric, dft_decompose, isometry_forward_check,
                              isometry_witness_search, sign_average_entry)
from herzkit.multipliers import LinearOperatorOnSp, averaging_projection_grid, cb_norm_ladder
from herzkit.structure import (diag_embed, product_symbol, verify_diag_embed_diagram,
                               verify_product_diagram)
from herzkit.verify import run_suite

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


def test_index_refuses_what_is_not_a_number():
    for bad in ("two", [1.5], 1 + 0j):
        with pytest.raises(InputError, match="must be a number"):
            as_index(bad)


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


@pytest.mark.parametrize("p", [1, 1.5, 2, INF])
def test_schatten_norm_beyond_float_range_is_input_error(p):
    # the entry's modulus overflows, so its one singular value does too
    with pytest.raises(InputError, match="float range"):
        schatten_norm(np.array([[1.7976931348623157e308 * (1 + 1j)]]), p)
    big = 1.5e308 * np.eye(2)
    if p == INF:
        assert schatten_norm(big, p) == 1.5e308
    else:  # 1.5e308 * 2^(1/p) overflows
        with pytest.raises(InputError, match="float range"):
            schatten_norm(big, p)


def test_schur_product_and_pairing():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    B = np.array([[5, 6], [7, 8]], dtype=complex)
    # bilinear pairing, no conjugation: the sum of the Schur product A * B
    assert trace_pairing(A, B) == np.sum(A * B) == 5 + 12 + 21 + 32


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


SQUARE_INPUTS = {
    "norm_ascent": lambda X: norm_ascent(X, 3),
    "herz_norm": lambda X: herz_norm(X, 1.5),
    "HerzDecomposition.build": lambda X: HerzDecomposition.build(1.5, [(X, X)]),
    "gamma2": gamma2,
    "LinearOperatorOnSp": LinearOperatorOnSp,
    "LinearOperatorOnSp.from_multiplier": LinearOperatorOnSp.from_multiplier,
    "cb_norm_ladder": lambda X: cb_norm_ladder(X, 3, 1),
    "product_symbol": product_symbol,
    "diag_embed": diag_embed,
    "verify_product_diagram": verify_product_diagram,
    "verify_diag_embed_diagram": verify_diag_embed_diagram,
    "classify_isometric": lambda X: classify_isometric(X, 3),
    "isometry_witness_search": lambda X: isometry_witness_search(X, 3),
    "dft_decompose": dft_decompose,
    "truncate": lambda X: truncate(X, [0]),
}


@pytest.mark.parametrize("who", sorted(SQUARE_INPUTS))
def test_entry_points_refuse_a_matrix_that_is_not_square(who):
    with pytest.raises(InputError, match=r"square matrix, got shape \(2, 3\)"):
        SQUARE_INPUTS[who](np.ones((2, 3)))


@pytest.mark.parametrize("who", ["classify_isometric", "isometry_witness_search",
                                 "dft_decompose"])
def test_isometry_entry_points_refuse_the_empty_matrix(who):
    with pytest.raises(InputError, match="requires a nonempty square matrix"):
        SQUARE_INPUTS[who](np.zeros((0, 0)))


def test_truncate_acts_on_each_matrix_of_a_stack():
    X = np.arange(18, dtype=complex).reshape(2, 3, 3)
    T = truncate(X, [0, 2])
    for k in range(2):
        np.testing.assert_array_equal(T[k], truncate(X[k], [0, 2]))
    with pytest.raises(InputError, match="out of range"):
        truncate(X, [3])


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
    with pytest.raises(InputError):  # the rounding slack is relative
        NormBracket(2e-300, 1e-300, {}, {})


def test_exact_bracket_zero_width():
    b = exact_bracket(4.0, "closed-form", detail="test")
    assert b.lower == b.upper == 4.0
    assert b.converged


# calls past the one range rule whose refusal no other test pins: the
# named count, size, seed or index is below its least value, above its
# cap, or not an integer; and a map that returns the wrong shape
OUT_OF_RANGE = {
    "random_matrix seed": (lambda: random_matrix(3, seed=-1), InputError),
    "random_matrix float seed": (lambda: random_matrix(3, seed=1.5), InputError),
    "random_matrix float n": (lambda: random_matrix(2.5), InputError),
    "AscentOptions float restarts": (lambda: AscentOptions(restarts=2.5), InputError),
    "run_suite float n": (lambda: run_suite("diagrams", n=3.0), InputError),
    "isometry_forward_check seed":
        (lambda: isometry_forward_check(np.ones(3), np.ones(3), 3, seed=-1), InputError),
    "verify_product_diagram seed":
        (lambda: verify_product_diagram(np.eye(2), seed=-1), InputError),
    "verify_product_diagram random_trials":
        (lambda: verify_product_diagram(np.eye(2), random_trials=-1), InputError),
    "verify_diag_embed_diagram random_trials":
        (lambda: verify_diag_embed_diagram(np.eye(2), random_trials=MAX_COUNT + 1),
         ResourceError),
    "cb_norm_ladder m_max":
        (lambda: cb_norm_ladder(np.zeros((0, 0)), 3, MAX_DIM + 1), ResourceError),
    "from_function negative n":
        (lambda: LinearOperatorOnSp.from_function(-1, lambda X: X), InputError),
    "from_function float n":
        (lambda: LinearOperatorOnSp.from_function(2.0, lambda X: X), InputError),
    "from_function n * n":
        (lambda: LinearOperatorOnSp.from_function(9, lambda X: X), ResourceError),
    "from_function returned shape":
        (lambda: LinearOperatorOnSp.from_function(3, lambda X: X[:2, :2]), InputError),
    "averaging_projection_grid float N":
        (lambda: averaging_projection_grid(LinearOperatorOnSp(np.eye(4)), 2.5), InputError),
    "averaging_projection_grid large N":
        (lambda: averaging_projection_grid(LinearOperatorOnSp(np.eye(4)), 10 ** 9),
         ResourceError),
    "truncate float index": (lambda: truncate(np.eye(3), [0.7, 2]), InputError),
    "truncate bool index": (lambda: truncate(np.eye(3), [True]), InputError),
    "truncate str index": (lambda: truncate(np.eye(3), ["1"]), InputError),
    "truncate negative index": (lambda: truncate(np.eye(3), [-1]), InputError),
    "sign_average_entry float i0":
        (lambda: sign_average_entry(np.eye(2), np.ones(2), np.ones(2), 1.5, 0), InputError),
    "sign_average_entry bool i0":
        (lambda: sign_average_entry(np.eye(2), np.ones(2), np.ones(2), True, 0), InputError),
    "sign_average_entry negative j0":
        (lambda: sign_average_entry(np.eye(2), np.ones(2), np.ones(2), 0, -1), InputError),
}


@pytest.mark.parametrize("call", sorted(OUT_OF_RANGE))
def test_out_of_range_counts_and_seeds_are_refused_before_any_draw(monkeypatch, call):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the range")

    run, error = OUT_OF_RANGE[call]
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(error, match=call.split()[-1]):
        run()
