import numpy as np
import pytest

import herzkit.structure
from herzkit.core import InputError, kron, matrix_unit, schatten_norm, trace_pairing
from herzkit.structure import (
    MAX_DIAGRAM_DIM,
    base_dim,
    column_splice,
    diag_embed,
    diag_mask,
    diag_slice,
    partial_isometry_check,
    product_symbol,
    row_splice,
    splice_adjoint_defect,
    verify_diag_embed_diagram,
    verify_product_diagram,
)

RNG = np.random.default_rng(23)


def _unit_pair(i, j, k, l, n):
    """e_ij (x) e_kl on the doubled index space."""
    return kron(matrix_unit(i, j, n), matrix_unit(k, l, n))


def test_base_dim_validates():
    assert base_dim(np.zeros((9, 9))) == 3
    with pytest.raises(InputError):
        base_dim(np.zeros((8, 8)))


def test_column_splice_on_unit_pair():
    # e_12 (x) e_33 -> e_13 (x) e_32 in 1-indexed terms
    n = 3
    X = _unit_pair(0, 1, 2, 2, n)
    expected = _unit_pair(0, 2, 2, 1, n)
    np.testing.assert_array_equal(column_splice(X), expected)


def test_row_splice_on_unit_pair():
    # e_12 (x) e_23 -> e_13 (x) e_22 in 1-indexed terms
    n = 3
    Y = _unit_pair(0, 1, 1, 2, n)
    expected = _unit_pair(0, 2, 1, 1, n)
    np.testing.assert_array_equal(row_splice(Y), expected)


def test_splices_are_mutually_adjoint():
    n = 3
    for t in range(20):
        X = RNG.normal(size=(n * n, n * n)) + 1j * RNG.normal(size=(n * n, n * n))
        Y = RNG.normal(size=(n * n, n * n)) + 1j * RNG.normal(size=(n * n, n * n))
        assert splice_adjoint_defect(X, Y) <= 1e-13


def test_splices_contract_schatten_norms():
    n = 3
    for p in (1, 1.5, 2, 3, np.inf):
        for t in range(10):
            X = RNG.normal(size=(n * n, n * n)) + 1j * RNG.normal(size=(n * n, n * n))
            base = schatten_norm(X, p)
            assert schatten_norm(column_splice(X), p) <= base + 1e-9
            assert schatten_norm(row_splice(X), p) <= base + 1e-9


def test_product_symbol_entries():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    D = product_symbol(A)
    n = 2
    # entry at row (t, r), col (r, s) is a_ts; zero elsewhere
    for t in range(n):
        for r in range(n):
            for u in range(n):
                for s in range(n):
                    want = A[t, s] if r == u else 0.0
                    assert D[t * n + r, u * n + s] == want


def test_diag_embed_slice_roundtrip_and_mask():
    A = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    E = diag_embed(A)
    np.testing.assert_array_equal(diag_slice(E), A)
    # embedded copy occupies only diagonal-pair positions
    M = diag_mask(3)
    np.testing.assert_array_equal(M * E, E)
    # embedding is a norm-preserving relocation
    for p in (1, 2, 4, np.inf):
        assert schatten_norm(E, p) == pytest.approx(schatten_norm(A, p), abs=1e-12)


def test_diag_mask_is_rank_one_indicator():
    M = diag_mask(3)
    chi = np.zeros(9)
    chi[[0, 4, 8]] = 1.0
    np.testing.assert_array_equal(M, np.outer(chi, chi))


def test_product_diagram_passes_with_failing_control():
    for seed in (0, 1):
        A = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        rep = verify_product_diagram(A, random_trials=16, seed=seed)
        assert rep.passed
        assert rep.max_deviation <= 1e-12
        assert rep.control_failed_as_expected


def test_diag_embed_diagram_passes_with_failing_control():
    A = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    rep = verify_diag_embed_diagram(A, random_trials=16, seed=4)
    assert rep.passed
    assert rep.max_deviation <= 1e-12
    assert rep.control_failed_as_expected


def test_diagram_dimension_cap():
    A = np.zeros((MAX_DIAGRAM_DIM + 1, MAX_DIAGRAM_DIM + 1), dtype=complex)
    with pytest.raises(Exception):
        verify_product_diagram(A)


def test_partial_isometry_rank_is_n_cubed():
    for n in (2, 3):
        rep = partial_isometry_check(n)
        assert rep.passed
        assert rep.rank == n ** 3
        assert rep.rrr_defect == 0.0


def test_column_splice_intertwines_product_symbol():
    # the identity behind the product diagram, checked directly once
    n = 3
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    X = RNG.normal(size=(n * n, n * n)) + 1j * RNG.normal(size=(n * n, n * n))
    amp = kron(A, np.ones((n, n)))
    lhs = product_symbol(A) * X
    rhs = column_splice(amp * row_splice(X))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_trace_pairing_matches_splice_adjointness_definition():
    n = 2
    X = RNG.normal(size=(4, 4)) + 0j
    Y = RNG.normal(size=(4, 4)) + 0j
    lhs = trace_pairing(column_splice(X), Y)
    rhs = trace_pairing(X, row_splice(Y))
    assert lhs == pytest.approx(rhs, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maps_on_a_stack_equal_the_maps_one_matrix_at_a_time(n):
    X = RNG.normal(size=(2, 3, n * n, n * n)) + 1j * RNG.normal(size=(2, 3, n * n, n * n))
    Y = RNG.normal(size=X.shape) + 1j * RNG.normal(size=X.shape)
    A = RNG.normal(size=(2, 3, n, n)) + 1j * RNG.normal(size=(2, 3, n, n))
    for f, S in ((column_splice, X), (row_splice, X), (diag_slice, X), (diag_embed, A)):
        stacked = f(S)
        for idx in np.ndindex(S.shape[:-2]):
            np.testing.assert_array_equal(stacked[idx], f(S[idx]))
    stacked = splice_adjoint_defect(X, Y)
    for idx in np.ndindex(X.shape[:-2]):
        assert stacked[idx] == splice_adjoint_defect(X[idx], Y[idx])


@pytest.mark.parametrize("bad", [np.zeros((2, 9, 8)), np.zeros((2, 8, 8)), np.zeros(9),
                                 np.full((2, 9, 9), np.nan)])
def test_stacks_keep_the_doubled_index_validation(bad):
    with pytest.raises(InputError):
        column_splice(bad)


def test_partial_isometry_check_runs_the_shipped_splice(monkeypatch):
    splice = herzkit.structure.column_splice

    def drops_one_entry(X):
        out = splice(X)
        out[..., 0, 0] = 0.0
        return out

    monkeypatch.setattr(herzkit.structure, "column_splice", drops_one_entry)
    rep = partial_isometry_check(3)
    assert not rep.passed
    assert rep.rank == 3 ** 3 - 1
