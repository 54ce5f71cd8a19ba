"""Classification, witnesses, and the discrete-character decomposition."""

import numpy as np
import pytest

import herzkit.isometry as isometry_module
from herzkit.ascent import AscentOptions, norm_ascent
from herzkit.core import MAX_COUNT, InputError, ResourceError, random_matrix, schatten_norm
from herzkit.herz import HerzOptions, herz_norm
from herzkit.isometry import (
    classify_isometric,
    dft_decompose,
    isometry_forward_check,
    isometry_witness_search,
    sign_average_entry,
)

HADAMARD2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)


def rank_one_unimodular(n, seed):
    rng = np.random.default_rng(seed)
    a = np.exp(2j * np.pi * rng.random(n))
    b = np.exp(2j * np.pi * rng.random(n))
    return np.outer(a, b), a, b


def test_classify_accepts_rank_one_unimodular():
    for p in (1.0, 1.7, 3.0, 4.0, None):
        C, a, b = rank_one_unimodular(4, seed=11)
        v = classify_isometric(C, p)
        assert v.is_isometric
        assert v.reason == "rank_one_unimodular"
        # extracted factors reproduce the symbol up to a joint phase
        np.testing.assert_allclose(np.outer(v.a, v.b), C, atol=1e-10)


def test_classify_rejects_zero_entry():
    C = np.outer(np.ones(3), np.ones(3)).astype(complex)
    C[1, 2] = 0.0
    v = classify_isometric(C, 3)
    assert not v.is_isometric
    assert v.reason == "zero_entry"


def test_classify_rejects_hadamard_off_p2():
    v = classify_isometric(HADAMARD2, 4)
    assert not v.is_isometric
    assert v.reason == "not_rank_one_unimodular"
    assert v.rank_ratio > 0.9  # the two singular values tie


def test_classify_relaxes_rank_at_p2():
    v = classify_isometric(HADAMARD2, 2)
    assert v.is_isometric
    assert v.reason == "unimodular_entries"


def test_classify_reads_the_factors_off_the_corner():
    # an isometric symbol's factors are read off its (0, 0) corner, its row 0
    # and its column 0; their outer product gives the symbol back
    C, a, b = rank_one_unimodular(3, seed=21)
    v = classify_isometric(C, 3)
    assert v.is_isometric
    np.testing.assert_allclose(np.outer(v.a, v.b), C, atol=1e-10)


def test_forward_check_on_extracted_factors():
    C, a, b = rank_one_unimodular(3, seed=31)
    rep = isometry_forward_check(a, b, 1.5, trials=10, seed=0)
    assert rep.passed
    assert rep.max_ratio_deviation < 1e-10


def test_forward_check_rejects_non_unimodular():
    with pytest.raises(InputError):
        isometry_forward_check(np.array([1.0, 2.0]), np.ones(2), 3)


@pytest.mark.parametrize("trials, error", [(0, InputError), (-2, InputError),
                                           (MAX_COUNT + 1, ResourceError)])
def test_forward_check_refuses_trial_counts_before_any_draw(monkeypatch, trials, error):
    def no_draw(*args):
        raise AssertionError("test matrices were drawn")

    monkeypatch.setattr(isometry_module, "gaussians", no_draw)
    with pytest.raises(error):
        isometry_forward_check(np.ones(3), np.ones(3), 3, trials=trials)


def test_witness_search_separates_hadamard_at_p4():
    w = isometry_witness_search(HADAMARD2, 4, AscentOptions(restarts=6, seed=0))
    assert w.deviation >= 1e-3
    assert w.mode in ("entry", "up", "down")
    # frozen value: the ratio ascends to 2**(1/4)
    assert w.deviation == pytest.approx(2 ** 0.25 - 1, abs=1e-6)


@pytest.mark.parametrize("n, seed, p", [(8, 1, 4.0), (5, 2, 3.0), (4, 3, 1.5), (2, 1, 4.0)])
def test_sign_symbol_is_climbed_once(monkeypatch, n, seed, p):
    # 1/M equals M for a +-1 symbol, so the contraction hunt reuses the
    # expansion climb instead of repeating it
    M = random_matrix(n, ensemble="sign", seed=seed)
    opts = AscentOptions(restarts=8)
    climbed = []

    def counted(A, *args):
        climbed.append(A)
        return norm_ascent(A, *args)

    monkeypatch.setattr(isometry_module, "norm_ascent", counted)
    w = isometry_witness_search(M, p, opts)
    assert len(climbed) == 1
    # the climb on 1/M that used to run returns the same ascent ...
    up, down = norm_ascent(M, p, opts), norm_ascent(1.0 / M, p, opts)
    assert (down.value, down.iterations) == (up.value, up.iterations)
    np.testing.assert_array_equal(down.witness, up.witness)
    # ... whose contraction candidate never beat the expansion one, so the
    # witness is the one two climbs returned, byte for byte
    Bp = (1.0 / M) * down.witness
    assert 1.0 - schatten_norm(M * Bp, p) / schatten_norm(Bp, p) < up.value - 1.0
    assert w.mode == "up" and w.deviation == up.value - 1.0
    assert w.witness.tobytes() == up.witness.tobytes()


def test_witness_search_near_two_flag():
    w = isometry_witness_search(HADAMARD2, 2.05, AscentOptions(restarts=2, seed=0))
    assert w.near_two
    assert w.p_gap == pytest.approx(0.05)
    w4 = isometry_witness_search(HADAMARD2, 4, AscentOptions(restarts=2, seed=0))
    assert not w4.near_two


def test_dft_decompose_matches_fft_oracle():
    rng = np.random.default_rng(7)
    for t in range(6):
        n = int(rng.integers(2, 6))
        C = random_matrix(n, ensemble="gaussian", seed=600 + t)
        terms = dft_decompose(C)
        assert len(terms) == n * n
        coeffs = np.zeros((n, n), dtype=complex)
        for term in terms:
            coeffs[term.k, term.l] = term.coefficient
        np.testing.assert_allclose(coeffs, np.fft.fft2(C) / n ** 2, atol=1e-10)


def test_dft_terms_reconstruct_symbol():
    C = random_matrix(4, ensemble="gaussian", seed=610)
    terms = dft_decompose(C)
    got = np.zeros_like(C)
    for term in terms:
        got += term.coefficient * np.outer(term.a, term.b)
    np.testing.assert_allclose(got, C, atol=1e-10)


@pytest.mark.parametrize("scale", [1e308, -1e308, 1e-310])
def test_dft_decompose_across_the_float_range(scale):
    # the character sums overflow unless taken at a power-of-two scale
    terms = dft_decompose(scale * HADAMARD2)
    assert all(np.isfinite(t.coefficient) for t in terms)
    got = sum(t.coefficient / scale * np.outer(t.a, t.b) for t in terms)
    np.testing.assert_allclose(got, HADAMARD2, atol=1e-12)


def test_dft_coefficient_beyond_the_float_range_is_refused():
    # coefficient (1, 1) is (1 + sqrt 2) / 2 times the largest entry part
    U = np.exp(1j * np.pi / 4) ** np.add.outer(np.arange(8), np.arange(8))
    C = 1.79e308 * (np.sign(np.round(U.real, 6)) + 1j * np.sign(np.round(U.imag, 6)))
    with pytest.raises(InputError, match="float range"):
        dft_decompose(C)


def test_classify_refuses_a_norm_beyond_the_float_range():
    with pytest.raises(InputError, match="float range"):
        classify_isometric(np.finfo(float).max * HADAMARD2, 3)


def test_dft_factor_pairs_are_isometric_symbols():
    C = random_matrix(3, ensemble="gaussian", seed=611)
    for term in dft_decompose(C):
        v = classify_isometric(np.outer(term.a, term.b), 4)
        assert v.is_isometric, (term.k, term.l)


def test_sign_average_recovers_entry_from_matrix():
    # averaging the four sign flips isolates one coefficient exactly
    S = random_matrix(3, ensemble="gaussian", seed=42)
    s = np.array([1.0, -1.0, 1.0], dtype=complex)
    t = np.array([-1.0, 1.0, 1.0], dtype=complex)
    assert sign_average_entry(S, s, t, 1, 2) == pytest.approx(S[1, 2], abs=1e-13)
    assert sign_average_entry(S, s, t, 0, 0) == pytest.approx(S[0, 0], abs=1e-13)


def test_sign_average_callable_form():
    S = random_matrix(2, ensemble="gaussian", seed=43)
    s = np.array([1.0, -1.0], dtype=complex)
    t = np.array([1.0, 1.0], dtype=complex)

    def form(u, v):
        return complex(u @ S @ v)

    assert sign_average_entry(form, s, t, 0, 1) == pytest.approx(S[0, 1], abs=1e-13)


def test_sign_average_input_checks():
    S = np.ones((2, 2), dtype=complex)
    good = np.ones(2, dtype=complex)
    with pytest.raises(InputError):
        sign_average_entry(S, good, good, 5, 0)
    with pytest.raises(InputError):
        sign_average_entry(S, np.array([0.0, 1.0], dtype=complex), good, 0, 0)


def test_dft_pairing_respects_dual_bound():
    # a rank-one unimodular symbol has multiplier norm one, so its
    # pairing against C never exceeds the predual norm of C
    C = random_matrix(3, ensemble="gaussian", seed=612)
    res = herz_norm(C, 1.5, HerzOptions(iters=8, restarts=2))
    for term in dft_decompose(C)[:3]:
        pairing = abs(np.sum(np.outer(term.a, term.b).conj() * C))
        assert pairing <= res.bracket.upper + 1e-6
