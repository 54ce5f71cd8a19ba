import numpy as np
import pytest

import herzkit.multipliers

from herzkit.ascent import AscentOptions
from herzkit.core import (INF, InputError, NormBracket, ResourceError, ldexp, random_matrix,
                          schatten_norm)
from herzkit.gamma2 import gamma2
from herzkit.multipliers import (
    LinearOperatorOnSp,
    averaging_projection,
    averaging_projection_grid,
    cb_norm_ladder,
    inclusion_monotonicity_report,
    interpolation_bound,
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


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_ladder_counts_one_solve(p):
    A = random_matrix(6, ensemble="gaussian", seed=1)
    levels = cb_norm_ladder(A, p, 3)
    assert [b.iterations for b in levels] == [gamma2(A)[0].iterations, 0, 0]
    assert levels[0].iterations > 0


def _witnessed_ratio(S, B, p):
    return schatten_norm(S * B, p) / schatten_norm(B, p)


def test_interior_lower_reaches_entry_maximum():
    for n in (2, 3, 4, 8, 16):
        for ensemble in ("gaussian", "unitary", "sign", "sparse"):
            for seed in (1, 2, 3) if n < 16 else (1,):  # n = 16 takes most time
                A = random_matrix(n, ensemble=ensemble, seed=seed)
                top = np.max(np.abs(A))
                for p in (1.5, 3, 4):
                    b = multiplier_norm(A, p, AscentOptions(restarts=16, seed=seed))
                    assert b.lower >= top
                    W = b.lower_certificate["matrix"]
                    assert _witnessed_ratio(A, W, p) == pytest.approx(b.lower, rel=1e-12)


@pytest.mark.parametrize("ensemble", ["gaussian", "unitary", "sign"])
def test_ladder_lower_reaches_entry_maximum(ensemble):
    # on the gaussian and unitary symbols the ascent stops short of
    # max |a_ij| and the padded matrix unit wins; on the sign symbol it does not
    A = random_matrix(4, ensemble=ensemble, seed=1)
    for m, b in enumerate(cb_norm_ladder(A, 3, 3, opts=FAST), start=1):
        assert b.lower >= np.max(np.abs(A))
        S = np.kron(np.ones((m, m)), A)
        W = b.lower_certificate["matrix"]
        assert W.shape == S.shape
        assert _witnessed_ratio(S, W, 3) == pytest.approx(b.lower, rel=1e-9)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_converged_is_scale_free(k):
    # an 8% interior bracket and a gamma2 bracket wider than its tol stay
    # unconverged at any power-of-two scale (the Stein-weighted bound closes
    # the unitary seed-1 symbol's bracket at p = 3, so seed 2's is taken)
    A = random_matrix(4, ensemble="unitary", seed=2)
    s = 2.0 ** k
    g, gs = gamma2(A, tol=1e-16)[0], gamma2(s * A, tol=1e-16)[0]
    assert gs.upper - gs.lower == s * (g.upper - g.lower) > 0
    assert not g.converged and not gs.converged
    for b in [multiplier_norm(s * A, 3, FAST)] + cb_norm_ladder(s * A, 3, 2, FAST):
        assert (b.upper - b.lower) / b.upper > 0.01
        assert not b.converged


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_interior_bracket_at_the_top_of_the_float_range(p):
    # the ascent runs on a power-of-two rescaled symbol and the
    # interpolation bound is capped by gamma2, so neither side overflows
    big = np.finfo(float).max
    for A in (np.array([[1j * big]]), np.diag([0, 1j * big])):
        for b in [multiplier_norm(A, p, FAST)] + cb_norm_ladder(A, p, 2, FAST):
            assert b.lower == b.upper == big


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
    with pytest.raises(ResourceError):  # ladder level 1 keeps the n <= 64 cap
        multiplier_norm(np.eye(65), 2)


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


def test_monotonicity_tolerance_is_relative(monkeypatch):
    # lower(1.5) sits 1e-3 above upper(1): crossed at any scale, 2**-40 included
    for scale in (1.0, 2.0 ** -40):
        value = {1.0: scale, 1.5: 1.001 * scale}
        monkeypatch.setattr(herzkit.multipliers, "multiplier_norm",
                            lambda A, p, opts: NormBracket(value[p.value], value[p.value]))
        rep = inclusion_monotonicity_report(np.eye(2), (1.0, 1.5))
        assert not rep.passed
        assert rep.pairs[0]["slack"] == pytest.approx(-1e-3 * scale, rel=1e-2)
    monkeypatch.undo()
    A = random_matrix(3, ensemble="gaussian", seed=60) * 2.0 ** -40
    assert inclusion_monotonicity_report(A, (1.0, 1.5, 2.0), opts=FAST).passed


def test_zero_symbol_short_circuits():
    b = multiplier_norm(np.zeros((3, 3)), 1.7)
    assert b.lower == b.upper == 0.0


def _crossing_prone_symbols():
    # unimodular 1 x 1 symbols and the other exact-norm families: their two
    # sides land on the same value and used to cross by an ulp
    yield np.array([[0.9354414556942484 + 0.35348165860285513j]])
    for n in range(1, 9):
        for s in range(3):
            rng = np.random.default_rng(100 * n + s)
            yield np.outer(np.exp(2j * np.pi * rng.random(n)), np.exp(2j * np.pi * rng.random(n)))
            yield random_matrix(n, ensemble="unitary", seed=s)
            yield random_matrix(n, ensemble="sign", seed=s)
        yield np.eye(n, dtype=complex)
        yield np.ones((n, n), dtype=complex)


def test_endpoint_brackets_never_cross():
    for A in _crossing_prone_symbols():
        brackets = [gamma2(A)[0]]
        for p in (1, INF):
            brackets.append(multiplier_norm(A, p))
            brackets += cb_norm_ladder(A, p, 2)
        for b in brackets:
            assert b.lower <= b.upper, (A, b.lower, b.upper)


def _interior_grid(ensembles=("gaussian", "sparse", "unitary")):
    for n in (2, 3, 4):
        for ens in ensembles:
            for seed in (1, 2, 3):
                A = random_matrix(n, ensemble=ens, seed=seed)
                if np.any(A):
                    yield A


def _theta(p):
    return abs(1.0 - 2.0 / p)


@pytest.mark.parametrize("p", [1.5, 3, 4])
def test_weighted_bound_never_crosses_and_never_rises(p):
    # the upper side is the smaller of the unweighted bound and the one
    # Stein-weighted by the row and column maxima: no bracket crosses, no
    # upper bound sits above the unweighted one, and some sit below it
    below = 0
    for A in _interior_grid():
        unweighted = interpolation_bound(A, _theta(p))[0]
        for b in [multiplier_norm(A, p, FAST)] + cb_norm_ladder(A, p, 2, FAST):
            assert b.lower <= b.upper <= unweighted
            below += b.upper < unweighted
    assert below > 0


def test_weighted_bound_is_not_capped_at_g():
    # with weights, m and g bound different symbols, so m > g can occur:
    # on this sparse 2 x 2 symbol at p = 3, weighted by its row and column
    # maxima (zero columns 1) without normalizing them, m = 0.922 > g = 0.568.
    # Capped at g, g min(1, m/g)^(1 - theta) would certify 0.5677, below
    # the witnessed lower bound 0.78454; g (m/g)^(1 - theta) meets it, to
    # rounding, as the weighted bound is exact here
    A = random_matrix(2, "sparse", seed=100)
    theta = _theta(3)
    a = np.abs(A)
    x, y = a.max(axis=1), a.max(axis=0)
    x[x == 0], y[y == 0] = 1.0, 1.0
    bound, cert = interpolation_bound(A, theta, weights=(x, y))
    g, m = cert["g"], cert["m"]
    lower = multiplier_norm(A, 3, FAST).lower
    assert m > g
    assert g * min(1.0, m / g) ** (1 - theta) < 0.57 < 0.78 < lower
    assert bound == g * (m / g) ** (1 - theta) == pytest.approx(lower, rel=1e-15)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_sign_symbols_take_the_unweighted_bound(n, monkeypatch):
    # a sign symbol's row and column maxima are all 1, so its weights are
    # constant and the weighted solve does not run: the bracket's upper side
    # is the unweighted bound, from one gamma2 solve
    solves = []
    solve = herzkit.multipliers._solve
    monkeypatch.setattr(herzkit.multipliers, "_solve",
                        lambda *a: solves.append(a[2]) or solve(*a))
    A = random_matrix(n, "sign", seed=1)
    for p in (1.5, 3, 4):
        solves.clear()
        want, cert = interpolation_bound(A, _theta(p))
        b = multiplier_norm(A, p, FAST)
        assert b.upper == want and b.upper_certificate["g"] == cert["g"]
        assert np.array_equal(b.upper_certificate["x"], np.ones(n))
        assert np.array_equal(b.upper_certificate["y"], np.ones(n))
        assert len(solves) == 2  # the call above and multiplier_norm's


@pytest.mark.parametrize("k", [-600, 600])
def test_interior_brackets_scale_exactly(k):
    # the weights are quotients of moduli and gamma2 solves at a power-of-
    # two scale, so every interior bracket, and its certificate's weights,
    # scales by 2**k to the bit
    for A in _interior_grid(("gaussian", "sparse", "unitary", "sign")):
        for p in (1.5, 3, 4):
            ref = [multiplier_norm(A, p, FAST)] + cb_norm_ladder(A, p, 2, FAST)
            got = [multiplier_norm(ldexp(A, k), p, FAST)] + cb_norm_ladder(ldexp(A, k), p, 2, FAST)
            for r, b in zip(ref, got):
                assert (b.lower, b.upper) == (np.ldexp(r.lower, k), np.ldexp(r.upper, k))
                rc, bc = r.upper_certificate, b.upper_certificate
                assert (bc["g"], bc["m"]) == (np.ldexp(rc["g"], k), np.ldexp(rc["m"], k))
                assert bc["x"].tobytes() == rc["x"].tobytes()
                assert bc["y"].tobytes() == rc["y"].tobytes()


@pytest.mark.parametrize("k", [-1060, -1070])
def test_subnormal_symbols_are_bounded_at_their_scale(k):
    # in its own units a subnormal symbol's weighted entries would round to
    # the subnormal grid, off by percents; at the scale that puts its
    # largest modulus in [1/2, 1) they round relatively.  So each bound, and
    # its certificate's g, is the normal copy's scaled back once and rounded
    # up, and no upper side falls below the normal copy's witnessed lower one
    up = herzkit.multipliers._ldexp_up
    for A in _interior_grid():
        B = ldexp(ldexp(A, k), -k)  # the normal copy of the rounded symbol
        for p in (1.5, 3, 4):
            theta = _theta(p)
            for w in (None, herzkit.multipliers._stein_weights(B)):
                ref, rc = interpolation_bound(B, theta, weights=w)
                got, gc = interpolation_bound(ldexp(B, k), theta, weights=w)
                assert got == up(ref, k) >= np.ldexp(ref, k)
                assert (gc["g"], gc["m"]) == (up(rc["g"], k), up(rc["m"], k))
            r, b = multiplier_norm(B, p, FAST), multiplier_norm(ldexp(B, k), p, FAST)
            assert b.lower <= b.upper and np.ldexp(b.upper, -k) >= r.lower


def test_weights_apply_to_the_solve_only():
    A = random_matrix(3, "gaussian", seed=1)
    P = np.eye(3, dtype=complex)
    with pytest.raises(InputError):
        interpolation_bound(A, 0.5, factors=(P, A.T), weights=(np.ones(3), np.ones(3)))


def test_interpolation_certificate_rebuilds_from_the_symbol():
    # the weights are the row and column maxima over the largest modulus, m
    # the largest modulus of |A| x^-theta y^-theta, the upper bound
    # g (m/g)^(1 - theta) (g min(1, m/g)^(1 - theta) without weights), and
    # g is no lower than public gamma2's upper bound on A x^(1-theta)
    # y^(1-theta), which sweeps the same path further
    weighted = 0
    for A in _interior_grid(("gaussian", "sparse", "unitary", "sign")):
        for p in (1.5, 3):
            theta = _theta(p)
            b = multiplier_norm(A, p, FAST)
            cert = b.upper_certificate
            x, y = cert["x"], cert["y"]
            a = np.abs(A)
            assert cert["kind"] == "interpolation" and cert["theta"] == theta
            if np.array_equal(x, np.ones(len(x))) and np.array_equal(y, np.ones(len(y))):
                ratio = min(1.0, cert["m"] / cert["g"])
            else:
                weighted += 1
                wx, wy = a.max(axis=1) / a.max(), a.max(axis=0) / a.max()
                wx[wx == 0], wy[wy == 0] = 1.0, 1.0
                assert np.array_equal(x, wx) and np.array_equal(y, wy)
                ratio = cert["m"] / cert["g"]
            assert cert["m"] == np.max(a * (x ** -theta)[:, None] * y ** -theta)
            assert b.upper == cert["g"] * ratio ** (1 - theta)
            S = A * (x ** (1 - theta))[:, None] * y ** (1 - theta)
            assert gamma2(S)[0].upper <= cert["g"]
    assert weighted > 0
