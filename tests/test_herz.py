import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzkit.ascent import unit_phases
from herzkit.core import (
    INF,
    MAX_COUNT,
    InputError,
    NormBracket,
    ResourceError,
    as_index,
    ldexp,
    lp_norms,
    modulus_exponent,
    random_matrix,
    schatten_norm,
    truncate,
)
import herzkit.herz
from herzkit.gamma2 import MAX_SWEEPS, gamma2
from herzkit.io import bracket_to_obj
from herzkit.herz import (
    HerzDecomposition,
    HerzNormResult,
    HerzOptions,
    herz_norm,
    herz_schur_product,
    herz_tensor,
    herz_truncate,
    pair_with_multiplier,
    represent,
    _entrywise_stacks,
    _mixing,
    submultiplicativity_check,
)

def test_p2_closed_form():
    rng = np.random.default_rng(2)
    for t in range(20):
        n = int(rng.integers(1, 7))
        C = random_matrix(n, ensemble="gaussian", seed=300 + t)
        res = herz_norm(C, 2)
        want = np.sum(np.abs(C))
        assert res.bracket.lower == pytest.approx(want, abs=1e-12)
        assert res.bracket.upper == pytest.approx(want, abs=1e-12)
        got = represent(res.best_decomposition)
        np.testing.assert_allclose(got, C, atol=1e-12)


def test_all_ones_at_p1_is_exactly_n_squared():
    J = np.ones((2, 2), dtype=complex)
    res = herz_norm(J, 1)
    assert res.bracket.lower >= 4 - 1e-6
    assert res.bracket.upper <= 4 + 1e-6


def test_decomposition_cost_matches_upper():
    C = random_matrix(3, ensemble="gaussian", seed=8)
    res = herz_norm(C, 1.5)
    assert res.best_decomposition.cost == pytest.approx(res.bracket.upper, rel=1e-12)
    np.testing.assert_allclose(represent(res.best_decomposition), C, atol=1e-9)


def test_single_matrix_unit_costs_one():
    E = np.zeros((3, 3), dtype=complex)
    E[0, 0] = 1.0
    res = herz_norm(E, 1)
    assert res.bracket.upper <= 1 + 1e-9
    assert res.bracket.lower >= 1 - 1e-9


def test_lower_is_witnessed_dual_value():
    # pins the one kind of lower certificate, its three sources and their
    # values; every witness is cb-normed, so every herz bracket also
    # contains herz_cb, the predual norm of M_{p,cb}
    sources = set()
    for C, p in ((random_matrix(3, ensemble="gaussian", seed=12), 3.0),
                 (random_matrix(8, ensemble="sign", seed=12), 3.0),
                 (random_matrix(6, ensemble="sparse", seed=12), 1.5),
                 (random_matrix(5, ensemble="unitary", seed=12), INF),
                 (random_matrix(4, ensemble="gaussian", seed=12), 2)):
        res = herz_norm(C, p)
        dual = res.dual_functional
        # D = P Q^T has gamma2(D) <= g, the largest row norms' product, and
        # ||D||_{M_2} = m, its largest modulus, so by Riesz-Thorin
        # ||D||_{M_p} <= g^theta m^(1 - theta)
        assert dual["kind"] == "factored-symbol"
        P, Q = dual["P"], dual["Q"]
        g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
        theta = abs(1 - 2 / low(p).value)  # taken at min(p, p*)
        assert (dual["g"], dual["m"], dual["theta"]) == (g, np.max(np.abs(P @ Q.T)), theta)
        value = interpolated(P, Q, C, theta)
        assert value == pytest.approx(res.bracket.lower, rel=1e-12)
        sources.add(source(C, P))
        if source(C, P) == "phase":
            # the phase symbol D I or I D: entries of modulus at most 1 and
            # g = sqrt(k), k the smaller of its largest row and column support
            D = P @ Q.T
            assert np.max(np.abs(D)) <= 1 + 1e-15
            support = D != 0
            k = min(support.sum(axis=0).max(), support.sum(axis=1).max())
            assert g == pytest.approx(np.sqrt(k), rel=1e-15)
    assert sources == {"phase", "svd", "solve"}


def test_build_rejects_mixed_shapes():
    with pytest.raises(InputError):
        HerzDecomposition.build(2, [(np.ones((2, 2)), np.ones((3, 3)))])
    with pytest.raises(InputError):
        HerzDecomposition.build(2, [], dim=None)


@pytest.mark.parametrize("p", [1.5, 3])
def test_decompositions_compare_and_hash_by_identity(p):
    # a decomposition holds arrays, so equal-valued fields decide nothing:
    # == and hash go by identity, and neither raises
    d = herz_norm(random_matrix(4, ensemble="gaussian", seed=19), p).best_decomposition
    twin = HerzDecomposition.build(d.p, d.terms)
    assert (d == twin) is False and d == d
    assert hash(d) != hash(twin) and len({d, d, twin}) == 2


def test_truncation_never_raises_cost():
    C = random_matrix(4, ensemble="gaussian", seed=19)
    res = herz_norm(C, 1.5)
    d = res.best_decomposition
    d_cut = herz_truncate(d, [0, 2])
    assert d_cut.cost <= d.cost + 1e-12
    want = np.zeros_like(C)
    want[np.ix_([0, 2], [0, 2])] = C[np.ix_([0, 2], [0, 2])]
    np.testing.assert_allclose(represent(d_cut), want, atol=1e-9)


def test_tensor_multiplies_cost_and_represents_kron():
    x = HerzDecomposition.build(1.5, [(np.array([[2.0, 0], [0, 1.0]]) + 0j,
                                       np.ones((2, 2)) + 0j)])
    y = HerzDecomposition.build(1.5, [(np.eye(2) + 0j, np.ones((2, 2)) + 0j)])
    z = herz_tensor(x, y)
    assert z.dim == 4
    np.testing.assert_allclose(
        represent(z), np.kron(represent(x), represent(y)), atol=1e-13)
    assert z.cost == pytest.approx(x.cost * y.cost, rel=1e-12)
    with pytest.raises(InputError):
        herz_tensor(x, HerzDecomposition.build(2, [(np.eye(2) + 0j, np.eye(2) + 0j)]))


def test_schur_product_decomposition_exact_and_submultiplicative():
    rng = np.random.default_rng(30)
    for t in range(5):
        C = random_matrix(3, ensemble="gaussian", seed=400 + t)
        D = random_matrix(3, ensemble="gaussian", seed=500 + t)
        x = herz_norm(C, 1.5).best_decomposition
        y = herz_norm(D, 1.5).best_decomposition
        z = herz_schur_product(x, y)
        np.testing.assert_allclose(represent(z), C * D, atol=1e-12)
        assert z.cost <= x.cost * y.cost + 1e-9


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_algebra_terms_match_the_pair_loop(ens):
    # each operation is one expression over the factor stacks; the loop over
    # pairs that it replaced is the reference, to the byte
    for n in (1, 2, 3, 5):
        for p in (1.5, 3):
            x = herz_norm(random_matrix(n, ensemble=ens, seed=n), p).best_decomposition
            y = herz_norm(random_matrix(n, ensemble=ens, seed=n + 7), p).best_decomposition
            pairs = [(a, c) for a in x.terms for c in y.terms]
            for z, want in (
                    (herz_schur_product(x, y), [(A * C, B * D) for (A, B), (C, D) in pairs]),
                    (herz_tensor(x, y),
                     [(np.kron(A, C), np.kron(B, D)) for (A, B), (C, D) in pairs]),
                    (herz_truncate(x, [0, n - 1]), [(truncate(A, [0, n - 1]), B)
                                                    for A, B in x.terms])):
                built = HerzDecomposition.build(p, want, dim=z.dim)
                assert [(A.tobytes(), B.tobytes()) for A, B in z.terms] \
                    == [(A.tobytes(), B.tobytes()) for A, B in built.terms]


def test_matrix_product_shape_check():
    with pytest.raises(InputError, match="matrix product shape mismatch"):
        submultiplicativity_check(np.eye(2), np.eye(3), 1.5, product="matrix")


def test_submultiplicativity_check_passes():
    C = random_matrix(3, ensemble="sign", seed=71)
    D = random_matrix(3, ensemble="gaussian", seed=72)
    for product in ("schur", "matrix"):
        rep = submultiplicativity_check(C, D, 1.5, product=product)
        assert rep.passed, rep
    with pytest.raises(InputError):
        submultiplicativity_check(C, D, 1.5, product="direct")


def test_submultiplicativity_tolerance_is_relative(monkeypatch):
    # herz brackets for C, D and C o D, with lower(C o D) 1e-3 above
    # upper(C) * upper(D): crossed at any scale, 2**-40 included
    def check_at(scale):
        brackets = iter([(scale, scale), (1.0, 1.0), (1.001 * scale, 1.001 * scale)])
        monkeypatch.setattr(herzkit.herz, "herz_norm", lambda *args: HerzNormResult(
            NormBracket(*next(brackets)), None))
        return submultiplicativity_check(np.eye(2), np.eye(2), 1.5)

    for scale in (1.0, 2.0 ** -40):
        rep = check_at(scale)
        assert not rep.passed and rep.slack == pytest.approx(-1e-3 * scale, rel=1e-2)
    monkeypatch.undo()
    C = random_matrix(3, ensemble="sign", seed=71) * 2.0 ** -40
    assert submultiplicativity_check(C, C, 1.5).passed


def test_restarts_past_the_cap_are_refused_before_any_work():
    C = random_matrix(3, ensemble="gaussian", seed=1)
    # without the cap, the first two end
    for restarts, error in ((MAX_COUNT + 1, ResourceError), (-1, InputError),
                            (2 ** 65, ResourceError)):
        for p in (1.5, 2.0):
            with pytest.raises(error, match="restarts"):
                herz_norm(C, p, HerzOptions(restarts=restarts))
    with pytest.raises(InputError, match="seed"):
        herz_norm(C, 1.5, HerzOptions(seed=-1))


def test_pairing_is_bilinear_sum():
    A = np.array([[1, 2j], [0, 1]], dtype=complex)
    C = np.array([[3, 1], [1, -1j]], dtype=complex)
    assert pair_with_multiplier(A, C) == pytest.approx(3 + 2j * 1 + 0 + 1 * (-1j))


def test_seed_decomposition_must_represent_input():
    # inf * 0 would represent NaN; the constructor refuses the factor
    C = random_matrix(2, ensemble="gaussian", seed=73)
    A, B = C.copy(), np.ones((2, 2))
    A[0, 0], B[0, 0] = np.inf, 0.0
    with pytest.raises(InputError, match="finite"):
        HerzDecomposition(as_index(1.5), ((A, B),), 2)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_every_decomposition_refuses_non_finite_factors(bad):
    # unchecked, an infinite factor would be priced to a NaN cost and a NaN
    # factor would reach the SVD; both get build's InputError instead
    A, B = random_matrix(3, ensemble="gaussian", seed=1), np.ones((3, 3))
    A[1, 2] = bad
    Z = B.copy()
    Z[1, 2] = 0.0  # inf * 0 would represent NaN
    pi = as_index(1.5)
    for terms in (((A, B),), ((B, A),), ((B, B), (A, B)), ((A, Z),)):
        with pytest.raises(InputError, match="must be finite") as direct:
            HerzDecomposition(pi, terms, 3)
        with pytest.raises(InputError, match="must be finite") as built:
            HerzDecomposition.build(pi, terms)
        assert str(direct.value) == str(built.value)


def test_tensor_refuses_overflowing_kronecker_factors():
    # the Kronecker factors of 1e200-scale terms overflow to inf, however
    # cheaply their product prices them
    x = herz_norm(random_matrix(3, ensemble="gaussian", seed=1) * 1e200, 1.5).best_decomposition
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match="must be finite"):
            herz_tensor(x, x)


def test_refinement_cannot_break_representation():
    C = random_matrix(3, ensemble="sparse", seed=77)
    res = herz_norm(C, 1.2)
    np.testing.assert_allclose(represent(res.best_decomposition), C, atol=1e-9)


def test_zero_matrix():
    res = herz_norm(np.zeros((2, 2)), 1.5)
    assert res.bracket.lower == res.bracket.upper == 0.0
    assert represent(res.best_decomposition).shape == (2, 2)


@pytest.mark.parametrize("p", [1, 1.5, 3, INF])
def test_upper_is_cheapest_closed_form_seed(p):
    for n in (1, 2, 3, 8):
        for ens in ("gaussian", "sign", "sparse", "unitary"):
            C = random_matrix(n, ensemble=ens, seed=40 + n)
            J = np.ones((n, n), dtype=complex)
            forms = [HerzDecomposition.build(p, [(C, J)]), HerzDecomposition.build(p, [(J, C)])]
            res = herz_norm(C, p)
            # C o J, J o C and the entrywise expansion
            closed = [forms[0].cost, forms[1].cost, float(np.sum(np.abs(C)))]
            q = res.best_decomposition.p.conjugate()
            assert closed[:2] == pytest.approx([n * schatten_norm(C, p), n * schatten_norm(C, q)],
                                               rel=1e-12)
            if endpoint(p):  # the mixing decomposition can undercut them
                assert res.bracket.upper <= min(closed) * (1 + 1e-14)
            else:  # and the l_1-weighted split, with u v^T at min(p, p*)
                F, G = (X[0] for X in l1_split(C, 0))
                closed.append(HerzDecomposition.build(p, [(F, G) if p < 2 else (G, F)]).cost)
                assert res.bracket.upper == pytest.approx(min(closed), rel=1e-14)
            # the upper bound is the winner's cost plus what its terms miss of C
            missed = float(np.sum(np.abs(represent(res.best_decomposition) - C)))
            assert res.best_decomposition.cost + missed == res.bracket.upper
            dev = np.max(np.abs(represent(res.best_decomposition) - C))
            assert dev <= 1e-12 * np.max(np.abs(C))


def test_iterations_count_phase_ascent_alternations():
    # the mixing solve is the phase ascent with unit rows in place of unit
    # moduli; iterations counts its sweeps, one alternation each, at every p
    C = random_matrix(4, ensemble="gaussian", seed=5)
    sweeps = herz_norm(C, 1).bracket.iterations
    assert 5 < sweeps <= MAX_SWEEPS
    # the solve takes the same fixed start at every p, where no weighting
    # or floor ends it
    for q in (INF, 4):
        res = herz_norm(C, q)
        assert res.bracket.iterations == sweeps
        assert res.dual_functional["kind"] == "factored-symbol"
    # the all-ones matrix ends the solve at its first check
    J = np.ones((3, 3), dtype=complex)
    for q in (1, 4, INF):
        assert herz_norm(J, q).bracket.iterations == 5
    assert herz_norm(C, 2).bracket.iterations == 0
    assert herz_norm(np.zeros((2, 2)), 1.5).bracket.iterations == 0
    # at p = 1.5 the solve's price of gamma2*(C), its value, falls below
    # the phase symbol's at its first check, so it stops there, 5 sweeps in,
    # and the phase symbol factored by its SVD certifies the lower bound
    res = herz_norm(C, 1.5)
    assert res.bracket.iterations == 5
    P, Q = svd_factors(unit_phases(C).conj())
    assert res.dual_functional["kind"] == "factored-symbol"
    assert res.dual_functional["P"].tobytes() == P.tobytes()
    assert res.dual_functional["Q"].tobytes() == Q.tobytes()


@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_phase_ascent_is_scale_equivariant(scale):
    # the stop rule is relative, so at p = 1, where the mixing solve has
    # replaced the ascent, a tiny input closes its bracket as at scale 1
    # (the ascent left it 12% wide)
    C = random_matrix(6, ensemble="gaussian", seed=4)
    ref = herz_norm(C, 1).bracket
    b = herz_norm(scale * C, 1).bracket
    assert b.lower == pytest.approx(scale * ref.lower, rel=1e-12)
    assert b.upper == pytest.approx(scale * ref.upper, rel=1e-12)
    assert b.iterations == ref.iterations
    assert b.converged and ref.converged and ref.width <= 1e-9 * ref.upper
    # at p = 1.5 the mixing solve stops before its first sweep at every
    # scale, and the symbol's bracket scales with C
    ref = herz_norm(C, 1.5).bracket
    b = herz_norm(scale * C, 1.5).bracket
    assert b.iterations == ref.iterations == 0
    assert b.lower == pytest.approx(scale * ref.lower, rel=1e-12)
    assert b.upper == pytest.approx(scale * ref.upper, rel=1e-12)
    assert not b.converged and not ref.converged  # 18% wide


@pytest.mark.parametrize("p", [1, 1.5])
@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_float_range_ends_give_finite_brackets(p, scale):
    H = np.array([[1, 1], [1, -1]], dtype=complex)
    b = herz_norm(scale * H, p).bracket
    ref = herz_norm(H, p).bracket
    assert np.isfinite(b.lower) and np.isfinite(b.upper)
    assert b.lower <= b.upper
    assert b.upper == pytest.approx(scale * ref.upper, rel=1e-12)


def test_overflowing_term_costs_are_refused():
    # every closed-form cost overflows; a NaN cost must not be pruned to 0
    with pytest.raises(InputError, match="float range"):
        herz_norm(np.finfo(float).max * np.array([[1, 1], [1, -1]]), 1.5)


def test_overflowing_dual_pairing_is_skipped():
    # sum |c_ij| = 2.4e308 overflows, but J o C costs n ||C||_oo = 1.2e308
    F = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4)
    res = herz_norm(1.5e307 * F, 1)
    b = res.bracket
    assert 0.0 < b.lower <= b.upper == pytest.approx(1.2e308, rel=1e-12)
    assert res.dual_functional["value"] == b.lower  # a witnessed value


@pytest.mark.parametrize("p", [1, 1.5, 2])
def test_norm_beyond_float_range_is_input_error(p):
    with pytest.raises(InputError, match="float range"):
        herz_norm(1e308 * np.array([[1, 1], [1, -1]], dtype=complex), p)


def reference_phase_ascent(C, restarts, seed, iters=60):
    """The phase ascent over rank-one unimodular symbols a b^T, one start at
    a time: from the all-ones vector, the conjugate phases of C's top left
    singular vector and ``restarts`` random phase vectors, each half-step
    the exact unimodular maximizer for its fixed partner.  Returns the best
    |a^T C b| with its (a, b) and the alternations summed over starts.
    The mixing solve's set of symbols X Y^T holds every a b^T, so herz's
    lower bound must not fall below this value.  C is nonzero."""
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    starts = [np.ones(n, dtype=complex)]
    U, s, Vh = np.linalg.svd(C)
    if s.size and s[0] > 0:
        starts.append(unit_phases(U[:, 0].reshape(1, -1)).ravel().conj())
    for _ in range(max(0, restarts)):
        starts.append(np.exp(2j * np.pi * rng.random(n)))
    best = (-1.0, np.ones(n, dtype=complex), np.ones(n, dtype=complex))
    steps = 0
    for a in starts:
        a = a.copy()
        b = np.ones(n, dtype=complex)
        val = abs(a @ C @ b)
        for _ in range(iters):
            steps += 1
            a0, b0 = a, b
            w = a @ C            # row vector: sum_i a_i c_ij
            b = unit_phases(w.reshape(1, -1)).ravel().conj()
            v = C @ b
            a = unit_phases(v.reshape(1, -1)).ravel().conj()
            new = abs(a @ C @ b)
            if new <= val * (1 + 1e-12):
                if val > new:  # the witness carries the value kept
                    a, b = a0, b0
                val = max(val, new)
                break
            val = new
        if val > best[0]:
            best = (val, a, b)
    return (*best, steps)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("restarts", [0, 2, 8])
def test_stacked_phase_ascent_matches_one_start_loop(n, restarts):
    # the mixing solve stacks the phase ascent's unit moduli into unit rows
    # of rank isqrt(m + k) + 1: at interior p its lower bound is no lower
    # than the one-start loop's best value over its starts, up to the
    # width within which the solve stops, at every scale
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for e in (0, 600, -600):
            C = random_matrix(n, ensemble=ens, seed=7 * n + restarts) * 2.0 ** e
            assert np.any(C)
            want = reference_phase_ascent(C, restarts, seed=3)[0]
            for p in (1.5, 3):
                lower = herz_norm(C, p).bracket.lower
                assert lower >= want * (1 - 1e-9)


@pytest.mark.parametrize("p", [1.5, 3])
def test_phase_ascent_witness_carries_the_lower_bound(p):
    # every lower witness at interior p is a factored symbol, the mixing
    # solve's X Y^T or the phase symbol factored by its SVD or as D I or
    # I D, and its P and Q re-check the
    # bound they certify: g is the product of their largest row norms, m the
    # largest modulus of P Q^T, and |<P Q^T, C>| / (g^theta m^(1 - theta)),
    # clamped to the upper bound, is the lower bound.  The SVD's P Q^T is
    # the phase symbol up to rounding
    won = {"solve": 0, "svd": 0, "phase": 0}
    theta = abs(1 - 2 / low(p).value)
    for n in (2, 3):
        for ens in ("gaussian", "unitary", "sign", "sparse"):
            for seed in range(1, 11):
                C = random_matrix(n, ensemble=ens, seed=seed)
                if not np.any(C):
                    continue
                b = herz_norm(C, p).bracket
                cert = b.lower_certificate
                assert cert["kind"] == "factored-symbol"
                P, Q = cert["P"], cert["Q"]
                g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
                D = P @ Q.T
                assert (cert["g"], cert["m"], cert["theta"]) == (g, np.max(np.abs(D)), theta)
                value = interpolated(P, Q, C, theta)
                assert min(value, b.upper) == b.lower == cert["value"]
                phase = np.where(C != 0, unit_phases(C).conj(), 0)
                won[source(C, P)] += 1
                if source(C, P) == "solve":
                    assert b.iterations > 0
                else:
                    np.testing.assert_allclose(D, phase, rtol=0, atol=1e-14)
    assert won["solve"] > 0 and won["svd"] > 0


@pytest.mark.parametrize("seed", [0, 2, 8])
def test_phase_ascent_at_n1(seed):
    # at n = 1 the mixing solve meets |c| at its first check, up to
    # rounding, and every p gets the bracket [|c|, |c|], whatever seed the
    # unread options carry
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for draw in (1, 2, 3):
            C = random_matrix(1, ensemble=ens, seed=draw)
            if not np.any(C):
                continue
            S = ldexp(C, -modulus_exponent(C))
            sweeps, (P, Q, _, _, price) = solve(S)
            assert sweeps == 5 and P.shape == Q.shape == (1, 2)
            assert price == pytest.approx(abs(S[0, 0]), rel=4e-16)
            for p in (1, 1.5, 3, INF):
                b = herz_norm(C, p, HerzOptions(seed=seed)).bracket
                assert b.lower == pytest.approx(abs(C[0, 0]), rel=4e-16)
                assert b.upper == pytest.approx(abs(C[0, 0]), rel=4e-16)


def test_each_candidate_is_priced_once(monkeypatch):
    calls = []
    term_costs = herzkit.herz._term_costs

    def counted(Sa, Sb, eA, eB, p, r):
        calls.append(len(Sa))
        return term_costs(Sa, Sb, eA, eB, p, r)

    monkeypatch.setattr(herzkit.herz, "_term_costs", counted)
    C = random_matrix(16, ensemble="sign", seed=1)
    res = herz_norm(C, 1.5)
    # only the cheapest closed form is built: J o C at 16 ||C||_3 undercuts
    # the expansion at sum |c_ij| = 256 (C o J, at 16 ||C||_1.5, is no
    # candidate, and the l_1 weights of a sign symbol are uniform, so its
    # split is J o C reweighted and is not listed)
    assert calls == [1]
    best = res.best_decomposition
    assert best.cost == res.bracket.upper
    # a decomposition is priced when it is built, and only then
    calls.clear()
    np.testing.assert_allclose(best.represented(), C, atol=1e-13)
    z = herz_tensor(best, best)
    assert z.cost == z.cost == pytest.approx(best.cost ** 2, rel=1e-12)
    assert calls == []  # ||A (x) C||_p = ||A||_p ||C||_p prices the tensor
    built = HerzDecomposition.build(z.p, z.terms, dim=z.dim)
    assert calls == [len(z.terms)]
    # a 256 x 256 SVD prices to about 3e-15 relative here; the product of
    # the 16 x 16 prices is within 3e-16 of the exact value
    assert abs(z.cost - built.cost) <= 1e-14 * built.cost
    calls.clear()
    herz_schur_product(best, best)
    herz_truncate(best, [0, 3])
    assert calls == [len(best.terms) ** 2, len(best.terms)]


def test_the_winner_is_not_priced_again(monkeypatch):
    calls = []
    term_costs = herzkit.herz._term_costs

    def counted(Sa, Sb, eA, eB, p, r):
        calls.append(len(Sa))
        return term_costs(Sa, Sb, eA, eB, p, r)

    monkeypatch.setattr(herzkit.herz, "_term_costs", counted)
    herz_norm(random_matrix(8, ensemble="sparse", seed=1), 1.5)
    # only the cheapest closed form is built: the 8 cyclic diagonals with
    # the term carrying their miss
    assert calls == [9]


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_upper_bound_is_the_cheapest_completed_candidate(ens):
    # every candidate is completed against C before it is ranked, so the
    # upper bound is the smallest price among the completed candidates at
    # q = min(p, p*), and C o J, which herz does not build, is no cheaper
    for n in range(1, 9):
        for p in (1, 1.5, 3):
            q = low(p)
            C = random_matrix(n, ensemble=ens, seed=n)
            if not np.any(C):
                continue
            res = herz_norm(C, p)
            e = modulus_exponent(C)
            J = np.ones((1, n, n), dtype=complex)
            stacks = [(C[None], J), (J, C[None]), _entrywise_stacks(ldexp(C, -e), e, q)]
            if endpoint(q):  # and the mixing decomposition
                stacks.append(mixing_candidate(ldexp(C, -e), e)[0])
            costs = [HerzDecomposition._make(q, As, Bs, n, target=C).cost
                     for As, Bs in stacks]
            if not endpoint(q):  # and the l_1-weighted split where it undercuts both
                split = HerzDecomposition._make(q, *l1_split(ldexp(C, -e), e), n, target=C).cost
                costs += [split] if split * (1 + 1e-9) < min(costs[1:]) else []
            assert res.bracket.upper == res.best_decomposition.cost == min(costs)


def test_tensor_costs_match_svd_pricing():
    # ||A (x) C||_p = ||A||_p ||C||_p: each Kronecker term is priced as
    # the batched SVD would price it, within rounding
    for p in (1, 1.5, 3, INF):
        for n, (e1, e2) in zip((2, 3, 4), [("gaussian", "sign"), ("sparse", "unitary"),
                                           ("gaussian", "sparse")]):
            for seed in (1, 2, 3):
                x = herz_norm(random_matrix(n, ensemble=e1, seed=seed), p).best_decomposition
                y = herz_norm(random_matrix(n, ensemble=e2, seed=seed), p).best_decomposition
                z = herz_tensor(x, y)
                built = HerzDecomposition.build(z.p, z.terms, dim=z.dim)
                assert len(z.terms) == len(built.terms) == len(x.terms) * len(y.terms)
                assert abs(z.cost - built.cost) <= 2e-15 * built.cost
                np.testing.assert_array_equal(
                    z.represented(), np.kron(x.represented(), y.represented()))


def test_priced_decomposition_cannot_go_stale():
    A = random_matrix(3, ensemble="gaussian", seed=1)
    B = random_matrix(3, ensemble="gaussian", seed=2)
    d = HerzDecomposition.build(1.5, [(A, B), (A, np.zeros((3, 3)))])
    assert len(d.terms) == 1  # the zero-cost term is dropped when built
    cost, rep = d.cost, d.represented()
    assert cost == schatten_norm(A, 1.5) * schatten_norm(B, 3.0)
    A[0, 0] += 1.0  # the caller's array is not the decomposition's
    with pytest.raises(ValueError, match="read-only"):
        d.terms[0][0][0, 0] = 5.0
    d.represented()[0, 0] = 7.0  # a fresh array each call
    assert d.cost == cost
    assert d.represented().tobytes() == rep.tobytes()
    np.testing.assert_allclose(rep, (A - np.eye(1, 9).reshape(3, 3)) * B, atol=1e-15)


def sylvester(n):
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H.astype(complex)


def one_per_line(X):
    return (np.count_nonzero(X, axis=0) <= 1).all() and (np.count_nonzero(X, axis=1) <= 1).all()


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, INF])
def test_entrywise_expansion_is_one_term_per_cyclic_diagonal(p):
    # built at q = min(p, p*) and swapped at p > 2, as herz_norm builds it
    pi, q = as_index(p), low(p)
    for ens in ("gaussian", "sign", "sparse", "unitary"):
        for n in range(1, 17):
            C0 = random_matrix(n, ensemble=ens, seed=n)
            holed = C0.copy()
            holed[n // 2] = 0.0  # a zero row, and for n = 1 the zero matrix
            for C in (C0, holed):
                if not np.any(C):
                    continue
                for k in (0, 1000, -1000):
                    Ck = ldexp(C, k)
                    e = modulus_exponent(Ck)
                    As, Bs = _entrywise_stacks(ldexp(Ck, -e), e, q)
                    terms = tuple(zip(As, Bs) if q == pi else zip(Bs, As))
                    assert len(terms) <= n
                    assert all(one_per_line(A) and one_per_line(B) for A, B in terms)
                    d = HerzDecomposition(pi, tuple(terms), n)
                    top = np.max(np.abs(Ck))
                    assert np.max(np.abs(represent(d) - Ck)) <= 1e-15 * top
                    l1 = float(np.sum(np.abs(Ck)))
                    assert abs(d.cost - l1) <= 2e-15 * l1


@pytest.mark.parametrize("p", [1, 1.5, 3, INF])
def test_subnormal_symbols_keep_the_lower_bound_below_the_upper(p):
    # the costs are priced, and what the terms miss of C measured, at the
    # scale of the factors, so a subnormal symbol gets no upper bound that
    # rounds below the witnessed lower one
    for ens in ("gaussian", "sign", "sparse", "unitary"):
        for n in (2, 3, 5, 8, 16):
            C = ldexp(random_matrix(n, ensemble=ens, seed=n), -1070)
            res = herz_norm(C, p)
            assert res.dual_functional["value"] <= res.bracket.upper
            assert res.bracket.lower == res.dual_functional["value"]


@pytest.mark.parametrize("ens", ["gaussian", "sign", "sparse", "unitary"])
def test_p2_bounds_other_exponents_on_subnormal_symbols(ens):
    # herz_p <= herz_2 = sum |c_ij|: the sum is taken on the scaled copy and
    # rounded once, so it cannot fall below a lower bound found at p = 1.5
    for n in (2, 3, 5, 8):
        for seed in range(1, 6):
            C = ldexp(random_matrix(n, ensemble=ens, seed=seed), -1070)
            if not np.any(C):
                continue
            b2 = herz_norm(C, 2).bracket
            assert b2.lower == b2.upper >= herz_norm(C, 1.5).bracket.lower


@pytest.mark.parametrize("p", [1.5, 2])
def test_64_gaussian_decomposes_into_at_most_64_terms(p):
    C = random_matrix(64, ensemble="gaussian", seed=1)
    res = herz_norm(C, p)
    if p == 2:  # the 64 cyclic diagonals and the term carrying their miss
        assert len(res.best_decomposition.terms) == 65
    else:
        assert len(res.best_decomposition.terms) <= 64
    np.testing.assert_allclose(represent(res.best_decomposition), C, atol=1e-13)


def test_inexact_winning_seed_pays_for_what_it_misses():
    # D_x H D_x with unbalanced x: the seed (x x^T, H) costs |x|^2 sqrt(n) = 24
    # at p = 1, below the entrywise 36 and both n ||C||_p, n ||C||_{p*}
    x = np.array([1.0, 1.0, 1.0, 3.0])
    H = sylvester(4)
    C = x[:, None] * H * x
    A = np.outer(x, x).astype(complex)
    A[0, 0] += 1e-10  # the seed misses C by 1e-10 at one entry
    best = HerzDecomposition._make(as_index(1), A[None], H[None], 4, target=C)
    # one more term (C - R, J) carries what the seed misses
    assert len(best.terms) == 2 and best.terms[0][0][0, 0] == A[0, 0]
    np.testing.assert_array_equal(best.terms[1][1], np.ones((4, 4)))
    assert best.cost == pytest.approx(24.0, rel=1e-9)
    assert best.cost >= 24.0 + 1e-10


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_p2_decomposition_represents_the_input_bit_for_bit(ens):
    # the cyclic diagonals are completed by the term carrying their miss
    for n in range(1, 17):
        for seed in range(1, 6):
            for k in (0, 600, -600):
                C = ldexp(random_matrix(n, ensemble=ens, seed=seed), k)
                res = herz_norm(C, 2)
                best = res.best_decomposition
                assert np.array_equal(best.represented(), C)
                assert len(best.terms) <= n + 1
                assert best.cost == pytest.approx(res.bracket.upper, rel=1e-15)


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_upper_bound_is_the_cost_of_the_returned_decomposition(ens):
    # the winner comes back with a term carrying what it misses of C, so the
    # record's decomposition prices exactly to the upper bound
    for n in range(1, 6):
        for p in (1, 1.5, 3):
            for seed in range(1, 6):
                C = random_matrix(n, ensemble=ens, seed=seed)
                res = herz_norm(C, p)
                best = res.best_decomposition
                assert res.bracket.upper == best.cost
                np.testing.assert_allclose(represent(best), C, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_p_inf_bracket_matches_p1_on_hadamard(n):
    # herz_p = herz_{p*}, and theta = 1 at both ends, so the phase symbol
    # gives p = oo the lower bound n^2 / sqrt(n) it gives p = 1
    H = sylvester(n)
    b1 = herz_norm(H, 1).bracket
    binf = herz_norm(H, INF).bracket
    assert (binf.lower, binf.upper) == (b1.lower, b1.upper)
    assert binf.converged and b1.converged
    assert binf.upper == pytest.approx(n ** 1.5, rel=1e-12)


@pytest.mark.parametrize("ens", ["gaussian", "sign", "sparse", "unitary"])
def test_bracket_does_not_depend_on_memory_layout(ens):
    # a Fortran-ordered copy (a transposed view has that layout) must give
    # the same bytes: BLAS products round differently on the two layouts
    for n in (3, 5, 8):
        for seed in (1, 2, 3):
            C = random_matrix(n, ensemble=ens, seed=seed)
            for p in (1.5, 3):
                a, b = herz_norm(C, p), herz_norm(np.asfortranarray(C), p)
                assert (a.bracket.lower, a.bracket.upper, a.bracket.iterations) \
                    == (b.bracket.lower, b.bracket.upper, b.bracket.iterations)
                terms = lambda r: [(A.tobytes(), B.tobytes())
                                   for A, B in r.best_decomposition.terms]
                assert terms(a) == terms(b)


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_lower_takes_the_phase_symbol_zero_off_the_support(p):
    # an 8 x 8 Hadamard in the corner of a 16 x 16 zero symbol: the phase
    # symbol is 0 off the support, so |<C, D>| / gamma2(D) reaches
    # sum |c_ij| / gamma2 of the 8 x 8 block
    C = np.zeros((16, 16), dtype=complex)
    C[:8, :8] = sylvester(8)
    D = np.zeros_like(C)
    D[:8, :8] = sylvester(8)
    bound = np.sum(np.abs(C)) / gamma2(D)[0].upper
    assert herz_norm(C, p).bracket.lower >= bound


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["gaussian", "sign", "sparse", "unitary"]), st.integers(1, 16),
       st.integers(1, 50), st.sampled_from([1, 1.5, 3, 4, INF]), st.sampled_from([0, 600, -600]))
def test_lower_stays_below_the_upper_before_the_clamp(ens, n, seed, p, e):
    # both bounds are tight on some symbols (a 2 x 2 Hadamard, a 1 x 1
    # symbol), where the dual's own value and the upper bound round apart by
    # an ulp or two; the certificate names the value after the clamp
    C = ldexp(random_matrix(n, ensemble=ens, seed=seed), e)
    if not np.any(C):
        return
    res = herz_norm(C, p)
    assert res.dual_functional["value"] <= res.bracket.upper * (1 + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("ens", ["sign", "unitary"])
def test_phase_symbol_raises_the_interior_lower_bound(p, ens):
    # on spread-out symbols the phase symbol, divided by k^(theta/2) or
    # factored by its SVD, beats every unimodular pair the phase ascent
    # finds, at interior p too
    for n in (8, 16):
        for seed in (1, 2, 3):
            C = random_matrix(n, ensemble=ens, seed=seed)
            res = herz_norm(C, p)
            pair = reference_phase_ascent(C, 8, 0)[0]
            dual = res.dual_functional
            assert dual["kind"] == "factored-symbol" and source(C, dual["P"]) != "solve"
            np.testing.assert_allclose(dual["P"] @ dual["Q"].T, unit_phases(C).conj(),
                                       rtol=0, atol=1e-13)
            assert res.bracket.lower > 1.2 * pair


@pytest.mark.parametrize("n", [40, 64])
def test_endpoints_bracket_symbols_up_to_max_dim(n):
    # the endpoint sides run no gamma2 solve, so n up to core.MAX_DIM gets a
    # closed bracket, the same at p = 1 and p = oo (herz_p = herz_{p*}, and
    # p = oo is computed at p = 1)
    C = random_matrix(n, ensemble="sign", seed=1)
    b1 = herz_norm(C, 1).bracket
    binf = herz_norm(C, INF).bracket
    assert (binf.lower, binf.upper) == (b1.lower, b1.upper)
    assert 0 < b1.lower <= b1.upper
    assert b1.converged and binf.converged


def test_certificate_names_the_clamped_lower_bound():
    # the dual value can round an ulp above the upper bound before the
    # clamp; the certificate carries the clamped value on both kinds of
    # symbol, so a re-checker comparing it with the upper bound sees no
    # crossed bracket
    for ens in ("gaussian", "sign", "sparse", "unitary"):
        for n in range(1, 17):
            for seed in (1, 2, 3):
                C0 = random_matrix(n, ensemble=ens, seed=seed)
                if not np.any(C0):
                    continue
                for p in (1, 1.5, 3, 4, INF):
                    for e in (0, 600, -600):
                        res = herz_norm(ldexp(C0, e), p)
                        b = res.bracket
                        assert res.dual_functional["value"] == b.lower <= b.upper
                        assert b.lower_certificate["value"] == b.lower


def endpoint(p):
    return abs(1.0 - 2.0 / as_index(p).value) == 1.0


_SOLVED = {}


def solve(S, floor=0.0):
    """The mixing solve on S, given its largest singular value as herz_norm
    gives it; at floor 0 no price stops it, and its result is kept, since
    S = C * 2**-e is one matrix at every scale and exponent."""
    if floor:
        return _mixing(S, np.linalg.svd(S, compute_uv=False)[0], floor)
    key = (S.shape, S.flags.f_contiguous, S.tobytes())
    if key not in _SOLVED:
        _SOLVED[key] = _mixing(S, np.linalg.svd(S, compute_uv=False)[0], 0.0)
    return _SOLVED[key]


def low(p):
    """min(p, p*), the exponent herz computes at."""
    pi = as_index(p)
    return pi.conjugate() if pi.value > 2 else pi


def mixing_candidate(S, e):
    """herz_norm's mixing decomposition of C = S * 2**e at p = 1, as factor
    stacks, with the solve's (sweeps, found)."""
    sweeps, found = solve(S)
    return (ldexp(found[2], max(e, 0))[None], ldexp(found[3], min(e, 0))[None]), sweeps, found


def l1_split(S, e):
    """The l_1-weighted split of C = S * 2**e as factor stacks: u v^T and
    D_u^-1 S D_v^-1, u and v the square roots of the row and column l_1
    sums, zero off the nonzero rows and columns, 2**e placed as herz places
    it."""
    ix = np.ix_(np.any(S, axis=1), np.any(S, axis=0))
    R = S[ix]
    u, v = np.sqrt(np.sum(np.abs(R), axis=1)), np.sqrt(np.sum(np.abs(R), axis=0))
    F, G = np.zeros_like(S), np.zeros_like(S)
    F[ix], G[ix] = np.outer(u, v), R / u[:, None] / v
    return ldexp(F, max(e, 0))[None], ldexp(G, min(e, 0))[None]


def interpolated(P, Q, S, theta):
    """|<P Q^T, S>| / (g min(1, m/g)^(1 - theta)), g^theta m^(1 - theta) as
    m <= g: g the product of the largest row norms of P and Q, m the
    largest modulus of P Q^T."""
    g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
    D = P @ Q.T
    m = np.max(np.abs(D))
    return abs(pair_with_multiplier(D, S)) / (g * min(1.0, m / g) ** (1 - theta))


def svd_factors(D):
    """P = U sig^(1/2) and Q = conj(V) sig^(1/2) from the SVD U diag(sig) V^H
    of D, so P Q^T = D."""
    U, sig, Vh = np.linalg.svd(D)
    return U * np.sqrt(sig), np.ascontiguousarray(Vh.T) * np.sqrt(sig)


def phase_factors(D):
    """(D, I) where D's largest row support is at most its largest column
    support, else (I, D^T): the factoring of the phase symbol D whose g is
    sqrt(k), k the smaller of the two."""
    support = D != 0
    eye = np.eye(D.shape[0], dtype=complex)
    if support.sum(axis=1).max() <= support.sum(axis=0).max():
        return D, eye
    return eye, np.ascontiguousarray(D.T)


def source(C, P):
    """Which witness a factored-symbol certificate with left factor P is:
    the phase symbol factored as D I or I D ("phase") or by its SVD
    ("svd"), or the mixing solve's X Y^T ("solve")."""
    phase = np.where(C != 0, unit_phases(C).conj(), 0)
    for name, factors in (("phase", phase_factors(phase)), ("svd", svd_factors(phase))):
        if P.tobytes() == factors[0].tobytes():
            return name
    return "solve"


def reference_herz_norm(C, p, mixing=True, sides=True):
    """herz_norm at p != 2 without its shortcuts: computed at q = min(p, p*),
    the right factors priced at p where p > 2 and at q* elsewhere, every
    candidate is built, C o J too (after J o C, so it shows that it never
    wins strictly), the mixing decomposition at q = 1 and, at interior q,
    the l_1-weighted split unless it prices within 1e-9 of J o C or the
    expansion, and the mixing solve always runs, to the end
    (floor 0); at p > 2 the winner's terms are swapped, each at its price.
    The lower bound is the largest finite one of the phase symbol factored
    as D I or I D, at interior q the phase symbol factored by its SVD, and
    the solve's X Y^T, each factored pair divided by g^theta m^(1 - theta);
    ties go to the later one.  Without ``sides``
    there is no split and no SVD-factored symbol, and X Y^T is divided by
    g: the rule before them.  Without ``mixing``, p = 1 and oo are bracketed
    as they were before the mixing solve: closed forms above, the phase
    ascent or the symbol below.  Returns the result's fields that herz_norm
    must reproduce, the search's value (None where the solve finds nothing)
    and the floor herz gives the solve: the largest value of the witnesses
    before it, both in units of 2**e.  C is nonzero."""
    pi, q, n = as_index(p), low(p), C.shape[0]
    r = pi if q != pi else q.conjugate()
    e = modulus_exponent(C)
    S = ldexp(C, -e)
    nz = C != 0
    theta = abs(1.0 - 2.0 / q.value)
    D = np.where(nz, unit_phases(C).conj(), 0.0)
    J = np.ones((1, n, n), dtype=complex)
    stacks = [(J, C[None]), (C[None], J), _entrywise_stacks(S, e, q)]
    lows = [(interpolated(*phase_factors(D), S, theta), "factored-symbol")]
    if sides and not endpoint(pi):
        split = l1_split(S, e)
        price = schatten_norm(ldexp(split[0][0], -max(e, 0)), q) \
            * schatten_norm(ldexp(split[1][0], -min(e, 0)), r)
        if price * (1 + 1e-9) < min(n * schatten_norm(S, r), np.sum(np.abs(S))):
            stacks.append(split)
        lows.append((interpolated(*svd_factors(D), S, theta), "factored-symbol"))
    floor = max(w for w, _ in lows)
    val = None
    if mixing:
        sweeps, found = solve(S)
        if found is not None:
            val = interpolated(*found[:2], S, theta if sides else 1.0)
            lows.append((val, "factored-symbol"))
            if endpoint(pi):
                stacks.append(mixing_candidate(S, e)[0])
    else:
        val = reference_phase_ascent(S, 8, 0)[0]
        lows.append((val, "unimodular-pair"))
    best = min((HerzDecomposition._make(q, As, Bs, n, target=C, r=r) for As, Bs in stacks),
               key=lambda d: (d.cost, len(d.terms)))
    if q != pi:
        best = HerzDecomposition._make(pi, best._Bs, best._As, n,
                                       price=(np.array(best._costs), best._e, best._R))
    lower, kind = max(((float(np.ldexp(w, e)), kind) for w, kind in reversed(lows)),
                      key=lambda c: (c[0] < np.inf, c[0]))
    b = NormBracket(min(lower, best.cost), best.cost)
    fields = (b.lower, b.upper, (b.upper - b.lower) <= 1e-6 * b.upper, kind, b.lower,
              [(A.tobytes(), B.tobytes()) for A, B in best.terms])
    return fields, val, floor


def dft(n):
    return np.exp(2j * np.pi * np.outer(range(n), range(n)) / n)


def reference_symbols():
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for n in (1, 2, 3, 5, 8, 16):
            for seed in (1, 2):
                yield random_matrix(n, ensemble=ens, seed=seed)
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 8):
        yield np.ones((n, n), dtype=complex)
        yield np.outer(*np.exp(2j * np.pi * rng.random((2, n))))
        yield dft(n)
        yield np.kron(dft(n), np.array([[1, -1], [1j, -1j]]))
    for n in (2, 4, 8, 16):
        yield sylvester(n)


def weighted_prices(S):
    """|u| |v| ||D_u^-1 R D_v^-1||_op, an upper bound on gamma2*(S), at the
    one closed-form weighting of the nonzero block R of S that the solve
    prices before its first sweep: uniform weights."""
    R = S[np.any(S, axis=1)][:, np.any(S, axis=0)]
    m, k = R.shape
    return [np.sqrt(m) * np.sqrt(k) * np.linalg.svd(R, compute_uv=False)[0]]


@pytest.mark.parametrize("p", [1, 1.5, 3, 4, INF])
def test_skipped_work_leaves_every_result_as_it_was(p):
    # building only the cheapest candidate, ending the mixing solve before
    # its first sweep where uniform weights price gamma2*(C) below the
    # phase symbol's value, and stopping it at that value change the
    # reported iterations only.  A call reports 0 sweeps exactly where the
    # uniform price falls below the symbol's value; that happens at every
    # interior p, only where the solve returns less than the symbol's
    # value, and never at p = 1 and oo
    skipped = 0
    for C0 in reference_symbols():
        if not np.any(C0):
            continue
        for e in (0, 600, -600):
            C = ldexp(C0, e)
            res = herz_norm(C, p)
            want, val, floor = reference_herz_norm(C, p)
            b, dual = res.bracket, res.dual_functional
            got = (b.lower, b.upper, b.converged, dual["kind"], dual["value"],
                   [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])
            assert got == want
            assert b.lower_certificate["kind"] == dual["kind"]
            S = ldexp(C, -modulus_exponent(C))
            gated = any(w * (1 + 1e-12) < floor for w in weighted_prices(S))
            assert (b.iterations == 0) == gated
            if gated:
                skipped += 1
                assert val is not None and val < floor
    assert (skipped > 0) == (p in (1.5, 3, 4))


GRID_EXPONENTS = (1, 1.2, 4 / 3, 1.5, 2, 3, 4, INF)


def change_grid():
    """4 ensembles x n in {1, 2, 3, 4, 6, 8, 12, 16} x seeds 1-3 x scales
    2**0 and 2**+-600, less the zero symbols: with the 8 exponents above,
    2,256 calls."""
    for C in grid_symbols(sizes=(1, 2, 3, 4, 6, 8, 12, 16)):
        for k in (0, 600, -600):
            yield ldexp(C, k)


def test_new_sides_only_narrow_the_brackets():
    # against the rule before the l_1-weighted split and the SVD-factored
    # phase symbol (X Y^T divided by g, priced against the same exponent
    # pair): at interior p no upper bound rises and no lower bound falls,
    # and no dual value crosses its upper bound; at p = 1, 2 and oo every
    # result is as it was, to the bit
    calls = moved = 0
    for C in change_grid():
        for p in GRID_EXPONENTS:
            res = herz_norm(C, p)
            b = res.bracket
            calls += 1
            if p == 2:
                e = modulus_exponent(C)
                l1 = float(np.ldexp(np.sum(np.abs(ldexp(C, -e))), e))
                want = _entrywise_stacks(ldexp(C, -e), e, as_index(2))
                assert b.lower == b.upper == l1
                assert [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms] == \
                    [(A.tobytes(), B.tobytes()) for A, B in
                     HerzDecomposition._make(as_index(2), *want, C.shape[0], target=C).terms]
                continue
            old = reference_herz_norm(C, p, sides=False)[0]
            assert res.dual_functional["value"] <= b.upper * (1 + 4 * np.finfo(float).eps)
            if endpoint(p):
                got = (b.lower, b.upper, b.converged, res.dual_functional["kind"],
                       res.dual_functional["value"],
                       [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])
                assert got == old
            else:
                assert b.upper <= old[1] and b.lower >= old[0]
                moved += (b.lower, b.upper) != old[:2]
    assert calls == 2256 and moved > 0


def test_every_factored_symbol_rebuilds_from_its_factors():
    # from P, Q, C and p alone: g from row norms, m as the largest modulus
    # of P Q^T, theta = |1 - 2/p|, and |<P Q^T, C>| / (g^theta m^(1 - theta)),
    # clamped to the upper bound, is the lower bound to 1e-12 relative (the
    # scaling test pins the certificates at other scales to these bytes)
    kinds = {"solve": 0, "svd": 0, "phase": 0}
    for C in grid_symbols(sizes=(1, 2, 3, 4, 6, 8, 12, 16)):
        for p in (1, 1.5, 3, 4, INF):
            b = herz_norm(C, p).bracket
            cert = b.lower_certificate
            assert cert["kind"] == "factored-symbol"
            P, Q = cert["P"], cert["Q"]
            value = interpolated(P, Q, C, abs(1 - 2 / as_index(p).value))
            assert min(value, b.upper) == pytest.approx(b.lower, rel=1e-12)
            kinds[source(C, P)] += 1
    assert min(kinds.values()) > 0


def parent_svd_count(C, p):
    """The SVDs herz_norm took at p != 2 before the split and the
    SVD-factored phase symbol: one of C, the mixing solve's under the phase
    symbol's floor (0 at p = 1 and oo), and two per candidate built, J o C
    and the expansion within 1e-9 of the cheaper (and the mixing split at
    p = 1 and oo).  Counts through the caller's patch of np.linalg.svd."""
    q, n = low(p), C.shape[0]
    e = modulus_exponent(C)
    S = ldexp(C, -e)
    nz = C != 0
    k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
    theta = abs(1.0 - 2.0 / q.value)
    symbol = np.sum(np.abs(S)) / float(k) ** (theta / 2)
    s = np.linalg.svd(S, compute_uv=False)
    floor = symbol if theta < 1 and np.ldexp(symbol, e) < np.inf else 0.0
    found = _mixing(S, s[0], floor)[1]
    prices = [n * float(lp_norms(s, q.conjugate())), np.sum(np.abs(S))]
    if found is not None and theta == 1:
        prices.append(found[4])
    near = (1 + 1e-9) * min(prices) if e > -1022 else np.inf
    return 2 * sum(price <= near for price in prices)


def test_new_sides_take_at_most_two_more_svds(monkeypatch):
    # the split takes one values-only SVD and the phase symbol one more:
    # an interior call takes at most two SVDs more than before, a p = 1 or
    # oo call none
    count = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: count.append(1) or svd(*a, **kw))
    more = set()
    for C in grid_symbols(sizes=(2, 3, 5, 8, 16), seeds=(1, 2)):
        for p in (1, 1.5, 3, 4, INF):
            count.clear()
            parent = parent_svd_count(C, p) + len(count)
            count.clear()
            herz_norm(C, p)
            if endpoint(p):
                assert len(count) == parent
            else:
                assert len(count) <= parent + 2
                more.add(len(count) - parent)
    assert 2 in more


@pytest.mark.parametrize("p", [1.5, 3])
def test_predual_base_symbols_stop_by_the_uniform_price_or_the_first_check(p):
    # on the predual benchmark's base symbols the uniform price, free from
    # ||C||_op, ends the solve before its first sweep on gaussian-3,
    # gaussian-8 and sign-16; on sign-3 it does not, and the solve's own
    # price ends it at its first check, 5 sweeps in, with the bracket,
    # terms and certificate of the solve run to its end.  The solve cannot
    # beat the phase symbol there, so the better of its two factorings
    # certifies the lower bound; on the sparse ones the solve runs
    stops = {}
    for n, ens, seed in ((3, "gaussian", 1040), (3, "sign", 1077), (8, "gaussian", 1119),
                         (8, "sparse", 1156), (16, "sign", 1201), (16, "sparse", 1238)):
        C = random_matrix(n, ens, seed=seed)
        res = herz_norm(C, p)
        b, dual = res.bracket, res.dual_functional
        stops[f"{ens}-{n}"] = b.iterations
        if ens != "sign" or n != 3:
            continue
        want, val, floor = reference_herz_norm(C, p)
        assert (b.lower, b.upper, b.converged, dual["kind"], dual["value"],
                [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms]) == want
        assert val < floor
        S, theta = ldexp(C, -modulus_exponent(C)), abs(1 - 2 / low(p).value)
        D = np.where(C != 0, unit_phases(C).conj(), 0)
        P, Q = max(reversed([phase_factors(D), svd_factors(D)]),
                   key=lambda f: interpolated(*f, S, theta))
        assert dual["P"].tobytes() == P.tobytes() and dual["Q"].tobytes() == Q.tobytes()
        g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
        assert (dual["g"], dual["m"]) == (g, np.max(np.abs(P @ Q.T)))
    assert stops["gaussian-3"] == stops["gaussian-8"] == stops["sign-16"] == 0
    assert stops["sign-3"] == 5
    assert stops["sparse-8"] > 0 and stops["sparse-16"] > 0


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_herz_reads_no_option(ens):
    # the solve starts from one fixed draw and has no setting, so every
    # HerzOptions gives the result of the call without one, to the byte
    def fields(res):
        b = res.bracket
        return (json.dumps(bracket_to_obj(b), sort_keys=True), b.iterations,
                [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])

    options = [HerzOptions(seed=seed, restarts=restarts)
               for seed in (0, 1, 7) for restarts in (0, 8)]
    for n in (2, 5, 8):
        C = random_matrix(n, ensemble=ens, seed=n)
        for p in (1, 1.5, 3, INF):
            want = fields(herz_norm(C, p))
            for opts in options:
                assert fields(herz_norm(C, p, opts)) == want


@pytest.mark.parametrize("p", [1, 1.5, 3, 4, INF])
def test_subnormal_symbols_build_every_candidate(p):
    # below the normal range the expansion's factors round away from C, so
    # its completed price can differ from sum |c_ij| by far more than 1e-9:
    # on a rounded rank-one unimodular symbol the expansion is priced below
    # J o C but completes above it
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        C = ldexp(np.outer(*np.exp(2j * np.pi * rng.random((2, n)))), -1070)
        res = herz_norm(C, p)
        b, dual = res.bracket, res.dual_functional
        got = (b.lower, b.upper, b.converged, dual["kind"], dual["value"],
               [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])
        assert got == reference_herz_norm(C, p)[0]


def grid_symbols(sizes=range(2, 17), seeds=(1, 2, 3)):
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for n in sizes:
            for seed in seeds:
                C = random_matrix(n, ensemble=ens, seed=seed)
                if np.any(C):
                    yield C


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_brackets_close(p):
    # gamma2* by the mixing solve: the bracket closes to far below 1e-6 of
    # the upper bound, on the two endpoint-certify base symbols and a grid
    # of 4 ensembles x n in 2..16 x seeds 1..3
    for C in [random_matrix(3, "gaussian", seed=1262), random_matrix(8, "sign", seed=1304),
              *grid_symbols()]:
        res = herz_norm(C, p)
        b = res.bracket
        assert b.width <= 1e-6 * b.upper and b.converged
        assert 0 < b.iterations <= MAX_SWEEPS


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_brackets_are_no_wider_than_the_phase_ascent_ones(p):
    # against the bracket of the closed forms and the phase ascent, as herz
    # was computed at p = 1 and oo before the mixing solve: no upper bound
    # above it, and no bracket wider by more than 1e-9 of the upper bound
    for C in grid_symbols():
        b = herz_norm(C, p).bracket
        old_lower, old_upper = reference_herz_norm(C, p, mixing=False)[0][:2]
        assert b.upper <= old_upper
        assert b.width <= old_upper - old_lower + 1e-9 * b.upper


@pytest.mark.parametrize("p", [1, INF])
def test_factored_symbol_rebuilds_the_lower_bound(p):
    # from P and Q alone: row norms give g >= gamma2(P Q^T), one product
    # gives D = P Q^T, and one pairing gives |<D, C>| / g, the lower bound
    for C in grid_symbols(sizes=(1, 2, 3, 5, 8, 16), seeds=(1, 2)):
        n = C.shape[0]
        b = herz_norm(C, p).bracket
        cert = b.lower_certificate
        P, Q = cert["P"], cert["Q"]
        assert cert["kind"] == "factored-symbol" and P.shape == Q.shape
        support = np.sum(np.any(C, axis=0)) + np.sum(np.any(C, axis=1))
        assert P.shape == (n, math.isqrt(int(support)) + 1)
        g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
        value = abs(pair_with_multiplier(P @ Q.T, C)) / g
        assert cert["g"] == g and min(value, b.upper) == b.lower == cert["value"]


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_decomposition_represents_the_input_and_costs_the_upper(p):
    for C0 in grid_symbols(sizes=(1, 2, 3, 5, 8, 16), seeds=(1, 2)):
        for k in (0, 600, -600):
            C = ldexp(C0, k)
            res = herz_norm(C, p)
            best = res.best_decomposition
            assert np.array_equal(best.represented(), C)
            assert best.cost == res.bracket.upper == res.bracket.upper_certificate["cost"]


@pytest.mark.parametrize("p", [1, 1.5, 3, 4, INF])
def test_bracket_is_seeded_and_scales_by_powers_of_two(p):
    def fields(res):
        b = res.bracket
        return (b.lower, b.upper, b.iterations, dual_bytes(res),
                [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])

    # the solve's fixed start is drawn from seed 0, so a second call gives
    # the same bytes, and a call on C * 2**k the same bracket scaled: every
    # split puts 2**e on its left factor when e > 0 and on its right one
    # when e < 0, at interior p too
    for C in grid_symbols(sizes=(2, 5, 8), seeds=(1, 2)):
        ref = herz_norm(C, p)
        assert fields(herz_norm(C, p)) == fields(ref)
        b = ref.bracket
        for k in (-1000, -600, 600, 1000):
            got = herz_norm(ldexp(C, k), p)
            assert (got.bracket.lower, got.bracket.upper, got.bracket.iterations) \
                == (np.ldexp(b.lower, k), np.ldexp(b.upper, k), b.iterations)
            if "P" in ref.dual_functional:
                assert got.dual_functional["P"].tobytes() == ref.dual_functional["P"].tobytes()


def dual_bytes(res):
    """The lower witness's kind, value, other numbers and arrays, as bytes."""
    dual = res.dual_functional
    arrays = [dual[key].tobytes() for key in ("P", "Q")]
    return dual["kind"], dual["value"], [dual[key] for key in ("g", "m", "theta")], arrays


@pytest.mark.parametrize("p", [1, 1.2, 1.25, 4 / 3, 1.5])
def test_conjugate_exponents_give_one_result(p):
    # herz_p = herz_p*, and herz computes at min(p, p*): where the conjugate
    # map takes p* back to p, the two calls give the same bracket, iterations
    # and certificates, and the same decomposition with its stacks swapped,
    # at every scale
    pi = as_index(p)
    pc = pi.conjugate()
    assert pc.conjugate() == pi
    for C0 in grid_symbols(sizes=(1, 2, 3, 5, 8), seeds=(1, 2)):
        for k in (0, 600, -600):
            C = ldexp(C0, k)
            a, b = herz_norm(C, pi), herz_norm(C, pc)
            assert json.dumps(bracket_to_obj(a.bracket), sort_keys=True) \
                == json.dumps(bracket_to_obj(b.bracket), sort_keys=True)
            assert a.bracket.iterations == b.bracket.iterations
            assert dual_bytes(a) == dual_bytes(b)
            da, db = a.best_decomposition, b.best_decomposition
            assert (da.p, db.p) == (pi, pc)
            assert [(A.tobytes(), B.tobytes()) for A, B in da.terms] \
                == [(B.tobytes(), A.tobytes()) for A, B in db.terms]
            assert da.cost == db.cost


def test_exponents_above_two_share_the_result_of_their_conjugate():
    # 4 conjugates to 4/3, whose conjugate is 4 + 1 ulp (6 likewise): herz
    # at 4 computes at 4/3, so its lower side is 4/3's and its terms are
    # 4/3's swapped, but it prices the factors it returns at 4 and 4/3, so
    # the upper bound is what the returned terms cost at 4, to the bit
    for p in (4, 6):
        pc = as_index(p).conjugate()
        assert pc.conjugate() != as_index(p)
        for C in grid_symbols(sizes=(2, 3, 5, 8)):
            a, b = herz_norm(C, p), herz_norm(C, pc)
            # the same witness, its value clamped to each upper bound
            assert a.bracket.iterations == b.bracket.iterations
            assert a.bracket.lower == b.bracket.lower \
                or a.bracket.lower == a.bracket.upper and b.bracket.lower == b.bracket.upper
            assert dual_bytes(a)[::2] == dual_bytes(b)[::2]
            assert [(A.tobytes(), B.tobytes()) for A, B in a.best_decomposition.terms] \
                == [(B.tobytes(), A.tobytes()) for A, B in b.best_decomposition.terms]
            assert HerzDecomposition.build(p, a.best_decomposition.terms).cost \
                == a.bracket.upper == a.best_decomposition.cost
            assert a.bracket.upper == pytest.approx(b.bracket.upper, rel=1e-15)


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_solve_prices_no_weighting(p, monkeypatch):
    # at p = 1 and oo the phase symbol's value is at most gamma2*(C), so no
    # price can end the solve: herz passes it floor 0, and the uniform
    # price it checks before its first sweep, from the ||C||_op herz holds,
    # takes no SVD, so under any positive floor the result and the SVDs
    # taken are the same
    svds, floors = [], []
    svd, mixing = np.linalg.svd, herzkit.herz._mixing
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))

    def run(C, gate):
        def gated(S, s1, floor):
            floors.append(floor)
            return mixing(S, s1, floor or gate)

        monkeypatch.setattr(herzkit.herz, "_mixing", gated)
        svds.clear()
        res = herz_norm(C, p)
        return (json.dumps(bracket_to_obj(res.bracket), sort_keys=True), dual_bytes(res),
                [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms]), len(svds)

    for C in (random_matrix(32, "gaussian", seed=1), *grid_symbols(sizes=(1, 3, 8), seeds=(1,))):
        got, count = run(C, 0.0)
        assert floors[-1] == 0.0
        assert run(C, np.finfo(float).tiny) == (got, count)


def robustness_symbols():
    yield from grid_symbols(sizes=(1, 2, 3, 5, 8), seeds=(1,))
    for C in grid_symbols(sizes=(2, 3, 5, 8), seeds=(1,)):
        holed = C.copy()
        n = C.shape[0]
        holed[n // 2] = 0.0
        holed[:, 0] = 0.0
        if np.any(holed):
            yield holed
    yield 1.5e307 * dft(4) / 2.0 ** 1000
    yield np.array([[1.0, 2.0 ** -1074], [1.0, -1.0]], dtype=complex)
    yield np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


REFUSALS = ("a bound on the predual norm of this matrix exceeds the float range",
            "matrix entries must be finite (no NaN/Inf)")


@pytest.mark.parametrize("p", [1, INF])
def test_endpoints_return_wherever_the_phase_ascent_path_returned(p):
    # scales 2**-1070 to 2**1023 with zero rows and columns, n = 1 and
    # entries near the float maximum: a bracket is refused only where the
    # closed forms and the phase ascent refused it too or put a bound out of
    # the float range, and with one of their messages
    top_scale = modulus_exponent(np.array([np.finfo(float).max]))
    for C0 in robustness_symbols():
        for k in (-1070, -1000, 0, 1000, top_scale - modulus_exponent(C0)):
            with np.errstate(over="ignore"):
                C = ldexp(C0, k)
            if not np.all(np.isfinite(C)) or not np.any(C):
                continue
            try:
                res = herz_norm(C, p)
            except InputError as err:
                assert str(err) in REFUSALS
                try:
                    with np.errstate(over="ignore"):
                        old = reference_herz_norm(C, p, mixing=False)[0]
                except InputError as old_err:
                    assert str(old_err) in REFUSALS
                else:
                    assert not np.isfinite(old[1])
                continue
            b = res.bracket
            assert np.isfinite(b.upper) and 0 < b.lower <= b.upper
            assert res.dual_functional["value"] == b.lower == b.lower_certificate["value"]
            assert res.best_decomposition.cost == b.upper


def test_a_failed_mixing_solve_leaves_the_symbol_and_the_closed_forms(monkeypatch):
    # a zero or non-finite weight ends the solve without its candidate and
    # its lower side; the bracket is the phase symbol's and the closed forms'
    monkeypatch.setattr(herzkit.herz, "_mixing", lambda S, s1, floor: (15, None))
    for C in grid_symbols(sizes=(1, 3, 8), seeds=(1,)):
        n, nz = C.shape[0], C != 0
        k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
        closed = [n * schatten_norm(C, 1), n * schatten_norm(C, INF), np.sum(np.abs(C))]
        for p in (1, INF):
            res = herz_norm(C, p)
            b, dual = res.bracket, res.dual_functional
            assert dual["kind"] == "factored-symbol" and source(C, dual["P"]) == "phase"
            assert dual["g"] == pytest.approx(np.sqrt(k), rel=1e-15)
            assert b.iterations == 15
            assert b.upper == pytest.approx(min(closed), rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 3, 4])
def test_interior_lower_bound_is_no_lower_than_the_phase_ascent(p):
    # the mixing solve searches a set of symbols holding every rank-one
    # unimodular a b^T, so it gives up at most the width within which it
    # stops (gamma2.WIDTH_FLOOR) against the phase ascent's best pair
    for C in grid_symbols(sizes=(2, 3, 4, 6, 8)):
        want = reference_phase_ascent(C, 8, 0)[0]
        assert herz_norm(C, p).bracket.lower >= want * (1 - 1e-9)


def test_mixing_solve_raises_the_interior_lower_bound():
    # on a sparse 16 x 16 symbol at p = 1.5 the solve beats both the phase
    # symbol and the phase ascent's best pair by more than 0.5% of the
    # upper bound
    C = random_matrix(16, "sparse", seed=1)
    res = herz_norm(C, 1.5)
    b = res.bracket
    nz = C != 0
    k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
    symbol = np.sum(np.abs(C)) / k ** (1 / 6)  # theta = 1/3 at p = 1.5
    before = max(reference_phase_ascent(C, 8, 0)[0], symbol)
    assert res.dual_functional["kind"] == "factored-symbol"
    assert b.lower - before > 5e-3 * b.upper


@pytest.mark.parametrize("p", [1.5, 3])
def test_floor_ends_the_interior_solve_early(p):
    # on this sparse 16 x 16 symbol no closed-form weighting prices below
    # the phase symbol's value, factored by its SVD, but the solve's price
    # does at an early check; run to the end, the solve returns less than
    # that value anyway
    C = random_matrix(16, "sparse", seed=1238)
    res = herz_norm(C, p)
    full, found = solve(ldexp(C, -modulus_exponent(C)))
    _, val, floor = reference_herz_norm(C, p)
    P = svd_factors(np.where(C != 0, unit_phases(C).conj(), 0))[0]
    assert res.dual_functional["P"].tobytes() == P.tobytes()
    assert 0 < res.bracket.iterations < full // 10
    assert found is not None and val < floor


@pytest.mark.parametrize("p", [1, 1.5, 3, INF])
def test_entrywise_expansion_keeps_a_float_maximum_entry(p):
    # 2**e goes on the left factor when e > 0, the one with the larger power
    # of the entry moduli at q = min(p, p*), so no factor of the expansion
    # of 2**1023 E_01 leaves the float range
    C = np.zeros((2, 2), dtype=complex)
    C[0, 1] = 2.0 ** 1023
    res = herz_norm(C, p)
    assert res.bracket.lower == res.bracket.upper == 2.0 ** 1023
    assert np.array_equal(res.best_decomposition.represented(), C)
