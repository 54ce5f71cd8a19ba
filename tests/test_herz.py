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
    modulus_exponent,
    random_matrix,
    schatten_norm,
    truncate,
)
import herzkit.herz
from herzkit.gamma2 import MAX_SWEEPS, gamma2
from herzkit.herz import (
    HerzDecomposition,
    HerzNormResult,
    HerzOptions,
    contract_diagonal,
    contract_product,
    herz_norm,
    herz_schur_product,
    herz_tensor,
    herz_truncate,
    matrix_product,
    pair_with_multiplier,
    represent,
    _entrywise_stacks,
    _mixing,
    _phase_ascent,
    submultiplicativity_check,
)

CHEAP = HerzOptions(restarts=4, seed=0)


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
    res = herz_norm(J, 1, CHEAP)
    assert res.bracket.lower >= 4 - 1e-6
    assert res.bracket.upper <= 4 + 1e-6


def test_decomposition_cost_matches_upper():
    C = random_matrix(3, ensemble="gaussian", seed=8)
    res = herz_norm(C, 1.5, CHEAP)
    assert res.best_decomposition.cost == pytest.approx(res.bracket.upper, rel=1e-12)
    np.testing.assert_allclose(represent(res.best_decomposition), C, atol=1e-9)


def test_single_matrix_unit_costs_one():
    E = np.zeros((3, 3), dtype=complex)
    E[0, 0] = 1.0
    res = herz_norm(E, 1, CHEAP)
    assert res.bracket.upper <= 1 + 1e-9
    assert res.bracket.lower >= 1 - 1e-9


def test_lower_is_witnessed_dual_value():
    # pins the three kinds of lower certificate and their values; every
    # witness is cb-normed, so every herz bracket also contains herz_cb, the
    # predual norm of M_{p,cb}
    kinds = set()
    for C, p in ((random_matrix(3, ensemble="gaussian", seed=12), 3.0),
                 (random_matrix(8, ensemble="sign", seed=12), 3.0),
                 (random_matrix(6, ensemble="sparse", seed=12), 1.5),
                 (random_matrix(5, ensemble="unitary", seed=12), INF),
                 (random_matrix(4, ensemble="gaussian", seed=12), 2)):
        res = herz_norm(C, p, CHEAP)
        dual = res.dual_functional
        kinds.add(dual["kind"])
        if dual["kind"] == "unimodular-pair":
            a, b = dual["a"], dual["b"]
            # rank-one unimodular symbols have multiplier norm exactly one,
            # so the pairing value is a legitimate lower bound
            assert abs(a @ C @ b) == pytest.approx(res.bracket.lower, abs=1e-9)
            assert np.max(np.abs(np.abs(a) - 1)) < 1e-12
            assert np.max(np.abs(np.abs(b) - 1)) < 1e-12
        elif dual["kind"] == "factored-symbol":
            # D = P Q^T has gamma2(D) <= g, the largest row norms' product
            P, Q = dual["P"], dual["Q"]
            g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
            assert dual["g"] == g
            value = abs(pair_with_multiplier(P @ Q.T, C)) / g
            assert value == pytest.approx(res.bracket.lower, rel=1e-12)
        else:
            # the phase symbol: entries of modulus at most 1, multiplier norm
            # at most k^(theta/2), k the smaller of its largest row and
            # column support
            D = dual["symbol"]
            assert dual["kind"] == "multiplier-symbol"
            assert np.max(np.abs(D)) <= 1 + 1e-15
            support = D != 0
            k = min(support.sum(axis=0).max(), support.sum(axis=1).max())
            theta = abs(1 - 2 / as_index(p).value)
            assert dual["norm_upper"] == pytest.approx(k ** (theta / 2), rel=1e-15)
            value = abs(pair_with_multiplier(D, C)) / dual["norm_upper"]
            assert value == pytest.approx(res.bracket.lower, rel=1e-12)
    assert kinds == {"unimodular-pair", "multiplier-symbol", "factored-symbol"}


def test_build_rejects_mixed_shapes():
    with pytest.raises(InputError):
        HerzDecomposition.build(2, [(np.ones((2, 2)), np.ones((3, 3)))])
    with pytest.raises(InputError):
        HerzDecomposition.build(2, [], dim=None)


def test_truncation_never_raises_cost():
    C = random_matrix(4, ensemble="gaussian", seed=19)
    res = herz_norm(C, 1.5, CHEAP)
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
        x = herz_norm(C, 1.5, CHEAP).best_decomposition
        y = herz_norm(D, 1.5, CHEAP).best_decomposition
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


def test_contract_product_recovers_matrix_product():
    A = random_matrix(3, ensemble="gaussian", seed=61)
    B = random_matrix(3, ensemble="gaussian", seed=62)
    E = np.kron(A, B)
    F = np.ones((9, 9), dtype=complex)
    # on a Kronecker pair against all-ones, the contraction along the
    # product pattern collapses to the ordinary matrix product
    np.testing.assert_allclose(contract_product(E, F), A @ B, atol=1e-12)


def test_contract_product_factors_on_kron_inputs():
    A = random_matrix(2, ensemble="gaussian", seed=63)
    B = random_matrix(2, ensemble="gaussian", seed=64)
    C = random_matrix(2, ensemble="gaussian", seed=65)
    D = random_matrix(2, ensemble="gaussian", seed=66)
    got = contract_product(np.kron(A, B), np.kron(C, D))
    np.testing.assert_allclose(got, (A * C) @ (B * D), atol=1e-12)


def test_contract_diagonal_on_kron_inputs():
    A = random_matrix(2, ensemble="gaussian", seed=67)
    B = random_matrix(2, ensemble="gaussian", seed=68)
    C = random_matrix(2, ensemble="gaussian", seed=69)
    D = random_matrix(2, ensemble="gaussian", seed=70)
    got = contract_diagonal(np.kron(A, B), np.kron(C, D))
    np.testing.assert_allclose(got, (A * B) * (C * D), atol=1e-12)


def test_matrix_product_shape_check():
    with pytest.raises(InputError):
        matrix_product(np.ones((2, 3)), np.ones((2, 3)))


def test_submultiplicativity_check_passes():
    C = random_matrix(3, ensemble="sign", seed=71)
    D = random_matrix(3, ensemble="gaussian", seed=72)
    for product in ("schur", "matrix"):
        rep = submultiplicativity_check(C, D, 1.5, product=product, opts=CHEAP)
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
    assert submultiplicativity_check(C, C, 1.5, opts=CHEAP).passed


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
    res = herz_norm(C, 1.2, HerzOptions(restarts=2))
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
            res = herz_norm(C, p, HerzOptions(restarts=0))
            # C o J, J o C and the entrywise expansion
            closed = [forms[0].cost, forms[1].cost, float(np.sum(np.abs(C)))]
            q = res.best_decomposition.p.conjugate()
            assert closed[:2] == pytest.approx([n * schatten_norm(C, p), n * schatten_norm(C, q)],
                                               rel=1e-12)
            if endpoint(p):  # the mixing decomposition can undercut them
                assert res.bracket.upper <= min(closed) * (1 + 1e-14)
            else:
                assert res.bracket.upper == pytest.approx(min(closed), rel=1e-14)
            # the upper bound is the winner's cost plus what its terms miss of C
            missed = float(np.sum(np.abs(represent(res.best_decomposition) - C)))
            assert res.best_decomposition.cost + missed == res.bracket.upper
            dev = np.max(np.abs(represent(res.best_decomposition) - C))
            assert dev <= 1e-12 * np.max(np.abs(C))


def test_iterations_count_phase_ascent_alternations():
    C = random_matrix(4, ensemble="gaussian", seed=5)
    opts = HerzOptions(restarts=3, seed=1)
    count = herz_norm(C, 4, opts).bracket.iterations
    assert 0 < count <= (opts.restarts + 2) * 60
    assert herz_norm(C, 4, opts).bracket.iterations == count
    # on the all-ones matrix both starts stop after one alternation
    J = np.ones((3, 3), dtype=complex)
    assert herz_norm(J, 4, HerzOptions(restarts=0, iters=500)).bracket.iterations == 2
    # at p = 1 and oo it counts the mixing solve's sweeps, which the all-ones
    # matrix ends at the first check; restarts are not read there
    sweeps = herz_norm(C, 1, opts).bracket.iterations
    assert 5 < sweeps <= MAX_SWEEPS
    for q, o in ((1, HerzOptions(restarts=0, seed=1)), (INF, opts)):
        assert herz_norm(C, q, o).bracket.iterations == sweeps
    assert herz_norm(J, 1, HerzOptions(restarts=0, iters=500)).bracket.iterations == 5
    assert herz_norm(C, 2, opts).bracket.iterations == 0
    assert herz_norm(np.zeros((2, 2)), 1.5, opts).bracket.iterations == 0
    # at p = 1.5 a cap on the ascent's value falls below the phase symbol's,
    # so the ascent is skipped
    res = herz_norm(C, 1.5, opts)
    assert res.bracket.iterations == 0
    assert res.dual_functional["kind"] == "multiplier-symbol"


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
    # at p = 1.5 the ascent is skipped at every scale, and the symbol's
    # bracket scales with C
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


def top(C):
    """The top left singular vector that herz_norm passes to the ascent."""
    return np.linalg.svd(C)[0][:, 0]


def reference_phase_ascent(C, restarts, seed, iters=60):
    """One start at a time: the loop that the stacked phase ascent must
    reproduce.  C is nonzero."""
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
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for e in (0, 600, -600):
            C = random_matrix(n, ensemble=ens, seed=7 * n + restarts) * 2.0 ** e
            assert np.any(C)
            val, a, b, steps = _phase_ascent(C, top(C), restarts, seed=3)
            want = reference_phase_ascent(C, restarts, seed=3)
            assert (val, steps) == (want[0], want[3])
            assert a.tobytes() == want[1].tobytes()
            assert b.tobytes() == want[2].tobytes()


@pytest.mark.parametrize("p", [1.5, 3])
def test_phase_ascent_witness_carries_the_lower_bound(p):
    # a start that stops on a fall keeps its value and the (a, b) that
    # attains it, so |a^T C b| re-checks the value the ascent returns; on
    # the 2 x 2 unitary draw of seed 10 the last iterate falls below the
    # value kept.  herz_norm runs the ascent on C * 2**-e at these options,
    # and its lower bound is at least the pair's value
    opts = HerzOptions()
    for n in (2, 3):
        for ens in ("gaussian", "unitary", "sign", "sparse"):
            for seed in range(1, 11):
                C = random_matrix(n, ensemble=ens, seed=seed)
                if not np.any(C):
                    continue
                e = modulus_exponent(C)
                S = ldexp(C, -e)
                val, a, b, _ = _phase_ascent(S, top(S), opts.restarts, opts.seed)
                assert abs(a @ S @ b) >= val
                br = herz_norm(C, p, opts).bracket
                assert br.lower >= min(float(np.ldexp(val, e)), br.upper)


@pytest.mark.parametrize("restarts", [0, 2, 8])
def test_phase_ascent_at_n1(restarts):
    # a 1x1 stack multiplies in a different order than the 1-d loop did,
    # so the value may move by one ulp; it is |c| up to rounding either way
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for seed in (1, 2, 3):
            C = random_matrix(1, ensemble=ens, seed=seed)
            if not np.any(C):
                continue
            val, a, b, steps = _phase_ascent(C, top(C), restarts, seed=0)
            want = reference_phase_ascent(C, restarts, seed=0)
            assert steps == want[3]
            assert abs(val - want[0]) <= np.spacing(want[0])
            assert val == pytest.approx(abs(C[0, 0]), rel=4e-16)
            assert abs(a[0]) == pytest.approx(1.0, abs=1e-15)
            assert abs(b[0]) == pytest.approx(1.0, abs=1e-15)


def test_each_candidate_is_priced_once(monkeypatch):
    calls = []
    term_costs = herzkit.herz._term_costs

    def counted(As, Bs, p):
        calls.append(len(As))
        return term_costs(As, Bs, p)

    monkeypatch.setattr(herzkit.herz, "_term_costs", counted)
    C = random_matrix(16, ensemble="sign", seed=1)
    res = herz_norm(C, 1.5)
    # only the cheapest closed form is built: J o C at 16 ||C||_3 undercuts
    # C o J at 16 ||C||_1.5 and the expansion at sum |c_ij| = 256
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

    def counted(As, Bs, p):
        calls.append(len(As))
        return term_costs(As, Bs, p)

    monkeypatch.setattr(herzkit.herz, "_term_costs", counted)
    herz_norm(random_matrix(8, ensemble="sparse", seed=1), 1.5)
    # only the cheapest closed form is built: the 8 cyclic diagonals with
    # the term carrying their miss
    assert calls == [9]


@pytest.mark.parametrize("ens", ["gaussian", "unitary", "sign", "sparse"])
def test_upper_bound_is_the_cheapest_completed_candidate(ens):
    # every candidate is completed against C before it is ranked, so the
    # upper bound is the smallest price among the completed candidates
    for n in range(1, 9):
        for p in (1, 1.5, 3):
            pi = as_index(p)
            C = random_matrix(n, ensemble=ens, seed=n)
            if not np.any(C):
                continue
            res = herz_norm(C, pi, HerzOptions(restarts=0))
            e = modulus_exponent(C)
            J = np.ones((1, n, n), dtype=complex)
            stacks = [(C[None], J), (J, C[None]), _entrywise_stacks(ldexp(C, -e), e, pi)]
            if endpoint(pi):  # and the mixing decomposition
                stacks.append(mixing_candidate(ldexp(C, -e), e, pi, 0)[0])
            costs = [HerzDecomposition._make(pi, As, Bs, n, target=C).cost
                     for As, Bs in stacks]
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
    pi = as_index(p)
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
                    terms = tuple(zip(*_entrywise_stacks(ldexp(Ck, -e), e, pi)))
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
            res = herz_norm(C, p, HerzOptions(restarts=2))
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
            assert b2.lower == b2.upper >= herz_norm(C, 1.5, HerzOptions(restarts=2)).bracket.lower


@pytest.mark.parametrize("p", [1.5, 2])
def test_64_gaussian_decomposes_into_at_most_64_terms(p):
    C = random_matrix(64, ensemble="gaussian", seed=1)
    res = herz_norm(C, p, HerzOptions(restarts=0))
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
                res = herz_norm(C, p, HerzOptions(restarts=0))
                best = res.best_decomposition
                assert res.bracket.upper == best.cost
                np.testing.assert_allclose(represent(best), C, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_p_inf_bracket_matches_p1_on_hadamard(n):
    # herz_p = herz_{p*}, and theta = 1 at both ends, so the phase symbol
    # gives p = oo the lower bound n^2 / sqrt(n) it gives p = 1
    H = sylvester(n)
    b1 = herz_norm(H, 1, HerzOptions(restarts=0)).bracket
    binf = herz_norm(H, INF, HerzOptions(restarts=0)).bracket
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
    assert herz_norm(C, p, HerzOptions(restarts=0)).bracket.lower >= bound


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
    res = herz_norm(C, p, HerzOptions(restarts=2))
    assert res.dual_functional["value"] <= res.bracket.upper * (1 + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("ens", ["sign", "unitary"])
def test_phase_symbol_raises_the_interior_lower_bound(p, ens):
    # on spread-out symbols sum |c_ij| / k^(theta/2) beats every unimodular
    # pair the ascent finds, at interior p too
    opts = HerzOptions()
    for n in (8, 16):
        for seed in (1, 2, 3):
            C = random_matrix(n, ensemble=ens, seed=seed)
            res = herz_norm(C, p, opts)
            pair = _phase_ascent(C, top(C), opts.restarts, opts.seed)[0]
            assert res.dual_functional["kind"] == "multiplier-symbol"
            assert res.bracket.lower > 1.2 * pair


@pytest.mark.parametrize("n", [40, 64])
def test_endpoints_bracket_symbols_up_to_max_dim(n):
    # the endpoint sides run no gamma2 solve, so n up to core.MAX_DIM gets a
    # closed bracket, the same at p = 1 and p = oo (herz_p = herz_{p*}) up
    # to the term carrying what the mixing decomposition misses of C, which
    # costs n ||miss||_1 at p = 1 and n ||miss||_oo at p = oo
    C = random_matrix(n, ensemble="sign", seed=1)
    b1 = herz_norm(C, 1, HerzOptions(restarts=0)).bracket
    binf = herz_norm(C, INF, HerzOptions(restarts=0)).bracket
    assert binf.lower == b1.lower and binf.upper == pytest.approx(b1.upper, rel=1e-14)
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
                        res = herz_norm(ldexp(C0, e), p, HerzOptions(restarts=2))
                        b = res.bracket
                        assert res.dual_functional["value"] == b.lower <= b.upper
                        assert b.lower_certificate["value"] == b.lower


def endpoint(p):
    return abs(1.0 - 2.0 / as_index(p).value) == 1.0


def mixing_candidate(S, e, pi, seed):
    """herz_norm's mixing decomposition of C = S * 2**e at p = 1 or oo, as
    factor stacks, with the solve's (sweeps, found)."""
    sweeps, found = _mixing(S, seed)
    A, B = (found[2], found[3]) if pi.value == 1 else (found[3], found[2])
    return (ldexp(A, max(e, 0))[None], ldexp(B, min(e, 0))[None]), sweeps, found


def reference_herz_norm(C, p, opts, mixing=True):
    """herz_norm at p != 2 without its shortcuts: every candidate is built,
    the mixing decomposition too at p = 1 and oo, and at interior p the
    phase ascent always runs.  Without ``mixing``, p = 1 and oo are
    bracketed as they were before the mixing solve: closed forms above,
    the phase ascent or the symbol below.  Returns the result's fields that
    herz_norm must reproduce, the ascent's value (None where it does not
    run) and the phase symbol's, both in units of 2**e.  C is nonzero."""
    pi, n = as_index(p), C.shape[0]
    e = modulus_exponent(C)
    S = ldexp(C, -e)
    nz = C != 0
    k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
    symbol = np.sum(np.abs(S)) / float(k) ** (abs(1.0 - 2.0 / pi.value) / 2)
    value = float(np.ldexp(symbol, e))
    J = np.ones((1, n, n), dtype=complex)
    stacks = [(C[None], J), (J, C[None]), _entrywise_stacks(S, e, pi)]
    val = None
    if mixing and endpoint(pi):
        mixed, _, (P, Q, _, _, _) = mixing_candidate(S, e, pi, opts.seed)
        stacks.append(mixed)
        g = np.max(np.linalg.norm(P, axis=1)) * np.max(np.linalg.norm(Q, axis=1))
        lower = float(np.ldexp(abs(pair_with_multiplier(P @ Q.T, S)) / g, e))
        kind = "factored-symbol"
    else:
        val = _phase_ascent(S, top(S), opts.restarts, opts.seed)[0]
        lower, kind = float(np.ldexp(val, e)), "unimodular-pair"
    best = min((HerzDecomposition._make(pi, As, Bs, n, target=C) for As, Bs in stacks),
               key=lambda d: (d.cost, len(d.terms)))
    if lower < value < np.inf:
        lower, kind = value, "multiplier-symbol"
    b = NormBracket(min(lower, best.cost), best.cost)
    fields = (b.lower, b.upper, (b.upper - b.lower) <= 1e-6 * b.upper, kind, b.lower,
              [(A.tobytes(), B.tobytes()) for A, B in best.terms])
    return fields, val, symbol


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


@pytest.mark.parametrize("p", [1, 1.5, 3, 4, INF])
def test_skipped_work_leaves_every_result_as_it_was(p):
    # building only the cheapest candidate and skipping the ascent where it
    # cannot win change the reported iterations only; the ascent is skipped
    # only where it returns less than the symbol's value, and it never runs
    # at p = 1 and oo, where the mixing solve's sweeps are counted instead
    skipped = 0
    for C0 in reference_symbols():
        if not np.any(C0):
            continue
        for e in (0, 600, -600):
            C = ldexp(C0, e)
            res = herz_norm(C, p)
            want, val, symbol = reference_herz_norm(C, p, HerzOptions())
            b, dual = res.bracket, res.dual_functional
            got = (b.lower, b.upper, b.converged, dual["kind"], dual["value"],
                   [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])
            assert got == want
            assert b.lower_certificate["kind"] == dual["kind"]
            if b.iterations == 0:
                skipped += 1
                assert val is not None and val < symbol
    assert (skipped > 0) == (p in (1.5, 3, 4))


@pytest.mark.parametrize("p", [1, 1.5, 3, 4, INF])
def test_subnormal_symbols_build_every_candidate(p):
    # below the normal range the expansion's factors round away from C, so
    # its completed price can differ from sum |c_ij| by far more than 1e-9:
    # on a rounded rank-one unimodular symbol the expansion is priced below
    # C o J but completes above it
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        C = ldexp(np.outer(*np.exp(2j * np.pi * rng.random((2, n)))), -1070)
        res = herz_norm(C, p)
        b, dual = res.bracket, res.dual_functional
        got = (b.lower, b.upper, b.converged, dual["kind"], dual["value"],
               [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])
        assert got == reference_herz_norm(C, p, HerzOptions())[0]


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
        old_lower, old_upper = reference_herz_norm(C, p, HerzOptions(), mixing=False)[0][:2]
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


@pytest.mark.parametrize("p", [1, INF])
def test_endpoint_bracket_is_seeded_and_scales_by_powers_of_two(p):
    def fields(res):
        b = res.bracket
        return (b.lower, b.upper, b.iterations, res.dual_functional["P"].tobytes(),
                [(A.tobytes(), B.tobytes()) for A, B in res.best_decomposition.terms])

    for C in grid_symbols(sizes=(2, 5, 8), seeds=(1, 2)):
        for seed in (0, 7):
            opts = HerzOptions(seed=seed)
            ref = herz_norm(C, p, opts)
            # restarts are not read at p = 1 and oo
            assert fields(herz_norm(C, p, HerzOptions(restarts=0, seed=seed))) == fields(ref)
            b = ref.bracket
            for k in (-1000, -600, 600, 1000):
                got = herz_norm(ldexp(C, k), p, opts)
                assert (got.bracket.lower, got.bracket.upper, got.bracket.iterations) \
                    == (np.ldexp(b.lower, k), np.ldexp(b.upper, k), b.iterations)
                assert got.dual_functional["P"].tobytes() == ref.dual_functional["P"].tobytes()


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
    # the float range, and with one of their messages (at p = oo the
    # expansion of 2**1023 E_01 overflows its factor 2**1024 phase(c))
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
                        old = reference_herz_norm(C, p, HerzOptions(), mixing=False)[0]
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
    monkeypatch.setattr(herzkit.herz, "_mixing", lambda S, seed: (15, None))
    for C in grid_symbols(sizes=(1, 3, 8), seeds=(1,)):
        n, nz = C.shape[0], C != 0
        k = min(np.max(np.sum(nz, axis=0)), np.max(np.sum(nz, axis=1)))
        closed = [n * schatten_norm(C, 1), n * schatten_norm(C, INF), np.sum(np.abs(C))]
        for p in (1, INF):
            res = herz_norm(C, p)
            b, dual = res.bracket, res.dual_functional
            assert dual["kind"] == "multiplier-symbol" and dual["norm_upper"] == np.sqrt(k)
            assert b.iterations == 15
            assert b.upper == pytest.approx(min(closed), rel=1e-14)
