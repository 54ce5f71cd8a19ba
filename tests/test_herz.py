import numpy as np
import pytest

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
    C = random_matrix(3, ensemble="gaussian", seed=12)
    res = herz_norm(C, 3.0, CHEAP)
    dual = res.dual_functional
    if dual.get("kind") == "unimodular-pair":
        a, b = dual["a"], dual["b"]
        # rank-one unimodular symbols have multiplier norm exactly one,
        # so the pairing value is a legitimate lower bound
        assert abs(a @ C @ b) == pytest.approx(res.bracket.lower, abs=1e-9)
        assert np.max(np.abs(np.abs(a) - 1)) < 1e-12
        assert np.max(np.abs(np.abs(b) - 1)) < 1e-12


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


def test_pairing_is_bilinear_sum():
    A = np.array([[1, 2j], [0, 1]], dtype=complex)
    C = np.array([[3, 1], [1, -1j]], dtype=complex)
    assert pair_with_multiplier(A, C) == pytest.approx(3 + 2j * 1 + 0 + 1 * (-1j))


def test_seed_decomposition_must_represent_input():
    C = random_matrix(2, ensemble="gaussian", seed=73)
    bogus = HerzDecomposition.build(1.5, [(np.eye(2) + 0j, np.eye(2) + 0j)])
    with pytest.raises(InputError):
        herz_norm(C, 1.5, HerzOptions(seed_decompositions=(bogus,)))
    # inf * 0 would represent NaN; the constructor refuses the factor
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
    pi = as_index(1.5)
    for terms in (((A, B),), ((B, A),), ((B, B), (A, B))):
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


def test_caller_seed_can_only_help():
    C = np.ones((2, 2), dtype=complex)
    seed = HerzDecomposition.build(1, [(C, np.ones((2, 2)) + 0j)])
    res = herz_norm(C, 1, HerzOptions(restarts=0, seed_decompositions=(seed,)))
    assert res.bracket.upper <= seed.cost + 1e-12


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
            seeds = [HerzDecomposition.build(p, [(C, J)]), HerzDecomposition.build(p, [(J, C)]),
                     HerzDecomposition.build(p, [(C, np.eye(n)), (C, J - np.eye(n))])]
            res = herz_norm(C, p, HerzOptions(restarts=0, seed_decompositions=seeds[2:]))
            # C o J, J o C and the entrywise expansion
            closed = [seeds[0].cost, seeds[1].cost, float(np.sum(np.abs(C)))]
            q = res.best_decomposition.p.conjugate()
            assert closed[:2] == pytest.approx([n * schatten_norm(C, p), n * schatten_norm(C, q)],
                                               rel=1e-12)
            assert res.bracket.upper == pytest.approx(min(closed), rel=1e-14)
            assert res.bracket.upper <= seeds[2].cost
            # the upper bound is the winner's cost plus what its terms miss of C
            missed = float(np.sum(np.abs(represent(res.best_decomposition) - C)))
            assert res.best_decomposition.cost + missed == res.bracket.upper
            dev = np.max(np.abs(represent(res.best_decomposition) - C))
            assert dev <= 1e-12 * np.max(np.abs(C))


def test_iterations_count_phase_ascent_alternations():
    C = random_matrix(4, ensemble="gaussian", seed=5)
    opts = HerzOptions(restarts=3, seed=1)
    count = herz_norm(C, 1.5, opts).bracket.iterations
    assert 0 < count <= (opts.restarts + 2) * 60
    assert herz_norm(C, 1.5, opts).bracket.iterations == count
    # on the all-ones matrix both starts stop after one alternation
    J = np.ones((3, 3), dtype=complex)
    assert herz_norm(J, 1.5, HerzOptions(restarts=0, iters=500)).bracket.iterations == 2
    assert herz_norm(C, 2, opts).bracket.iterations == 0
    assert herz_norm(np.zeros((2, 2)), 1.5, opts).bracket.iterations == 0


@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_phase_ascent_is_scale_equivariant(scale):
    # the stop rule is relative, so a tiny input climbs as far as at scale 1
    C = random_matrix(6, ensemble="gaussian", seed=4)
    ref = herz_norm(C, 1.5).bracket
    b = herz_norm(scale * C, 1.5).bracket
    assert b.lower == pytest.approx(scale * ref.lower, rel=1e-12)
    assert b.iterations == ref.iterations == 233
    assert not b.converged and not ref.converged  # 29% wide


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
            val, a, b, steps = _phase_ascent(C, restarts, seed=3)
            want = reference_phase_ascent(C, restarts, seed=3)
            assert (val, steps) == (want[0], want[3])
            assert a.tobytes() == want[1].tobytes()
            assert b.tobytes() == want[2].tobytes()


@pytest.mark.parametrize("p", [1.5, 3])
def test_phase_ascent_witness_carries_the_lower_bound(p):
    # a start that stops on a fall keeps its value and the (a, b) that
    # attains it, so |a^T C b| re-checks the lower bound; on the 2 x 2
    # unitary draw of seed 10 the last iterate falls below the value kept
    for n in (2, 3):
        for ens in ("gaussian", "unitary", "sign", "sparse"):
            for seed in range(1, 11):
                C = random_matrix(n, ensemble=ens, seed=seed)
                if not np.any(C):
                    continue
                res = herz_norm(C, p)
                a, b = res.dual_functional["a"], res.dual_functional["b"]
                e = modulus_exponent(C)
                value = float(np.ldexp(abs(a @ ldexp(C, -e) @ b), e))
                assert value >= res.bracket.lower


@pytest.mark.parametrize("restarts", [0, 2, 8])
def test_phase_ascent_at_n1(restarts):
    # a 1x1 stack multiplies in a different order than the 1-d loop did,
    # so the value may move by one ulp; it is |c| up to rounding either way
    for ens in ("gaussian", "unitary", "sign", "sparse"):
        for seed in (1, 2, 3):
            C = random_matrix(1, ensemble=ens, seed=seed)
            if not np.any(C):
                continue
            val, a, b, steps = _phase_ascent(C, restarts, seed=0)
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
    assert sorted(calls) == [1, 1, 16]  # C o J, J o C, the entrywise expansion
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
    # C o J, J o C, and the 8 cyclic diagonals with the term carrying their miss
    assert calls == [1, 1, 9]


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
            root = np.sqrt(np.abs(C))
            seed = HerzDecomposition.build(pi, [(unit_phases(C) * root, root)])
            res = herz_norm(C, pi, HerzOptions(restarts=0, seed_decompositions=(seed,)))
            e = modulus_exponent(C)
            J = np.ones((1, n, n), dtype=complex)
            stacks = [(C[None], J), (J, C[None]), _entrywise_stacks(ldexp(C, -e), e, pi),
                      (seed._As, seed._Bs)]
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
    seed = HerzDecomposition.build(1, [(A, H)])
    res = herz_norm(C, 1, HerzOptions(restarts=0, seed_decompositions=(seed,)))
    best = res.best_decomposition
    # the seed wins, and one more term (C - R, J) carries what it misses
    assert len(best.terms) == 2 and best.terms[0][0][0, 0] == A[0, 0]
    np.testing.assert_array_equal(best.terms[1][1], np.ones((4, 4)))
    assert best.cost == pytest.approx(24.0, rel=1e-9)
    assert res.bracket.upper == best.cost >= 24.0 + 1e-10


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
    # herz_p = herz_{p*}, and the p = oo lower side takes gamma2 as p = 1 does
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
