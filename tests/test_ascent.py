"""The stacked restart climb, the stacked Schatten norms and the stacked
decomposition refinement agree bit for bit with one-matrix references."""

import numpy as np
import pytest

from herzkit.ascent import (
    AscentOptions,
    dual_maximizer,
    norm_ascent,
    norming_functional,
    unit_phases,
)
from herzkit.core import INF, as_index, random_matrix, schatten_norm, schatten_norms
from herzkit.herz import HerzDecomposition, _entrywise_terms, _refine
from herzkit.multipliers import _pad_witness


def reference_climb(A, p, B0, max_iter, tol):
    """One start at a time: the loop that the stacked climb must reproduce."""
    nB = schatten_norm(B0, p)
    if nB == 0.0:
        return 0.0, B0, 0
    B = B0 / nB
    Ac = A.conj()
    val = schatten_norm(A * B, p)
    used = 0
    for it in range(max_iter):
        used = it + 1
        G = norming_functional(A * B, p)
        Bn = dual_maximizer(Ac * G, p)
        nBn = schatten_norm(Bn, p)
        if nBn == 0.0:
            break
        new = schatten_norm(A * Bn, p) / nBn
        if new <= val + tol * max(1.0, val):
            if new > val:
                val, B = new, Bn / nBn
            break
        val, B = new, Bn / nBn
    return val, B, used


def reference_ascent(A, p, opts, extra_starts=()):
    pi = as_index(p)
    M = np.asarray(A, dtype=complex)
    n = M.shape[0]
    starts = [unit_phases(M), np.ones((n, n), dtype=complex)]
    starts.extend(np.asarray(S, dtype=complex) for S in extra_starts)
    rng = np.random.default_rng(opts.seed)
    for _ in range(max(0, opts.restarts)):
        starts.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    best_val, best_B, total = -1.0, None, 0
    for B0 in starts:
        val, B, used = reference_climb(M, pi, B0, opts.max_iter, opts.tol)
        total += used
        if val > best_val:
            best_val, best_B = val, B
    return max(best_val, 0.0), best_B, total


def assert_same_ascent(A, p, opts, extra_starts=()):
    res = norm_ascent(A, p, opts, extra_starts=extra_starts)
    val, B, its = reference_ascent(A, p, opts, extra_starts)
    assert res.value == val
    assert res.iterations == its
    assert res.witness.tobytes() == B.tobytes()
    return res


@pytest.mark.parametrize("n", [1, 3, 8, 16])
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("restarts", [0, 16])
def test_stacked_climb_matches_one_start_loop(n, p, restarts):
    A = random_matrix(n, "gaussian", seed=10 * n + restarts)
    assert_same_ascent(A, p, AscentOptions(restarts=restarts, seed=5, max_iter=60))


def test_zero_extra_start_takes_no_steps():
    A = random_matrix(4, "gaussian", seed=1)
    opts = AscentOptions(restarts=2, seed=1)
    res = assert_same_ascent(A, 3.0, opts, [np.zeros((4, 4))])
    assert res.iterations == norm_ascent(A, 3.0, opts).iterations


def test_padded_ladder_witness_start():
    A = random_matrix(3, "gaussian", seed=4)
    opts = AscentOptions(restarts=4, seed=2)
    base = norm_ascent(A, 1.5, opts)
    S = np.kron(np.ones((2, 2)), A)
    assert_same_ascent(S, 1.5, opts, [_pad_witness(base.witness, 6)])


def test_zero_lane_leaves_the_stack_cleanly():
    # the extra start has A o B = 0: its functional and maximizer vanish
    A = np.diag([1.0, 2.0, 3.0])
    res = assert_same_ascent(A, 3.0, AscentOptions(restarts=0),
                             [np.ones((3, 3)) - np.eye(3)])
    assert res.value == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0, INF])
def test_stacked_norms_equal_one_matrix_norms(p):
    rng = np.random.default_rng(3)
    for shape in [(7, 3, 3), (5, 8, 8), (4, 16, 16), (6, 3, 5), (2, 3, 4, 4)]:
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        X[(0,) * (len(shape) - 2)] = 0.0  # a zero matrix in the stack
        X.reshape(-1, *shape[-2:])[1] *= 2.0 ** -1000
        got = schatten_norms(X, p)
        want = np.array([schatten_norm(Y, p) for Y in X.reshape(-1, *shape[-2:])])
        assert got.shape == shape[:-2]
        assert got.ravel().tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_functionals_satisfy_hoelder_on_complex_stacks(p):
    pi, rng = as_index(p), np.random.default_rng(3)
    q = pi.conjugate()
    X = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    G, B = norming_functional(X, pi), dual_maximizer(X, pi)
    for k, C in enumerate(X):
        for stacked, single in ((G[k], norming_functional(C, pi)),
                                (B[k], dual_maximizer(C, pi))):
            assert stacked.tobytes() == single.tobytes()
        # Re tr(G^* C) = ||C||_p with ||G||_{p*} = 1
        assert np.real(np.vdot(G[k], C)) == pytest.approx(schatten_norm(C, pi), rel=1e-12)
        assert schatten_norm(G[k], q) == pytest.approx(1.0, rel=1e-12)
        # Re tr(C^* B) = ||C||_{p*} with ||B||_p = 1
        assert np.real(np.vdot(C, B[k])) == pytest.approx(schatten_norm(C, q), rel=1e-12)
        assert schatten_norm(B[k], pi) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, INF])
def test_functionals_map_zero_matrices_to_zero(p):
    X = np.zeros((3, 4, 4), dtype=complex)
    X[1] = random_matrix(4, "gaussian", seed=2)
    G, B = norming_functional(X, as_index(p)), dual_maximizer(X, as_index(p))
    assert not np.any(G[[0, 2]]) and not np.any(B[[0, 2]])
    assert G[1].tobytes() == norming_functional(X[1], as_index(p)).tobytes()


def test_unit_phases_of_subnormal_entries():
    z = np.array([[1e-310, -1e-310j], [0.0, 3e-320 * (1 + 1j)]])
    got = unit_phases(z)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, [[1, -1j], [1, (1 + 1j) / np.sqrt(2)]], rtol=0, atol=1e-15)
    M = random_matrix(5, "gaussian", seed=9)
    assert unit_phases(M).tobytes() == (M / np.abs(M)).tobytes()


def reference_refine(d, iters):
    """One schatten_norm and one norming_functional per term."""
    C = d.represented()
    p, q = d.p, d.p.conjugate()
    As = [A.copy() for A, _ in d.terms]
    Bs = [B.copy() for _, B in d.terms]

    def cost(As_, Bs_):
        return sum(schatten_norm(A, p) * schatten_norm(B, q) for A, B in zip(As_, Bs_))

    def project(mats, partners):
        V, M = np.stack(partners), np.stack(mats)
        denom = np.sum(np.abs(V) ** 2, axis=0)
        defect = C - np.sum(M * V, axis=0)
        ok = denom > 0
        M += V.conj() * np.where(ok, defect / np.where(ok, denom, 1.0), 0.0)[None]
        for k in range(len(mats)):
            mats[k][...] = M[k]

    cur = cost(As, Bs)
    for _ in range(iters):
        improved = False
        for side in (0, 1):
            prim, part = (As, Bs) if side == 0 else (Bs, As)
            pp, qq = (p, q) if side == 0 else (q, p)
            grads = [schatten_norm(Y, qq) * norming_functional(X, pp).conj()
                     for X, Y in zip(prim, part)]
            scale = max(cur, 1e-30)
            for eta in (0.25, 0.05):
                trial = [X - eta * scale * G / max(1.0, np.linalg.norm(G))
                         for X, G in zip(prim, grads)]
                project(trial, part)
                c_new = cost(trial, part) if side == 0 else cost(part, trial)
                if c_new < cur - 1e-12 * (1 + cur):
                    for X, T in zip(prim, trial):
                        X[...] = T
                    cur = c_new
                    improved = True
                    break
        if not improved:
            break
    return As, Bs


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_stacked_refine_matches_per_term_reference(p):
    # real entries, and real noise off each term's support that the refinement
    # can remove without leaving the representation set
    C = random_matrix(8, "sparse", seed=12).real.astype(complex)
    rng = np.random.default_rng(0)
    terms = []
    for A, B in _entrywise_terms(C):
        R = 0.5 * rng.standard_normal((8, 8))
        R[B != 0] = 0.0
        terms.append((4.0 * A + R, B / 4.0))
    d = HerzDecomposition.build(p, terms, dim=8)
    assert len(d.terms) == 26
    out = _refine(d, 60)
    As, Bs = reference_refine(d, 60)
    assert out.cost < d.cost
    for (A, B), RA, RB in zip(out.terms, As, Bs):
        assert A.tobytes() == RA.tobytes() and B.tobytes() == RB.tobytes()
    assert out.cost == float(sum(schatten_norm(A, p) * schatten_norm(B, as_index(p).conjugate())
                                 for A, B in out.terms))
