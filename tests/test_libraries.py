import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong.assignment import Assignment, solve_assignment
from lifelong.engine import (EngineState, HyperParams, PerTaskRecord, init_state,
                             learn_task, load_state, pack_pairs, save_state, unpack_pairs)
from lifelong.libraries import (_SUBST_BLOCK, FeatureLibrary,
                                _cholesky_in_place, _lower_inverse, _substitute,
                                _system_buffer, admit_representative, bump_tasks_seen,
                                decoder_system, fold_decoder, init_libraries,
                                update_decoder, update_encoder)
from lifelong.tasks import TaskData

from oracles import decoder_statistics, full_from_pairs, in_basis, pair_blocks


identity = lambda v: v


def random_update_inputs(rng, d, p, n_reps=2):
    B = rng.normal(size=(d, d))
    omega = B @ B.T / d
    reps = []
    for _ in range(n_reps):
        Bk = rng.normal(size=(d, d))
        reps.append((rng.normal(size=p), Bk @ Bk.T / d, float(rng.random())))
    return rng.normal(size=p), omega, tuple(reps), rng.normal(size=d)


class TestInit:
    def test_deterministic(self):
        a = init_libraries(8, 4, seed=3)
        b = init_libraries(8, 4, seed=3)
        np.testing.assert_array_equal(a.decoder, b.decoder)
        np.testing.assert_array_equal(a.encoder, b.encoder)

    def test_unit_columns(self):
        lib = init_libraries(12, 6, seed=0)
        np.testing.assert_allclose(np.linalg.norm(lib.decoder, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(lib.encoder, axis=0), 1.0, atol=1e-12)

    def test_accumulator_shapes(self):
        # the decoder statistics are sized by the basis, empty before the
        # first code
        lib = init_libraries(40, 10, seed=0)
        assert lib.basis.shape == (10, 0)
        assert lib.decoder_terms == ()
        assert decoder_system(lib, 1.0).shape == (0, 0)
        assert lib.acc_b_coords.shape == (0,)
        assert lib.acc_M.shape == (10, 40)
        assert lib.acc_C.shape == (40, 40)

    def test_p_larger_than_d_rejected(self):
        with pytest.raises(ValueError):
            init_libraries(4, 5, seed=0)


class TestDecoderUpdate:
    def test_scalar_first_task(self):
        lib = init_libraries(1, 1, seed=0)
        new = update_decoder(lib, s_t=np.array([1.0]), omega=np.array([[0.5]]),
                             reps_used=(), lambda2=0.7, w_t=np.array([2.0]),
                             ridge_mu=0.0)
        assert new.basis.tolist() == [[1.0]]
        assert [(h.tolist(), w.tolist()) for h, w in new.decoder_terms] == [([[0.5]], [1.0])]
        assert decoder_system(new, 1.0).tolist() == [[0.5]]
        assert new.acc_b_coords.tolist() == [1.0]
        # raw solve gives 2, clipped back to the unit column
        assert new.decoder[0, 0] == pytest.approx(1.0)

    def test_accumulators_match_batch_recompute(self, rng):
        d, p = 5, 3
        lib = init_libraries(d, p, seed=1)
        arrivals = []
        for _ in range(12):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = update_decoder(lib, s, omega, reps, lambda2=0.4, w_t=w, ridge_mu=1e-8)
            lib = bump_tasks_seen(lib)
            arrivals.append((s, w, omega, reps))
            pairs, b = in_basis(*decoder_statistics(arrivals, 0.4), lib.basis)
            scale = max(np.abs(pairs).max(), 1.0)
            assert np.abs(pair_blocks(decoder_system(lib, 1.0), d) - pairs).max() <= 1e-9 * scale
            assert np.abs(lib.acc_b_coords - b).max() <= 1e-9 * max(np.abs(b).max(), 1.0)

    def test_single_task_minimizes_weighted_residual(self, rng):
        # p = 1 keeps the system nonsingular at mu = 0; compare against a
        # projected gradient minimizer of ||w - D s||^2_omega
        d = 4
        lib = init_libraries(d, 1, seed=2)
        B = rng.normal(size=(d, d))
        omega = B @ B.T / d + 0.1 * np.eye(d)
        s = np.array([0.8])
        w = rng.normal(size=d) * 0.3
        new = update_decoder(lib, s, omega, (), lambda2=0.0, w_t=w, ridge_mu=0.0)

        D = rng.normal(size=(d, 1)) * 0.01
        for _ in range(20000):
            r = D[:, 0] * s[0] - w
            grad = 2 * (omega @ r)[:, None] * s[0]
            D = D - 0.05 * grad
        resid = lambda M: float((M[:, 0] * s[0] - w) @ (omega @ (M[:, 0] * s[0] - w)))
        assert resid(new.decoder) <= resid(D) + 1e-8

    @pytest.mark.parametrize("d, p", [(11, 7), (60, 30), (70, 1)])
    def test_matches_dense_solve_of_full_system(self, rng, d, p):
        # dp = 77, 1800 and 70: the 48-row blocks of the factorisation
        # straddle the d-row blocks of the pair layout
        lam, mu = 0.4, 1e-3
        lib = init_libraries(d, p, seed=3)
        A = np.zeros((d * p, d * p))
        b = np.zeros(d * p)
        for T in range(1, 4):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=lam, w_t=w,
                                                 ridge_mu=mu))
            A += np.kron(np.outer(s, s), omega)
            for s_k, omega_k, z_k in reps:
                A += lam * z_k * np.kron(np.outer(s_k - s, s_k - s), omega_k)
            b += np.kron(s, omega @ w)
            D = np.linalg.solve(A / T + mu * np.eye(d * p), b / T).reshape((d, p), order="F")
            norms = np.linalg.norm(D, axis=0)
            D /= np.where(norms > 1.0, norms, 1.0)
            assert np.abs(lib.decoder - D).max() <= 1e-10

    @given(p=st.integers(1, 6), extra_d=st.integers(0, 18), n_tasks=st.integers(1, 2),
           shared=st.integers(0, 3), own=st.integers(0, 2), lam=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_dense_solve(self, p, extra_d, n_tasks, shared, own, lam,
                                          seed):
        # dp from 1 to 144, up to three 48-row blocks; representatives that
        # carry the task's own Omega array (summed into one outer product)
        # and representatives with Hessians of their own (stacked), some
        # switched off with z = 0
        d, mu = p + extra_d, 1e-2
        rng = np.random.default_rng(seed)
        lib = init_libraries(d, p, seed=0)
        A = np.zeros((d * p, d * p))
        b = np.zeros(d * p)
        for T in range(1, n_tasks + 1):
            s, omega, own_reps, w = random_update_inputs(rng, d, p, n_reps=own)
            shared_reps = tuple((rng.normal(size=p), omega,
                                 float(rng.choice([0.0, rng.random()])))
                                for _ in range(shared))
            reps = shared_reps + own_reps
            lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=lam, w_t=w,
                                                 ridge_mu=mu))
            A += np.kron(np.outer(s, s), omega)
            for s_k, omega_k, z_k in reps:
                A += lam * z_k * np.kron(np.outer(s_k - s, s_k - s), omega_k)
            b += np.kron(s, omega @ w)
        D = np.linalg.solve(A / T + mu * np.eye(d * p), b / T).reshape((d, p), order="F")
        norms = np.linalg.norm(D, axis=0)
        D /= np.where(norms > 1.0, norms, 1.0)
        assert np.abs(lib.decoder - D).max() <= 1e-10 * np.abs(D).max()

    @given(p=st.integers(1, 6), extra_d=st.integers(0, 6), lam=st.floats(0.0, 1.0),
           zero_at=st.integers(0, 8), combo_at=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_basis_tracks_code_span(self, p, extra_d, lam, zero_at, combo_at,
                                             seed):
        # the engine's inputs: each arrival's representatives are earlier
        # codes, some sharing the task's Omega and some with Hessians of
        # their own, some switched off with z = 0; one code is zero and one
        # a combination of earlier codes, so neither widens the span
        d, mu = p + extra_d, 1e-2
        rng = np.random.default_rng(seed)
        lib = init_libraries(d, p, seed=0)
        A = np.zeros((d * p, d * p))
        b = np.zeros(d * p)
        codes = []
        for T in range(1, p + 4):
            if T - 1 == zero_at:
                s = np.zeros(p)
            elif T - 1 == combo_at and codes:
                s = sum(rng.normal() * c for c in codes[-2:])
            else:
                s = rng.normal(size=p) * (rng.random(p) < 0.7)
            _, omega, own, w = random_update_inputs(rng, d, p, n_reps=1)
            reps = tuple((c, omega if rng.random() < 0.5 else own[0][1],
                          float(rng.choice([0.0, rng.random()])))
                         for c in codes if rng.random() < 0.6)
            codes.append(s)
            lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=lam, w_t=w,
                                                 ridge_mu=mu))
            A += np.kron(np.outer(s, s), omega)
            for s_k, omega_k, z_k in reps:
                A += lam * z_k * np.kron(np.outer(s_k - s, s_k - s), omega_k)
            b += np.kron(s, omega @ w)
            q = lib.basis
            assert q.shape == (p, np.linalg.matrix_rank(np.array(codes)))
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0) <= 1e-12
            D = np.linalg.solve(A / T + mu * np.eye(d * p), b / T).reshape((d, p), order="F")
            norms = np.linalg.norm(D, axis=0)
            D /= np.where(norms > 1.0, norms, 1.0)
            assert np.abs(lib.decoder - D).max() <= 1e-10 * max(np.abs(D).max(), 1e-300)

    def test_concurrent_refits_match_sequential(self):
        # each thread assembles and factors in a buffer of its own: four
        # libraries of one dp, refit at once from more threads than cores,
        # give bit for bit the decoders of refitting them one after another
        d, p, refits = 24, 8, 6
        inputs = [[random_update_inputs(np.random.default_rng(seed), d, p)
                   for _ in range(refits)] for seed in range(4)]

        def decoders(stream):
            lib = init_libraries(d, p, seed=0)
            out = []
            for s, omega, reps, w in stream:
                lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=0.3,
                                                     w_t=w, ridge_mu=1e-3))
                out.append(lib.decoder.tobytes())
            return out

        expected = [decoders(stream) for stream in inputs]
        results = [None] * len(inputs)
        barrier = threading.Barrier(len(inputs))

        def worker(i):
            barrier.wait(timeout=30)
            results[i] = decoders(inputs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected

    def test_singular_at_zero_mu_advises_ridge(self, rng):
        lib = init_libraries(3, 2, seed=0)
        s, omega, _, w = random_update_inputs(rng, 3, 2, n_reps=0)
        with pytest.raises(np.linalg.LinAlgError, match="ridge_mu > 0"):
            update_decoder(lib, s, omega, (), lambda2=0.0, w_t=w, ridge_mu=0.0)

    @pytest.mark.parametrize("which", ["task", "representative"])
    def test_asymmetric_hessian_refused(self, rng, which):
        # one ulp off its mirror: the pair blocks would not be symmetric
        d, p = 5, 3
        s, omega, reps, w = random_update_inputs(rng, d, p, n_reps=1)
        off = omega.copy()
        off[0, 1] = np.nextafter(off[0, 1], np.inf)
        if which == "task":
            omega = off
        else:
            reps = ((reps[0][0], off, reps[0][2]),)
        with pytest.raises(ValueError, match="symmetric bit for bit"):
            update_decoder(init_libraries(d, p, seed=0), s, omega, reps, lambda2=0.3, w_t=w)

    def test_column_norms_clipped(self, rng):
        d, p = 5, 3
        lib = init_libraries(d, p, seed=4)
        for _ in range(5):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = update_decoder(lib, s, omega, reps, lambda2=0.3, w_t=w * 10,
                                 ridge_mu=1e-8)
            lib = bump_tasks_seen(lib)
            assert np.linalg.norm(lib.decoder, axis=0).max() <= 1 + 1e-8


class TestTriangularSolve:
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("n", [1, 5, 40, 47, 48, 49, 63, 64, 65, 800])
    def test_matches_dense_solve(self, rng, n, lower):
        # block edges at 48 rows: sizes on, below and above a multiple.  The
        # factor and block inverses come from _cholesky_in_place, and the
        # strict lower triangle is poisoned: the substitution must read only U
        M = rng.normal(size=(n, n))
        factor = M @ M.T / n + np.eye(n)
        inverses = _cholesky_in_place(factor)
        chol = np.triu(factor).T
        factor[np.tril_indices(n, -1)] = np.nan
        tri = chol if lower else chol.T
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            got = _substitute(factor, inverses, rhs, lower=lower)
            ref = np.linalg.solve(tri, rhs)
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 23, 24, 25, 47, 48, 49, 97])
    def test_matches_lapack_inverse(self, rng, n):
        # leaves of at most 32 rows: sizes that are one leaf, split once
        # and split twice
        M = rng.normal(size=(n, n))
        lower = np.linalg.cholesky(M @ M.T / n + np.eye(n))
        ref = np.linalg.inv(lower)
        got = _lower_inverse(lower)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestCholeskyInPlace:
    @pytest.mark.parametrize("n", [1, 47, 48, 49, 63, 64, 65, 800])
    def test_matches_lapack(self, rng, n):
        # the strict lower triangle is poisoned: the factorisation must read
        # only the upper one
        M = rng.normal(size=(n, n))
        system = M @ M.T / n + np.eye(n)
        ref = np.linalg.cholesky(system)
        system[np.tril_indices(n, -1)] = np.nan
        _cholesky_in_place(system)
        # the lower triangle outside the diagonal blocks is left stale
        got = np.triu(system).T
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_past_first_block_advises_ridge(self, rng):
        # dp = 70 > 48: the first 48-row block is positive definite and the
        # zero feature 66 makes the second block fail at mu = 0
        d = 70
        lib = init_libraries(d, 1, seed=0)
        X = rng.normal(size=(d, 100))
        X[66] = 0.0
        omega = X @ X.T / 100
        np.linalg.cholesky(omega[:_SUBST_BLOCK, :_SUBST_BLOCK])
        with pytest.raises(np.linalg.LinAlgError, match="ridge_mu > 0"):
            update_decoder(lib, np.array([0.9]), omega, (), lambda2=0.0,
                           w_t=rng.normal(size=d), ridge_mu=0.0)

    def test_warm_refit_holds_two_system_sized_arrays(self, rng):
        # the system factored in place and at most a system's size of
        # temporaries, plus the 48 x (dp) strips of the blocked
        # factorisation; a factorisation into a fresh array holds a third
        d, p = 40, 20
        dp = d * p
        lib = init_libraries(d, p, seed=0)
        for _ in range(3):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=0.3,
                                                 w_t=w, ridge_mu=1e-3))
        s, omega, reps, w = random_update_inputs(rng, d, p)
        tracemalloc.start()
        try:
            update_decoder(lib, s, omega, reps, lambda2=0.3, w_t=w, ridge_mu=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * dp * dp + 2 * dp * _SUBST_BLOCK)


    def test_warm_refit_allocates_no_system_sized_array(self, rng):
        # at most one set of pair blocks plus the 48 x (dp) strips of the
        # blocked factorisation; the system is assembled and factored in a
        # prefix of the thread's buffer, which the first refit allocated,
        # while the basis spans 12 of the 20 code directions and once it
        # spans all of them
        d, p = 40, 20
        dp = d * p
        lib = init_libraries(d, p, seed=0)
        for _ in range(3):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=0.3,
                                                 w_t=w, ridge_mu=1e-3))
        buffer = _system_buffer(dp)
        for r in (12, p):
            while lib.basis.shape[1] + 3 < r:
                s, omega, reps, w = random_update_inputs(rng, d, p)
                lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=0.3,
                                                     w_t=w, ridge_mu=1e-3))
            s, omega, reps, w = random_update_inputs(rng, d, p)
            tracemalloc.start()
            try:
                lib = bump_tasks_seen(update_decoder(lib, s, omega, reps, lambda2=0.3,
                                                     w_t=w, ridge_mu=1e-3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert lib.basis.shape == (p, r)
            assert peak <= 8 * (p * (p + 1) // 2 * d * d + 2 * _SUBST_BLOCK * dp)
            assert peak < 8 * dp * dp
            assert _system_buffer(dp) is buffer


class TestDecoderContribution:
    # one task folded into an empty library: the system its terms assemble,
    # in the coordinates of the basis its codes span, against the literal
    # Kronecker sum projected onto that basis

    @staticmethod
    def assembled_and_expected(s, omega, reps, lambda2, w):
        lib = fold_decoder(init_libraries(omega.shape[0], s.size, seed=0),
                           [(s, omega, reps, w)], lambda2)
        A = np.kron(np.outer(s, s), omega) + sum(
            lambda2 * z_k * np.kron(np.outer(s_k - s, s_k - s), omega_k)
            for s_k, omega_k, z_k in reps)
        expected, _ = in_basis(A, np.zeros(A.shape[0]), lib.basis)
        return lib, pair_blocks(decoder_system(lib, 1.0), omega.shape[0]), expected

    @pytest.mark.parametrize("lambda2", [0.3, 0.0])
    def test_matches_kron_sum(self, rng, lambda2):
        d, p = 40, 20
        s, omega, reps, w = random_update_inputs(rng, d, p, n_reps=3)
        # distinct Hessian per representative, one of them switched off
        reps = reps[:1] + ((reps[1][0], reps[1][1], 0.0),) + reps[2:]
        lib, got, expected = self.assembled_and_expected(s, omega, reps, lambda2, w)
        # the task's term and, with lambda2 > 0, each representative's that
        # enters, whose codes the basis spans
        r = 3 if lambda2 else 1
        assert len(lib.decoder_terms) == r and lib.basis.shape == (p, r)
        assert got.shape == (r * (r + 1) // 2, d, d)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_shared_hessian_matches_kron_sum(self, rng):
        # squared loss: every representative carries the task's own Omega
        # array, so the weights are summed into one term
        d, p = 40, 20
        s, omega, reps, w = random_update_inputs(rng, d, p, n_reps=3)
        reps = tuple((s_k, omega, z_k) for s_k, _, z_k in reps)
        lib, got, expected = self.assembled_and_expected(s, omega, reps, 0.3, w)
        assert len(lib.decoder_terms) == 1
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_distinct_hessians_give_symmetric_blocks(self, rng):
        # logistic loss: the representative's Hessian is not the task's.  The
        # library holds both arrays themselves, read-only as the engine's
        # records hold them, each symmetric bit for bit, so that the upper
        # triangle the refit reads is that of a symmetric A, and packable as
        # a checkpoint stores them
        d, p = 50, 20
        s, omega, reps, w = random_update_inputs(rng, d, p, n_reps=1)
        (s_k, omega_k, z_k), = reps
        for h in (omega, omega_k):
            h.setflags(write=False)
        lib, got, expected = self.assembled_and_expected(s, omega, reps, 0.3, w)
        assert len(lib.decoder_terms) == 2
        assert all(h is ref for (h, _), ref in zip(lib.decoder_terms, (omega, omega_k)))
        assert pack_pairs(np.array([h for h, _ in lib.decoder_terms])).shape == (
            2, d * (d + 1) // 2)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        # a blockwise sum: each block's lower triangle matches its upper one
        # to round-off
        assert np.abs(got - got.transpose(0, 2, 1)).max() <= 1e-15 * np.abs(got).max()


class TestEncoderUpdate:
    def test_basis_vector_task(self, rng):
        d, p, mu = 4, 3, 1e-8
        lib = init_libraries(d, p, seed=5)
        s = rng.normal(size=p) * 0.5
        w = np.zeros(d)
        w[0] = 1.0
        new = update_encoder(lib, s, w, identity, ridge_mu=mu)
        # independent row-wise solve of L (C + mu I) = M
        C = np.outer(w, w) + mu * np.eye(d)
        M = np.outer(s, w)
        expected = np.vstack([np.linalg.solve(C.T, M[i]) for i in range(p)])
        norms = np.linalg.norm(expected, axis=0)
        expected /= np.where(norms > 1, norms, 1.0)
        np.testing.assert_allclose(new.encoder, expected, atol=1e-10)
        np.testing.assert_allclose(new.encoder[:, 1:], 0.0, atol=1e-10)

    def test_accumulators_are_additive(self, rng):
        d, p = 4, 2
        lib = init_libraries(d, p, seed=6)
        s1, w1 = rng.normal(size=p), rng.normal(size=d)
        s2, w2 = rng.normal(size=p), rng.normal(size=d)
        lib = update_encoder(lib, s1, w1, identity, ridge_mu=1e-6)
        lib = update_encoder(lib, s2, w2, identity, ridge_mu=1e-6)
        np.testing.assert_array_equal(lib.acc_M, np.outer(s1, w1) + np.outer(s2, w2))
        np.testing.assert_array_equal(lib.acc_C, np.outer(w1, w1) + np.outer(w2, w2))

    def test_consistent_code_is_reproduced(self, rng):
        d, p, mu = 5, 3, 1e-8
        lib = init_libraries(d, p, seed=7)
        w = rng.normal(size=d)
        s = lib.encoder @ w          # already consistent with the encoder
        new = update_encoder(lib, s, w, identity, ridge_mu=mu)
        drift = np.linalg.norm(new.encoder @ w - s)
        assert drift <= 10 * mu * np.linalg.norm(new.encoder) * np.linalg.norm(w) + 1e-9

    def test_singular_at_zero_mu_advises_ridge(self, rng):
        lib = init_libraries(3, 2, seed=8)
        with pytest.raises(np.linalg.LinAlgError, match="ridge_mu > 0"):
            update_encoder(lib, rng.normal(size=2), np.zeros(3), identity, ridge_mu=0.0)


class TestAdmission:
    def test_outlier_argmax_admits(self):
        a = Assignment(slot=2, slots=3)
        new, admitted = admit_representative(("t0", "t1"), np.ones(2), a, "t2")
        assert admitted and new == ("t0", "t1", "t2")

    def test_non_outlier_argmax_skips(self):
        a = Assignment(slot=0, slots=3)
        new, admitted = admit_representative(("t0", "t1"), np.ones(2), a, "t2")
        assert not admitted and new == ("t0", "t1")

    def test_first_task_always_admits(self):
        a = Assignment(slot=0, slots=1)
        new, admitted = admit_representative((), np.ones(2), a, "t1")
        assert admitted and new == ("t1",)

    def test_tie_breaks_toward_not_admitting(self):
        # the representative and the outlier slot cost the same
        a = solve_assignment(np.array([0.5]), 0.5, lambda2=1.0)
        _, admitted = admit_representative(("t0",), np.ones(2), a, "t1")
        assert not admitted

    @pytest.mark.parametrize("t, z", [(1, Assignment(slot=0, slots=1)),
                                      (5, Assignment(slot=2, slots=3))])
    def test_zero_code_never_admitted(self, t, z):
        # the t-th arrival, with z.slot representatives before it
        mlib = tuple(f"t{k}" for k in range(z.slot))
        new, admitted = admit_representative(mlib, np.zeros(2), z, f"t{t}")
        assert not admitted and new == mlib
        new, admitted = admit_representative(mlib, np.array([0.0, -1e-300]), z, f"t{t}")
        assert admitted and new == mlib + (f"t{t}",)

    def test_codes_are_frozen(self):
        # a representative's code is its task's, read-only once learned
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 12))
        task = TaskData(features=X, targets=X.T @ rng.normal(size=4), loss_kind="squared",
                        task_id="t1")
        state, out = learn_task(init_state(HyperParams(p=2), seed=0), task)
        code = state.per_task[state.mlib[0]].code
        assert out.admitted and code is out.code
        with pytest.raises(ValueError):
            code[0] = 5.0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        # a state built from the public updates as learn_task runs them: the
        # first task admitted, the others at its slot with, as for squared
        # loss, the task's own Hessian as the representative's.  The load
        # folds the three tasks again into the same statistics, bit for bit
        d, p = 5, 3
        hyper = HyperParams(p=p)
        flib = init_libraries(d, p, seed=9)
        mlib, per_task = (), {}
        for i in range(3):
            s, omega, _, w = random_update_inputs(rng, d, p)
            reps = ((per_task[mlib[0]].code, omega, 1.0),) if mlib else ()
            flib = update_decoder(flib, s, omega, reps, hyper.lambda2, w, hyper.mu)
            flib = bump_tasks_seen(update_encoder(flib, s, w, identity, hyper.mu))
            mlib, _ = admit_representative(mlib, s, Assignment(slot=0, slots=len(mlib) + 1),
                                           f"t{i}")
            per_task[f"t{i}"] = PerTaskRecord(code=s, slot=0, loss_kind="squared", w=w,
                                              omega=omega)
        path = tmp_path / "state.json"
        save_state(EngineState(hyper=hyper, seed=9, flib=flib, mlib=mlib, per_task=per_task),
                   path)
        loaded = load_state(path)
        for name in ("decoder", "encoder", "basis", "acc_b_coords", "acc_M", "acc_C"):
            assert getattr(loaded.flib, name).tobytes() == getattr(flib, name).tobytes(), name
        assert ([(h.tobytes(), w.tobytes()) for h, w in loaded.flib.decoder_terms]
                == [(h.tobytes(), w.tobytes()) for h, w in flib.decoder_terms])
        assert loaded.flib.tasks_seen == flib.tasks_seen == 3
        assert loaded.mlib == ("t0",)
        for tid, rec in per_task.items():
            for name in ("code", "w", "omega"):
                assert getattr(loaded.per_task[tid], name).tobytes() == \
                    getattr(rec, name).tobytes(), (tid, name)


    @pytest.mark.parametrize("name, fault", [("acc_A", "ulp"), ("acc_C", "negative_zero")])
    def test_asymmetric_block_refused_on_save(self, rng, name, fault):
        # no fold holds a Hessian of a term of A, and no refit makes an
        # acc_C, that differs from its transpose bit for bit, by one ulp or
        # by the sign of a zero, and a packed triangle cannot hold one, so
        # the packer a save runs on each Hessian refuses it
        d, p = 5, 3
        flib = init_libraries(d, p, seed=9)
        s, omega, reps, w = random_update_inputs(rng, d, p)
        flib = bump_tasks_seen(update_decoder(flib, s, omega, reps, lambda2=0.4, w_t=w))
        if name == "acc_A":
            broken = flib.decoder_terms[0][0].copy()
            broken[0, 1] = np.nextafter(broken[0, 1], np.inf)
        else:
            broken = np.zeros((d, d))
            broken[0, 1] = -0.0
        with pytest.raises(ValueError, match="not symmetric bit for bit"):
            pack_pairs(broken[None])


def kron_pairs(rng, p, d, terms=3):
    """The pair blocks i <= j of a sum of kron(W, H) over random W (p x p)
    and H (d x d), every factor exactly symmetric, laid out as the decoder
    statistics are."""
    iu, ju = np.triu_indices(p)
    total = np.zeros((iu.size, d, d))
    for _ in range(terms):
        W = rng.normal(size=(p, p))
        H = rng.normal(size=(d, d))
        total = total + np.einsum("k,ab->kab", (W + W.T)[iu, ju], H + H.T)
    return total


class TestPackedArrays:
    @given(p=st.integers(1, 5), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_exact(self, p, d, seed):
        pairs = kron_pairs(np.random.default_rng(seed), p, d)
        packed = pack_pairs(pairs)
        assert packed.shape == (p * (p + 1) // 2, d * (d + 1) // 2)
        assert unpack_pairs(packed, d).tobytes() == pairs.tobytes()


class TestAccumulatorShape:
    def test_acc_matrices_symmetric_psd(self, rng):
        d, p = 5, 3
        lib = init_libraries(d, p, seed=11)
        for _ in range(6):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = update_decoder(lib, s, omega, reps, lambda2=0.3, w_t=w, ridge_mu=1e-6)
            lib = update_encoder(lib, s, w, identity, ridge_mu=1e-6)
            lib = bump_tasks_seen(lib)
            pairs = pair_blocks(decoder_system(lib, 1.0), d)
            for mat in (full_from_pairs(pairs, lib.basis.shape[1]), lib.acc_C):
                assert np.abs(mat - mat.T).max() <= 1e-9 * max(1, np.abs(mat).max())
                assert np.linalg.eigvalsh(mat)[0] >= -1e-8 * max(1, np.abs(mat).max())
