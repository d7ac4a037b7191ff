import numpy as np
import pytest

from lifelong.assignment import Assignment
from lifelong.engine import EngineState, HyperParams, load_state, save_state
from lifelong.libraries import (FeatureLibrary, ModelLibrary, _solve_triangular,
                                admit_representative, bump_tasks_seen,
                                decoder_contribution, init_libraries,
                                update_decoder, update_encoder)


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
        lib = init_libraries(40, 10, seed=0)
        assert lib.acc_A.shape == (400, 400)
        assert not lib.acc_A.any()
        assert lib.acc_b.shape == (400,)
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
        assert new.acc_A[0, 0] == pytest.approx(0.5)
        assert new.acc_b[0] == pytest.approx(1.0)
        # raw solve gives 2, clipped back to the unit column
        assert new.decoder[0, 0] == pytest.approx(1.0)

    def test_accumulators_match_batch_recompute(self, rng):
        d, p = 5, 3
        lib = init_libraries(d, p, seed=1)
        contributions = []
        for _ in range(12):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = update_decoder(lib, s, omega, reps, lambda2=0.4, w_t=w, ridge_mu=1e-8)
            lib = bump_tasks_seen(lib)
            contributions.append((s, omega, reps, w))
            A = np.zeros((d * p, d * p))
            b = np.zeros(d * p)
            for s_i, om_i, reps_i, w_i in contributions:
                A += np.kron(np.outer(s_i, s_i), om_i)
                for s_k, om_k, z_k in reps_i:
                    diff = s_k - s_i
                    A += 0.4 * z_k * np.kron(np.outer(diff, diff), om_k)
                b += np.kron(s_i, om_i @ w_i)
            scale = max(np.abs(A).max(), 1.0)
            assert np.abs(lib.acc_A - A).max() <= 1e-9 * scale
            assert np.abs(lib.acc_b - b).max() <= 1e-9 * max(np.abs(b).max(), 1.0)

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

    def test_singular_at_zero_mu_advises_ridge(self, rng):
        lib = init_libraries(3, 2, seed=0)
        s, omega, _, w = random_update_inputs(rng, 3, 2, n_reps=0)
        with pytest.raises(np.linalg.LinAlgError, match="ridge_mu > 0"):
            update_decoder(lib, s, omega, (), lambda2=0.0, w_t=w, ridge_mu=0.0)

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
    @pytest.mark.parametrize("n", [1, 5, 40, 63, 64, 65, 800])
    def test_matches_dense_solve(self, rng, n, lower):
        # block edges at 64 rows: sizes on, below and above a multiple
        M = rng.normal(size=(n, n))
        chol = np.linalg.cholesky(M @ M.T / n + np.eye(n))
        tri = chol if lower else chol.T
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            got = _solve_triangular(tri, rhs, lower=lower)
            ref = np.linalg.solve(tri, rhs)
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestDecoderContribution:
    @pytest.mark.parametrize("lambda2", [0.3, 0.0])
    def test_matches_kron_sum(self, rng, lambda2):
        d, p = 40, 20
        s, omega, reps, _ = random_update_inputs(rng, d, p, n_reps=3)
        # distinct Hessian per representative, one of them switched off
        reps = reps[:1] + ((reps[1][0], reps[1][1], 0.0),) + reps[2:]
        expected = np.kron(np.outer(s, s), omega) + sum(
            lambda2 * z_k * np.kron(np.outer(s_k - s, s_k - s), omega_k)
            for s_k, omega_k, z_k in reps)
        got = decoder_contribution(s, omega, reps, lambda2)
        assert got.shape == (d * p, d * p)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


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
        mlib = ModelLibrary()
        a = Assignment(z=np.array([0.1, 0.2, 0.7]))
        new, admitted = admit_representative(mlib, np.ones(2), a, "t1", t=5)
        assert admitted and len(new) == 1
        assert new.reps[0].source_task == "t1"
        assert new.reps[0].admitted_at == 5

    def test_non_outlier_argmax_skips(self):
        mlib = ModelLibrary()
        a = Assignment(z=np.array([0.6, 0.1, 0.3]))
        new, admitted = admit_representative(mlib, np.ones(2), a, "t1", t=5)
        assert not admitted and len(new) == 0

    def test_first_task_always_admits(self):
        mlib = ModelLibrary()
        a = Assignment(z=np.array([1.0]))
        new, admitted = admit_representative(mlib, np.ones(2), a, "t1", t=1)
        assert admitted and len(new) == 1

    def test_tie_breaks_toward_not_admitting(self):
        mlib = ModelLibrary()
        a = Assignment(z=np.array([0.5, 0.5]))
        _, admitted = admit_representative(mlib, np.ones(2), a, "t1", t=3)
        assert not admitted

    def test_codes_are_frozen(self):
        mlib = ModelLibrary()
        a = Assignment(z=np.array([1.0]))
        src = np.array([1.0, 2.0])
        new, _ = admit_representative(mlib, src, a, "t1", t=1)
        src[0] = 99.0   # caller-side mutation must not leak in
        assert new.reps[0].code[0] == 1.0
        with pytest.raises(ValueError):
            new.reps[0].code[0] = 5.0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        d, p = 5, 3
        flib = init_libraries(d, p, seed=9)
        for _ in range(3):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            flib = update_decoder(flib, s, omega, reps, lambda2=0.4, w_t=w, ridge_mu=1e-6)
            flib = update_encoder(flib, s, w, identity, ridge_mu=1e-6)
            flib = bump_tasks_seen(flib)
        mlib = ModelLibrary()
        a = Assignment(z=np.array([1.0]))
        mlib, _ = admit_representative(mlib, rng.normal(size=p), a, "t0", t=1)

        path = tmp_path / "state.json"
        save_state(EngineState(hyper=HyperParams(p=p), seed=9, flib=flib, mlib=mlib), path)
        loaded = load_state(path)
        flib2, mlib2 = loaded.flib, loaded.mlib
        for name in ("decoder", "encoder", "acc_A", "acc_b", "acc_M", "acc_C"):
            np.testing.assert_array_equal(getattr(flib, name), getattr(flib2, name))
        assert flib2.tasks_seen == flib.tasks_seen
        np.testing.assert_array_equal(mlib2.reps[0].code, mlib.reps[0].code)
        assert mlib2.reps[0].source_task == "t0"


class TestAccumulatorShape:
    def test_acc_matrices_symmetric_psd(self, rng):
        d, p = 5, 3
        lib = init_libraries(d, p, seed=11)
        for _ in range(6):
            s, omega, reps, w = random_update_inputs(rng, d, p)
            lib = update_decoder(lib, s, omega, reps, lambda2=0.3, w_t=w, ridge_mu=1e-6)
            lib = update_encoder(lib, s, w, identity, ridge_mu=1e-6)
            lib = bump_tasks_seen(lib)
            for mat in (lib.acc_A, lib.acc_C):
                assert np.abs(mat - mat.T).max() <= 1e-9 * max(1, np.abs(mat).max())
                assert np.linalg.eigvalsh(mat)[0] >= -1e-8 * max(1, np.abs(mat).max())
