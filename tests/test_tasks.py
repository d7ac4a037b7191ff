import numpy as np
import pytest

from lifelong import tasks
from lifelong.tasks import (ConvergenceError, TaskData, fit_single_task,
                            hessian_at, loss_gradient, loss_value)

from oracles import fd_gradient, fd_jacobian, grid_search_logistic_2d


def make_task(X, y, kind="squared", tid="t"):
    return TaskData(features=np.asarray(X, float), targets=np.asarray(y, float),
                    loss_kind=kind, task_id=tid)


def random_task(rng, d=6, n=12, kind="squared"):
    """Seeded random task for property tests."""
    X = rng.normal(size=(d, n))
    if kind == "squared":
        y = rng.normal(size=n)
    else:
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return make_task(X, y, kind=kind, tid="rand")


class TestTaskData:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_task([[np.inf, 0.0]], [1.0, 2.0])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match=r"\+/-1"):
            make_task([[1.0, 2.0]], [1.0, 0.0], kind="logistic")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_task([[1.0, 2.0]], [1.0, 2.0, 3.0])


class TestFitSquared:
    def test_identity_design(self):
        task = make_task(np.eye(2), [1.0, 2.0])
        model = fit_single_task(task, ridge=0.0)
        np.testing.assert_allclose(model.w, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(model.omega, np.eye(2) / 4, atol=1e-12)

    def test_exact_minimizer(self, rng):
        task = random_task(rng, d=5, n=20)
        model = fit_single_task(task, ridge=0.3)
        grad = loss_gradient(task, model.w) + 0.3 * model.w
        assert np.abs(grad).max() < 1e-10

    def test_singular_advises_ridge(self, rng):
        X = rng.normal(size=(6, 3))  # n < d: singular gram
        task = make_task(X, rng.normal(size=3))
        with pytest.raises(np.linalg.LinAlgError, match="ridge > 0"):
            fit_single_task(task, ridge=0.0)


class TestFitLogistic:
    def test_matches_grid_search(self):
        # separable two-point toy set; ridge keeps the optimum finite
        X = np.array([[1.0, -1.0], [0.5, -0.2]])
        y = np.array([1.0, -1.0])
        task = make_task(X, y, kind="logistic")
        model = fit_single_task(task, ridge=0.1)
        w_star, _ = grid_search_logistic_2d(X, y, ridge=0.1)
        assert np.abs(model.w - w_star).max() <= 2e-3

    def test_gradient_norm_at_solution(self, rng):
        task = random_task(rng, d=4, n=30, kind="logistic")
        model = fit_single_task(task, ridge=0.05)
        grad = loss_gradient(task, model.w) + 0.05 * model.w
        assert np.linalg.norm(grad) <= 1e-8

    def test_nonconvergence_reports_gradient_norm(self, monkeypatch):
        X = np.array([[1.0, -1.0], [0.5, -0.2]])
        task = make_task(X, [1.0, -1.0], kind="logistic")
        monkeypatch.setattr(tasks, "LOGISTIC_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="gradient norm"):
            fit_single_task(task, ridge=0.1)


class TestLossValue:
    def test_perfect_fit_is_zero(self):
        X = np.eye(3)
        w = np.array([1.0, -2.0, 0.5])
        task = make_task(X, X.T @ w)
        assert loss_value(task, w) == 0.0

    def test_logistic_at_zero_is_log2(self, rng):
        task = random_task(rng, d=4, n=7, kind="logistic")
        assert loss_value(task, np.zeros(4)) == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_per_sample_resummation(self, rng):
        for kind in ("squared", "logistic"):
            task = random_task(rng, d=5, n=9, kind=kind)
            point = rng.normal(size=5)
            total = 0.0
            for i in range(task.n_samples):
                score = float(task.features[:, i] @ point)
                if kind == "squared":
                    total += 0.5 * (score - task.targets[i]) ** 2
                else:
                    total += np.log1p(np.exp(-task.targets[i] * score))
            assert loss_value(task, point) == pytest.approx(total / task.n_samples, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        task = random_task(rng, d=5, n=9)
        with pytest.raises(ValueError):
            loss_value(task, np.zeros(4))


class TestHessian:
    def test_squared_point_independent(self, rng):
        task = make_task(np.eye(2), [1.0, 2.0])
        for _ in range(3):
            point = rng.normal(size=2)
            np.testing.assert_allclose(hessian_at(task, point), np.eye(2) / 4, atol=1e-14)

    def test_logistic_single_sample_at_zero(self):
        # (1/2) * (1/n) * sigma(0)(1 - sigma(0)) * x x' with n = 1
        task = make_task([[1.0], [0.0]], [1.0], kind="logistic")
        expected = 0.5 * 0.25 * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(hessian_at(task, np.zeros(2)), expected, atol=1e-14)

    def test_logistic_matches_fd_of_gradient(self, rng):
        task = random_task(rng, d=5, n=5, kind="logistic")
        point = rng.normal(size=5)
        fd_hess = fd_jacobian(lambda v: loss_gradient(task, v), point, step=1e-5)
        # omega is half the Hessian
        assert np.abs(2 * hessian_at(task, point) - fd_hess).max() <= 1e-5

    def test_symmetric_psd_on_random_tasks(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            kind = "squared" if i % 2 == 0 else "logistic"
            task = random_task(rng, d=4, n=6, kind=kind)
            omega = hessian_at(task, rng.normal(size=4))
            assert np.abs(omega - omega.T).max() <= 1e-12
            assert np.linalg.eigvalsh(omega)[0] >= -1e-10


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for i in range(40):
            kind = "squared" if i % 2 == 0 else "logistic"
            task = random_task(rng, d=5, n=8, kind=kind)
            point = rng.normal(size=5)
            grad = loss_gradient(task, point)
            fd = fd_gradient(lambda v: loss_value(task, v), point, step=1e-5)
            scale = max(np.abs(grad).max(), 1.0)
            assert np.abs(grad - fd).max() <= 1e-5 * scale


class TestTaylorExactness:
    def test_squared_surrogate_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            task = random_task(rng, d=5, n=9)
            model = fit_single_task(task, ridge=0.0)
            for _ in range(5):
                probe = model.w + rng.normal(size=5)
                diff = probe - model.w
                surrogate = (model.loss_at_w
                             + float(loss_gradient(task, model.w) @ diff)
                             + float(diff @ (model.omega @ diff)))
                truth = loss_value(task, probe)
                assert abs(truth - surrogate) <= 1e-10 * max(1.0, abs(truth))
