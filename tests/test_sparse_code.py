import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong import engine, sparse_code
from lifelong.datasets import load_corpus
from lifelong.engine import HyperParams, init_state, learn_task
from lifelong.sparse_code import (CodeProblem, Representative,
                                  composite_objective, encode_task,
                                  smooth_gradient, smooth_objective,
                                  soft_threshold)
from lifelong.tasks import ConvergenceError

from oracles import fd_gradient, subgradient_descent
from test_experiment import make_classification_corpus


def random_problem(rng, d=6, p=4, n_reps=2, lambda1=0.1, lambda2=0.5):
    def psd(dim, rank):
        B = rng.normal(size=(dim, rank))
        return B @ B.T / rank

    reps = tuple(
        Representative(code=rng.normal(size=p), omega=psd(d, d), weight=float(rng.random()))
        for _ in range(n_reps))
    return CodeProblem(
        w=rng.normal(size=d),
        omega=psd(d, d),
        decoder=rng.normal(size=(d, p)) / np.sqrt(d),
        encoder_image=rng.normal(size=p),
        reps=reps,
        lambda1=lambda1,
        lambda2=lambda2,
    )


def assert_kkt(prob, s):
    """The optimality certificate of the composite code objective at s,
    through `smooth_gradient` rather than the solver's quadratic form: on a
    nonzero coefficient the smooth gradient is -lambda1 sign(s_i), on a zero
    one it is at most lambda1 in magnitude.  Round-off allowance: 1e-13
    of the gradient's scale, 1 + lambda1 + |grad(0)| + |grad(s) - grad(0)|
    in the max norm, which is about 450 ulps of it."""
    g = smooth_gradient(prob, s)
    g0 = smooth_gradient(prob, np.zeros_like(s))
    lam = prob.lambda1
    bound = 1e-13 * (1.0 + lam + np.abs(g0).max() + np.abs(g - g0).max())
    nonzero = s != 0
    assert np.abs(g + lam * np.sign(s))[nonzero].max(initial=0.0) <= bound
    assert np.abs(g[~nonzero]).max(initial=0.0) <= lam + bound


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_allclose(soft_threshold(np.array([0.5]), 0.2), [0.3])

    def test_signwise(self):
        np.testing.assert_allclose(soft_threshold(np.array([-0.1, 0.4]), 0.25), [0.0, 0.15])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10))
    def test_tau_zero_is_identity(self, vals):
        v = np.array(vals)
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
           st.floats(0.0, 1e3))
    def test_shrinks_by_tau(self, vals, tau):
        v = np.array(vals)
        out = soft_threshold(v, tau)
        np.testing.assert_allclose(np.abs(out), np.maximum(np.abs(v) - tau, 0.0),
                                   atol=1e-12)
        assert np.all(out * v >= 0)


class TestSmoothGradient:
    def test_zero_at_stationary_point(self, rng):
        d, p = 5, 3
        L = rng.normal(size=(p, d))
        w = rng.normal(size=d)
        prob = CodeProblem(w=w, omega=np.zeros((d, d)), decoder=rng.normal(size=(d, p)),
                           encoder_image=L @ w, reps=(), lambda1=0.0, lambda2=0.0)
        np.testing.assert_allclose(smooth_gradient(prob, L @ w), np.zeros(p), atol=1e-12)

    def test_single_rep_residuals_vanish(self, rng):
        d, p = 5, 3
        s1 = rng.normal(size=p)
        D = rng.normal(size=(d, p))
        B = rng.normal(size=(d, d))
        omega = B @ B.T
        w = D @ s1
        enc = rng.normal(size=p)
        prob = CodeProblem(w=w, omega=omega, decoder=D, encoder_image=enc,
                           reps=(Representative(code=s1, omega=omega, weight=1.0),),
                           lambda1=0.0, lambda2=1.0)
        np.testing.assert_allclose(smooth_gradient(prob, s1), 2 * (s1 - enc), atol=1e-10)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            prob = random_problem(rng)
            s = rng.normal(size=prob.code_len)
            grad = smooth_gradient(prob, s)
            fd = fd_gradient(lambda v: smooth_objective(prob, v), s, step=1e-6)
            scale = max(np.abs(grad).max(), 1.0)
            assert np.abs(grad - fd).max() <= 1e-5 * scale

    def test_dimension_mismatch(self, rng):
        prob = random_problem(rng)
        with pytest.raises(ValueError):
            smooth_gradient(prob, np.zeros(prob.code_len + 1))


class TestEncodeTask:
    def test_lambda1_zero_matches_linear_solve(self, rng):
        for _ in range(10):
            prob = random_problem(rng, lambda1=0.0)
            s = encode_task(prob)
            D, omega = prob.decoder, prob.omega
            G = D.T @ omega @ D + np.eye(prob.code_len)
            h = D.T @ (omega @ prob.w) + prob.encoder_image
            for rep in prob.reps:
                B = D.T @ rep.omega @ D
                G += prob.lambda2 * rep.weight * B
                h += prob.lambda2 * rep.weight * (B @ rep.code)
            expected = np.linalg.solve(G, h)
            assert np.abs(s - expected).max() <= 1e-6

    def test_separable_prox_case(self, rng):
        d = 4
        w = rng.normal(size=d)
        prob = CodeProblem(w=w, omega=0.5 * np.eye(d), decoder=np.eye(d),
                           encoder_image=w.copy(), reps=(), lambda1=0.3, lambda2=0.0)
        s = encode_task(prob)
        np.testing.assert_allclose(s, soft_threshold(w, 0.1), atol=1e-8)

    def test_beats_subgradient_oracle(self, rng):
        prob = random_problem(rng, lambda1=0.1)
        s = encode_task(prob)

        def obj_grad(x):
            return smooth_objective(prob, x), smooth_gradient(prob, x)

        _, oracle_val = subgradient_descent(obj_grad, prob.lambda1,
                                            prob.encoder_image, n_iter=50000)
        assert composite_objective(prob, s) <= oracle_val + 1e-5

    def test_objective_monotone(self, rng):
        for _ in range(5):
            prob = random_problem(rng)
            trace = []
            encode_task(prob, trace_out=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_sparsity_monotone_in_lambda1(self, rng):
        base = random_problem(rng, lambda1=0.0)
        zeros = []
        for lam in (0.0, 0.05, 0.2, 0.8, 3.0):
            prob = dataclasses.replace(base, lambda1=lam)
            s = encode_task(prob)
            zeros.append(int(np.sum(s == 0.0)))
        assert all(a <= b for a, b in zip(zeros, zeros[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 4),
           st.integers(0, 2), st.floats(0.0, 1.5))
    def test_kkt_certificate_and_monotone_trace(self, seed, p, extra_d, n_reps, frac):
        # lambda1 from 0 to past |2h|_inf = |grad(0)|_inf, where 0 is the code
        rng = np.random.default_rng(seed)
        base = random_problem(rng, d=p + extra_d, p=p, n_reps=n_reps, lambda1=0.0)
        top = float(np.abs(smooth_gradient(base, np.zeros(p))).max())
        prob = dataclasses.replace(base, lambda1=frac * top)
        trace = []
        s = encode_task(prob, trace_out=trace)
        assert_kkt(prob, s)
        assert np.all(np.diff(trace) <= 0.0)
        if frac > 1.0:
            assert not s.any() and trace == [trace[0]]

    def test_step_cap_raises(self, monkeypatch):
        # this instance takes two active-set solves: the seeded one leaves a
        # coefficient of the wrong sign, and a second solve drops it
        prob = random_problem(np.random.default_rng(0), lambda1=0.5)
        monkeypatch.setattr(sparse_code, "FEATURE_SIGN_MAX_STEPS", 2)
        assert_kkt(prob, encode_task(prob))
        monkeypatch.setattr(sparse_code, "FEATURE_SIGN_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError, match="1 active-set solves"):
            encode_task(prob)

    def test_logistic_stream_codes_certified(self, tmp_path, monkeypatch):
        # logistic tasks weight each representative by the Hessian at its
        # own reconstructed point, so the code problems of a round differ
        # from the squared-loss ones in more than the task term
        corpus = load_corpus(make_classification_corpus(tmp_path))
        solved = []

        def recording(prob, *args, **kwargs):
            s = encode_task(prob, *args, **kwargs)
            solved.append((prob, s))
            return s

        monkeypatch.setattr(engine, "encode_task", recording)
        state = init_state(HyperParams(p=4, ridge=0.5), seed=0)
        rounds = 0
        for task in corpus.tasks:
            state, out = learn_task(state, task)
            rounds += out.rounds
        assert len(solved) == rounds
        assert any(not np.array_equal(rep.omega, prob.omega)
                   for prob, _ in solved for rep in prob.reps)
        for prob, s in solved:
            assert_kkt(prob, s)

    def test_nonfinite_objective_names_term(self, rng):
        prob = random_problem(rng)
        bad = dataclasses_replace_w(prob, np.full(prob.w.shape, 1e308))
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="reconstruction term"):
                encode_task(bad)
        # a decoder whose D' Omega D overflows while w, the encoder image and
        # every term's value at s = 0 stay finite
        big = dataclasses.replace(prob, decoder=prob.decoder * 1e160,
                                  encoder_image=np.zeros(prob.code_len))
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="reconstruction term"):
                encode_task(big)
        rep = dataclasses.replace(prob.reps[1], code=prob.reps[1].code * 1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="representative term k=1"):
                encode_task(dataclasses.replace(prob, reps=(prob.reps[0], rep)))

    def test_step_overflow_names_its_term(self, rng):
        # the form is finite (c0 = 1.44e308), and the l1 term at the first
        # candidate is about 1.2e153; the first step's change overflows in
        # the encoder term's -2 h's
        base = random_problem(rng, n_reps=0)
        prob = dataclasses.replace(base, w=np.zeros(6), decoder=base.decoder * 1e-3,
                                   encoder_image=np.array([1.2e154, 0.0, 0.0, 0.0]))
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite code objective \(encoder coupling term\)$"):
                encode_task(prob)


def dataclasses_replace_w(prob, w):
    return dataclasses.replace(prob, w=w)
