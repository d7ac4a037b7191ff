import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong.assignment import (OUTLIER_WEIGHT_CAP, Assignment, outlier_weight,
                                 representative_distances, solve_assignment)

from oracles import grid_search_assignment

cost_vectors = st.lists(st.floats(0, 50), min_size=1, max_size=8).map(np.array)


class TestRepresentativeDistances:
    def test_zero_when_codes_match(self, rng):
        D = rng.normal(size=(5, 3))
        s = rng.normal(size=3)
        omega = np.eye(5)
        dists = representative_distances(D, s, [(s.copy(), omega)] * 3)
        np.testing.assert_allclose(dists, np.zeros(3), atol=1e-14)

    def test_euclidean_special_case(self):
        D = np.eye(2)
        dists = representative_distances(D, np.zeros(2), [(np.array([3.0, 4.0]), np.eye(2))])
        assert dists[0] == pytest.approx(25.0)

    def test_matches_loop_oracle(self, rng):
        d, p = 6, 4
        D = rng.normal(size=(d, p))
        s_t = rng.normal(size=p)
        reps = []
        for _ in range(3):
            B = rng.normal(size=(d, d))
            reps.append((rng.normal(size=p), B @ B.T))
        dists = representative_distances(D, s_t, reps)
        for k, (s_k, omega_k) in enumerate(reps):
            diff = D @ s_k - D @ s_t
            expected = sum(diff[i] * omega_k[i, j] * diff[j]
                           for i in range(d) for j in range(d))
            assert dists[k] == pytest.approx(expected, rel=1e-9)
        assert np.all(dists >= 0)

    def test_dimension_mismatch(self, rng):
        D = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            representative_distances(D, np.zeros(4), [(np.zeros(3), np.eye(5))])


class TestOutlierWeight:
    def test_equal_pair(self):
        assert outlier_weight(np.array([4.0, 4.0]), gamma=1.0) == pytest.approx(np.log(2))

    def test_single_distance_is_zero(self):
        assert outlier_weight(np.array([7.3]), gamma=1.0) == 0.0

    def test_skewed_pair(self):
        assert outlier_weight(np.array([1.0, 9.0]), gamma=2.0) == pytest.approx(-2 * np.log(0.1))

    def test_all_zero_returns_cap(self):
        assert outlier_weight(np.zeros(3), gamma=1.0) == OUTLIER_WEIGHT_CAP

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            outlier_weight(np.array([1.0, -0.1]), gamma=1.0)

    def test_nonnegative_always(self, rng):
        for _ in range(50):
            dists = rng.random(rng.integers(1, 6)) * 10
            assert outlier_weight(dists, gamma=float(rng.random() + 0.1)) >= 0


class TestSolveAssignment:
    def test_mass_on_zero_cost_entry(self):
        a = solve_assignment(np.array([0.0, 5.0]), d0=5.0, lambda2=1.0, alpha=0.1)
        np.testing.assert_array_equal(a.z, [1.0, 0.0, 0.0])

    def test_matches_grid_search_small(self):
        dists = np.array([1.0, 2.0])
        a = solve_assignment(dists, d0=3.0, lambda2=1.0, alpha=0.01)
        z_star, val_star = grid_search_assignment(np.array([1.0, 2.0, 3.0]), 1.0, 0.01,
                                                  resolution=1e-3)
        assert np.abs(a.z - z_star).max() <= 2e-3
        my_val = 1.0 * float(a.z @ np.array([1.0, 2.0, 3.0])) + 0.01 * np.abs(a.z).sum()
        assert my_val <= val_star + 1e-4

    def test_constant_objective_value(self):
        a = solve_assignment(np.array([2.0, 2.0]), d0=2.0, lambda2=1.5, alpha=0.0)
        val = 1.5 * float(a.z @ np.full(3, 2.0))
        assert val == pytest.approx(1.5 * 2.0, abs=1e-6)

    def test_feasible_on_random_instances(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            dists = rng.random(k) * 5
            a = solve_assignment(dists, d0=float(rng.random() * 5), lambda2=1.0,
                                 alpha=float(rng.random() * 0.2))
            assert a.z.min() >= -1e-8
            assert a.z.max() <= 1 + 1e-8
            assert a.z.sum() == pytest.approx(1.0, abs=1e-6)

    def test_cost_scaling_keeps_argmax(self, rng):
        for _ in range(20):
            dists = rng.random(3) * 4 + 0.1
            d0 = float(rng.random() * 4 + 0.1)
            scale = float(rng.random() * 50 + 0.5)
            a = solve_assignment(dists, d0, lambda2=1.0, alpha=0.05)
            b = solve_assignment(dists * scale, d0 * scale, lambda2=1.0 / scale, alpha=0.05)
            assert a.argmax_slot == b.argmax_slot

    def test_assignment_invariants_enforced(self):
        with pytest.raises(ValueError):
            Assignment(z=np.array([0.7, 0.6]))
        with pytest.raises(ValueError):
            Assignment(z=np.array([1.2, -0.2]))

    def test_negative_or_nan_cost_rejected(self):
        for dists, d0 in (([1.0, -0.1], 1.0), ([1.0], -1.0), ([np.nan], 1.0)):
            with pytest.raises(ValueError, match="costs"):
                solve_assignment(np.array(dists), d0, lambda2=1.0, alpha=0.1)
        with pytest.raises(ValueError, match="lambda2"):
            solve_assignment(np.array([1.0]), 1.0, lambda2=-1.0, alpha=0.1)


class TestClosedForm:
    def test_near_tie_returns_exact_vertex(self):
        # seed 0's task c1_t1 at K = 1: representative 0.1761 against the
        # outlier's 0.25 * log 2 = 0.1733; an iterative solver stalls here
        a = solve_assignment(np.array([0.1761]), 0.25 * np.log(2.0), 0.05, 0.05)
        np.testing.assert_array_equal(a.z, [0.0, 1.0])
        assert a.picks_outlier

    def test_exact_tie_goes_to_lowest_index(self):
        a = solve_assignment(np.array([0.7, 0.3, 0.3]), 0.3, lambda2=1.0, alpha=0.05)
        np.testing.assert_array_equal(a.z, [0.0, 1.0, 0.0, 0.0])
        a = solve_assignment(np.array([0.5]), 0.5, lambda2=1.0, alpha=0.05)
        assert not a.picks_outlier

    def test_zero_lambda2_picks_slot_zero(self):
        a = solve_assignment(np.array([3.0, 0.1]), 0.0, lambda2=0.0, alpha=0.05)
        np.testing.assert_array_equal(a.z, [1.0, 0.0, 0.0])

    @given(cost_vectors, st.floats(0, 50), st.floats(0, 10), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_vertex_no_worse_than_any_vertex(self, dists, d0, lam2, alpha):
        a = solve_assignment(dists, d0, lam2, alpha)
        cost = np.append(dists, d0)
        assert np.count_nonzero(a.z) == 1 and a.z.max() == 1.0
        vertices = np.eye(cost.size)
        objective = lam2 * (vertices @ cost) + alpha * np.abs(vertices).sum(axis=1)
        mine = lam2 * float(a.z @ cost) + alpha * float(np.abs(a.z).sum())
        assert mine <= objective.min()


class TestDegenerateCosts:
    def test_capped_outlier_cost_keeps_mass_off_outlier(self):
        from lifelong.assignment import OUTLIER_WEIGHT_CAP
        a = solve_assignment(np.zeros(3), d0=OUTLIER_WEIGHT_CAP, lambda2=0.05,
                             alpha=0.05)
        assert a.outlier_probability <= 1e-6
        assert not a.picks_outlier

    def test_non_default_penalties_reach_same_vertex(self):
        # the l1 term is constant on the simplex, so neither alpha nor a
        # positive lambda2 moves the vertex
        dists = np.array([2.0, 0.3, 1.1])
        base = solve_assignment(dists, d0=0.9, lambda2=1.0, alpha=0.02)
        alt = solve_assignment(dists, d0=0.9, lambda2=7.5, alpha=0.6)
        assert base.argmax_slot == alt.argmax_slot == 1
        np.testing.assert_array_equal(base.z, alt.z)
