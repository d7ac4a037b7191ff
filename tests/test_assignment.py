import warnings

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

    def test_zero_next_to_nonzero_returns_cap(self):
        # a representative that reconstructs the task exactly: log(0) would
        # make the cost infinite and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outlier_weight(np.array([0.0, 0.068]), gamma=0.25) == OUTLIER_WEIGHT_CAP

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            outlier_weight(np.array([1.0, -0.1]), gamma=1.0)

    def test_nonnegative_always(self, rng):
        for _ in range(50):
            dists = rng.random(rng.integers(1, 6)) * 10
            assert outlier_weight(dists, gamma=float(rng.random() + 0.1)) >= 0


class TestSolveAssignment:
    def test_mass_on_zero_cost_entry(self):
        a = solve_assignment(np.array([0.0, 5.0]), d0=5.0, lambda2=1.0)
        assert a == Assignment(slot=0, slots=3)

    def test_matches_grid_search_small(self):
        dists = np.array([1.0, 2.0])
        a = solve_assignment(dists, d0=3.0, lambda2=1.0)
        z_star, val_star = grid_search_assignment(np.array([1.0, 2.0, 3.0]), 1.0, 0.01,
                                                  resolution=1e-3)
        z = np.eye(a.slots)[a.slot]
        assert np.abs(z - z_star).max() <= 2e-3
        my_val = 1.0 * float(z @ np.array([1.0, 2.0, 3.0])) + 0.01 * np.abs(z).sum()
        assert my_val <= val_star + 1e-4

    def test_constant_objective_value(self):
        a = solve_assignment(np.array([2.0, 2.0]), d0=2.0, lambda2=1.5)
        val = 1.5 * float(np.eye(a.slots)[a.slot] @ np.full(3, 2.0))
        assert val == pytest.approx(1.5 * 2.0, abs=1e-6)

    def test_feasible_on_random_instances(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            dists = rng.random(k) * 5
            a = solve_assignment(dists, d0=float(rng.random() * 5), lambda2=1.0)
            assert type(a.slot) is int and 0 <= a.slot < a.slots == k + 1

    def test_cost_scaling_keeps_argmax(self, rng):
        for _ in range(20):
            dists = rng.random(3) * 4 + 0.1
            d0 = float(rng.random() * 4 + 0.1)
            scale = float(rng.random() * 50 + 0.5)
            a = solve_assignment(dists, d0, lambda2=1.0)
            b = solve_assignment(dists * scale, d0 * scale, lambda2=1.0 / scale)
            assert a.slot == b.slot

    def test_assignment_invariants_enforced(self):
        # a slot outside 0..slots - 1, and one that is a bool, a float or a
        # numpy integer, which no JSON checkpoint entry holds
        for slot, slots in ((2, 2), (-1, 2), (0, 0), (True, 2), (1.0, 2), (np.int64(1), 2),
                            (0, True), (0, 2.0)):
            with pytest.raises(ValueError, match="slot"):
                Assignment(slot=slot, slots=slots)
        assert Assignment(slot=1, slots=2).picks_outlier
        assert not Assignment(slot=0, slots=2).picks_outlier

    def test_negative_or_nan_cost_rejected(self):
        for dists, d0 in (([1.0, -0.1], 1.0), ([1.0], -1.0), ([np.nan], 1.0)):
            with pytest.raises(ValueError, match="costs"):
                solve_assignment(np.array(dists), d0, lambda2=1.0)
        with pytest.raises(ValueError, match="lambda2"):
            solve_assignment(np.array([1.0]), 1.0, lambda2=-1.0)


class TestClosedForm:
    def test_near_tie_returns_exact_vertex(self):
        # seed 0's task c1_t1 at K = 1: representative 0.1761 against the
        # outlier's 0.25 * log 2 = 0.1733; an iterative solver stalls here
        a = solve_assignment(np.array([0.1761]), 0.25 * np.log(2.0), 0.05)
        assert a == Assignment(slot=1, slots=2)
        assert a.picks_outlier

    def test_exact_tie_goes_to_lowest_index(self):
        a = solve_assignment(np.array([0.7, 0.3, 0.3]), 0.3, lambda2=1.0)
        assert a == Assignment(slot=1, slots=4)
        a = solve_assignment(np.array([0.5]), 0.5, lambda2=1.0)
        assert not a.picks_outlier

    def test_zero_lambda2_picks_slot_zero(self):
        a = solve_assignment(np.array([3.0, 0.1]), 0.0, lambda2=0.0)
        assert a == Assignment(slot=0, slots=3)

    def test_zero_lambda2_ignores_infinite_outlier_cost(self):
        # at lambda2 = 0, 0 * inf is nan and must not reach the argmin
        d0 = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = solve_assignment(np.array([0.0, 1.0]), d0, lambda2=0.0)
            b = solve_assignment(np.array([2.0, 1.0]), d0, lambda2=0.05)
        assert a == Assignment(slot=0, slots=3)
        assert b == Assignment(slot=1, slots=3)

    @given(cost_vectors, st.floats(0, 50), st.floats(0, 10), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_vertex_no_worse_than_any_vertex(self, dists, d0, lam2, alpha):
        a = solve_assignment(dists, d0, lam2)
        cost = np.append(dists, d0)
        assert a.slots == cost.size
        vertices = np.eye(cost.size)
        z = vertices[a.slot]
        objective = lam2 * (vertices @ cost) + alpha * np.abs(vertices).sum(axis=1)
        mine = lam2 * float(z @ cost) + alpha * float(np.abs(z).sum())
        assert mine <= objective.min()


class TestDegenerateCosts:
    def test_capped_outlier_cost_keeps_mass_off_outlier(self):
        from lifelong.assignment import OUTLIER_WEIGHT_CAP
        a = solve_assignment(np.zeros(3), d0=OUTLIER_WEIGHT_CAP, lambda2=0.05)
        assert a.slot < a.slots - 1
        assert not a.picks_outlier

    def test_non_default_penalties_reach_same_vertex(self):
        # a positive lambda2 scales every cost alike, so it does not move
        # the vertex
        dists = np.array([2.0, 0.3, 1.1])
        base = solve_assignment(dists, d0=0.9, lambda2=1.0)
        alt = solve_assignment(dists, d0=0.9, lambda2=7.5)
        assert base.slot == alt.slot == 1
        assert base == alt
