import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong.assignment import Assignment, solve_assignment
from lifelong.datasets import generate_disjoint
from lifelong.metrics import (ABSENT, MetricReport, accuracy, auc,
                              model_correlation_matrix, rmse, timeline_to_csv,
                              within_between_gap)


class TestRmse:
    def test_zero_on_equal(self):
        v = np.array([1.0, 2.0, 3.0])
        assert rmse(v, v) == 0.0

    def test_arithmetic(self):
        assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))

    def test_matches_two_pass_oracle(self, rng):
        pred = rng.normal(size=17)
        truth = rng.normal(size=17)
        total = 0.0
        for a, b in zip(pred, truth):
            total += (a - b) ** 2
        assert rmse(pred, truth) == pytest.approx(np.sqrt(total / 17), abs=1e-12)

    @given(st.permutations(list(range(8))))
    def test_permutation_invariant(self, perm):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=8)
        truth = rng.normal(size=8)
        p = np.array(perm)
        assert rmse(pred[p], truth[p]) == pytest.approx(rmse(pred, truth))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.9, 0.1]), np.array([1.0, -1.0])) == 1.0

    def test_all_ties(self):
        assert auc(np.zeros(6), np.array([1, 1, 1, -1, -1, -1.0])) == 0.5

    def test_matches_pair_counting(self, rng):
        scores = rng.normal(size=20).round(1)   # rounding forces some ties
        labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        pos = scores[labels > 0]
        neg = scores[labels < 0]
        wins = ties = 0
        for sp in pos:
            for sn in neg:
                wins += sp > sn
                ties += sp == sn
        expected = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.normal(size=30)
        labels = np.where(rng.random(30) < 0.4, 1.0, -1.0)
        labels[0], labels[1] = 1.0, -1.0
        base = auc(scores, labels)
        assert auc(3 * scores + 7, labels) == pytest.approx(base)
        assert auc(np.exp(scores), labels) == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))


class TestAccuracy:
    def test_extremes_and_half(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        assert accuracy(a, a) == 1.0
        assert accuracy(a, -a) == 0.0
        assert accuracy(a, np.array([1.0, -1.0, -1.0, 1.0])) == 0.5


class TestCorrelationMatrix:
    def test_identical_columns(self):
        w = np.tile(np.array([[1.0], [2.0]]), (1, 3))
        np.testing.assert_allclose(model_correlation_matrix(w), np.ones((3, 3)))

    def test_orthogonal_columns(self):
        np.testing.assert_allclose(model_correlation_matrix(np.eye(3)), np.eye(3))

    def test_matrix_properties(self, rng):
        corr = model_correlation_matrix(rng.normal(size=(6, 5)))
        np.testing.assert_allclose(corr, corr.T)
        np.testing.assert_allclose(np.diag(corr), 1.0)
        assert corr.min() >= 0.0 and corr.max() <= 1.0

    def test_zero_column_warns(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            corr = model_correlation_matrix(w)
        assert corr[0, 1] == 0.0
        assert corr[1, 1] == 1.0

    def test_ground_truth_block_structure(self):
        gaps = []
        for seed in range(10):
            corpus = generate_disjoint(seed=seed)
            corr = model_correlation_matrix(corpus.ground_truth.true_weights)
            gaps.append(within_between_gap(corr, corpus.ground_truth.cluster_labels))
        assert np.mean(gaps) >= 0.2


class _FakeOutcome:
    def __init__(self, task_id, assignment, admitted):
        self.task_id = task_id
        self.assignment = assignment
        self.admitted = admitted


class TestTimeline:
    def test_single_row(self):
        text = timeline_to_csv([_FakeOutcome("t0", Assignment(slot=0, slots=1), True)])
        assert text == "index,task_id,admitted,argmax_slot,z0\n1,t0,1,0,1.0\n"

    def test_admitted_count_matches_final_k(self):
        outs = [
            _FakeOutcome("t0", Assignment(slot=0, slots=1), True),
            _FakeOutcome("t1", Assignment(slot=0, slots=2), False),
            _FakeOutcome("t2", Assignment(slot=1, slots=2), True),
        ]
        rows = list(csv.DictReader(io.StringIO(timeline_to_csv(outs))))
        assert sum(int(r["admitted"]) for r in rows) == 2

    def test_csv_pads_with_absent(self):
        outs = [
            _FakeOutcome("t0", Assignment(slot=0, slots=1), True),
            _FakeOutcome("t1", Assignment(slot=1, slots=2), True),
        ]
        text = timeline_to_csv(outs)
        lines = text.strip().split("\n")
        assert lines[0] == "index,task_id,admitted,argmax_slot,z0,z1"
        assert lines[1].endswith(ABSENT)
        assert ABSENT not in lines[2]

    def test_csv_golden(self):
        # the z<j> cells of a row are 1.0 at its slot and 0.0 at the other
        # slots, then absent up to the widest row
        outs = [_FakeOutcome(f"t{i}", solve_assignment(np.array(dists), d0, lambda2=1.0), admitted)
                for i, (dists, d0, admitted) in enumerate([
                    ([], 1.0, True), ([0.5], 0.2, True), ([0.3, 0.1], 0.2, False),
                    ([0.1, 0.4], 0.2, False)])]
        assert timeline_to_csv(outs) == (
            "index,task_id,admitted,argmax_slot,z0,z1,z2\n"
            "1,t0,1,0,1.0,absent,absent\n"
            "2,t1,1,1,0.0,1.0,absent\n"
            "3,t2,0,1,0.0,1.0,0.0\n"
            "4,t3,0,0,1.0,0.0,0.0\n")


class TestReports:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            MetricReport(per_task={"a": 1.2}, metric_kind="auc")
        with pytest.raises(ValueError):
            MetricReport(per_task={"a": -0.1}, metric_kind="rmse")
