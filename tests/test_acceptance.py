"""Acceptance suite.

Each criterion prints one pass/fail line (run with -s to see them on
success; failures show them regardless).  The synthetic-benchmark runs
use the default configuration over ten seeds and are shared across
criteria through session fixtures; the encoder-convergence check alone
runs a longer (90-task) stream of the same generator.
"""

import dataclasses
import time

import numpy as np
import pytest

from lifelong import engine
from lifelong.assignment import solve_assignment
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import (HyperParams, init_state, learn_task,
                             reconstruct_model, reconstructed_weights)
from lifelong.experiment import STL_RIDGE, ExperimentConfig, run_experiment, run_seed
from lifelong.libraries import decoder_system, update_encoder
from lifelong.metrics import model_correlation_matrix, rmse, within_between_gap
from lifelong.sparse_code import (CodeProblem, composite_objective, encode_task,
                                  smooth_gradient, smooth_objective)
from lifelong.tasks import fit_single_task, loss_gradient, loss_value

from oracles import (batch_clustered_mtl, decoder_statistics, fd_gradient,
                     grid_search_assignment, in_basis, pair_blocks, subgradient_descent)
from test_engine import replay_arrival
from test_sparse_code import random_problem
from test_tasks import random_task

SEEDS = tuple(range(10))


def _report(tag: str, ok: bool, detail: str):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="session")
def disjoint_runs():
    """Default-config benchmark over ten seeds: engine + both baselines,
    random task order.  Also times the end-to-end workload."""
    config = ExperimentConfig(seeds=SEEDS, task_order="random",
                              output_dir="unused")
    t0 = time.time()
    results = [run_seed(config, seed) for seed in SEEDS]
    elapsed = time.time() - t0
    return {"results": results, "elapsed": elapsed, "config": config}


def run_long_streams():
    """Engine-only runs of a 90-task stream (30 tasks per cluster), long
    enough for the stacked task vectors to span R^d; otherwise the default
    benchmark configuration over the same seeds."""
    config = ExperimentConfig(dataset={"type": "disjoint", "tasks_per_cluster": 30},
                              seeds=SEEDS, task_order="random",
                              output_dir="unused", with_stl=False,
                              with_ablation=False)
    return [run_seed(config, seed) for seed in SEEDS]


@pytest.fixture(scope="session")
def long_stream_runs():
    return run_long_streams()


def task_vectors(result, **dataset):
    """The single-task fits w of `result`'s learned tasks, stacked in
    stream order, from `run_seed`'s training split of the disjoint corpus
    with parameters `dataset`: bit for bit the fits their arrivals used."""
    seed = result.seed
    train, test = split_corpus(generate_disjoint(seed=seed, **dataset),
                               ExperimentConfig.train_fraction, seed)
    by_id = {t.task_id: t for t in standardize_targets(train, test)[0].tasks}
    return np.array([fit_single_task(by_id[tid], result.state.hyper.ridge).w
                     for tid in result.state.per_task])


@pytest.fixture(scope="session")
def obo_runs():
    config = ExperimentConfig(seeds=SEEDS, task_order="one_by_one_clusters",
                              output_dir="unused", with_stl=False,
                              with_ablation=False)
    return [run_seed(config, seed) for seed in SEEDS]


def _mean_metric(results, model, metric="rmse"):
    return float(np.mean([r.reports[model][metric].mean for r in results]))


class TestCriterion1:
    def test_disjoint_end_to_end(self, disjoint_runs):
        res = disjoint_runs["results"]
        full = _mean_metric(res, "engine")
        stl = _mean_metric(res, "stl")
        abl = _mean_metric(res, "ablation")
        elapsed = disjoint_runs["elapsed"]
        ok = (full < stl - 0.10) and (full <= abl + 0.005) and elapsed < 120
        _report("criterion 1", ok,
                f"full={full:.4f} stl={stl:.4f} ablation={abl:.4f} "
                f"elapsed={elapsed:.0f}s (< 120s)")

    def test_stl_band(self, disjoint_runs):
        stl = _mean_metric(disjoint_runs["results"], "stl")
        _report("criterion 1 / STL band", 0.80 <= stl <= 1.15,
                f"stl={stl:.4f} within [0.80, 1.15]")

    def test_ablation_not_better_than_full(self, disjoint_runs):
        res = disjoint_runs["results"]
        full = _mean_metric(res, "engine")
        abl = _mean_metric(res, "ablation")
        _report("criterion 1 / ablation gap", abl >= full - 0.005,
                f"ablation={abl:.4f} >= full - 0.005 = {full - 0.005:.4f}")


class TestCriterion2:
    def test_representative_discovery(self, disjoint_runs):
        counts = [len(r.state.mlib) for r in disjoint_runs["results"]]
        med = float(np.median(counts))
        ok = all(2 <= k <= 6 for k in counts) and 3 <= med <= 5
        _report("criterion 2", ok, f"representative counts {counts}, median {med}")


class TestCriterion3:
    def test_cluster_structure(self, disjoint_runs):
        gaps = []
        for r in disjoint_runs["results"]:
            ids, weights = reconstructed_weights(r.state)
            labels = np.array([int(tid.split("_")[0][1:]) for tid in ids])
            corr = model_correlation_matrix(weights)
            gaps.append(within_between_gap(corr, labels))
        gap = float(np.mean(gaps))
        _report("criterion 3", gap >= 0.15,
                f"within-minus-cross correlation gap {gap:.3f} (>= 0.15)")


class TestCriterion4:
    def test_task_order_robustness(self, disjoint_runs, obo_runs):
        rand = _mean_metric(disjoint_runs["results"], "engine")
        obo = _mean_metric(obo_runs, "engine")
        abl = _mean_metric(disjoint_runs["results"], "ablation")
        ok = abs(rand - obo) <= 0.08 and rand < abl and obo < abl
        _report("criterion 4", ok,
                f"random={rand:.4f} one_by_one={obo:.4f} |diff|={abs(rand - obo):.4f} "
                f"ablation={abl:.4f}")


class TestCriterion5:
    @staticmethod
    def _check(results, attr):
        per_seed = []
        for r in results:
            deltas = np.array([getattr(o, attr) for o in r.outcomes])
            T = np.arange(1, deltas.size + 1)
            prod = deltas * T
            third = deltas.size // 3
            bounded = bool(prod.max() <= 10 * prod[4])
            trending = bool(np.median(deltas[-third:]) < np.median(deltas[:third]))
            per_seed.append((r.seed, bounded, trending))
        return per_seed

    def test_decoder_convergence(self, disjoint_runs):
        per_seed = self._check(disjoint_runs["results"], "decoder_delta")
        ok = all(b and t for _, b, t in per_seed)
        _report("criterion 5 / decoder", ok,
                f"delta*T bounded and per-task steps trending down on all seeds: {per_seed}")

    @staticmethod
    def _encoder_check(results):
        """(ok, detail) of the encoder check on the 90-task `results`.

        Each arrival adds only the rank-one term outer(w_t, w_t) to the
        encoder statistics acc_C.  Until the task vectors span R^d, every
        arrival brings a fresh direction that the ridge (T * mu <= 0.03 on
        the 30-task benchmark) barely damps, so the step follows the code
        scale, which grows from about 0.05 (tasks 2-4) to about 0.4, and
        delta * T rises until T = d = 40.  The 1/T rate (ELLA's
        Proposition 1) is asymptotic and needs full-rank averaged
        statistics, so the stream runs to 90 tasks and the bound is taken
        from T0, the first arrival at which the stacked task vectors have
        rank d.  The trend still compares thirds of the whole stream."""
        per_seed = []
        for r in results:
            deltas = np.array([o.encoder_delta for o in r.outcomes])
            W = task_vectors(r, tasks_per_cluster=30)
            d = W.shape[1]
            T0 = next((T for T in range(d, len(W) + 1)
                       if np.linalg.matrix_rank(W[:T]) == d), None)
            prod = deltas * np.arange(1, deltas.size + 1)
            ratio = (float(prod[T0 - 1:].max() / prod[T0 - 1])
                     if T0 is not None else float("inf"))
            third = deltas.size // 3
            first = float(np.median(deltas[:third]))
            last = float(np.median(deltas[-third:]))
            per_seed.append((r.seed, T0, ratio, first, last))
        ok = all(ratio <= 10 and last < first
                 for _, _, ratio, first, last in per_seed)
        detail = "; ".join(
            f"seed {seed}: T0={T0} max(delta*T)/(delta*T at T0)={ratio:.2f} "
            f"median step {first:.3f} -> {last:.3f}"
            for seed, T0, ratio, first, last in per_seed)
        return ok, detail

    def test_encoder_convergence(self, long_stream_runs):
        ok, detail = self._encoder_check(long_stream_runs)
        _report("criterion 5 / encoder", ok,
                f"from full rank, delta*T <= 10x its T0 value and steps "
                f"trending down on all seeds: {detail}")

    def test_encoder_check_rejects_current_task_encoder(self, monkeypatch):
        # negative control: an encoder refit from the current task alone
        # keeps a roughly constant step, which the trend half rejects; its
        # statistics are one task's, so its ridge is one task's, mu
        def current_task_only(lib, s_t, w_t, phi_inverse, ridge_mu):
            alone = dataclasses.replace(lib, acc_M=np.zeros_like(lib.acc_M),
                                        acc_C=np.zeros_like(lib.acc_C))
            return update_encoder(alone, s_t, w_t, phi_inverse, HyperParams().mu)

        monkeypatch.setattr(engine, "update_encoder", current_task_only)
        ok, detail = self._encoder_check(run_long_streams())
        _report("criterion 5 / encoder negative control", not ok,
                f"the check rejects an encoder refit from the current task alone: {detail}")


class TestCriterion6:
    def test_admm_matches_grid_search(self):
        rng = np.random.default_rng(2024)
        resolutions = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 2e-2}
        # the objective is linear over the simplex (the l1 term is constant
        # there), so any grid containing the vertices attains the grid
        # optimum of the 1e-3 grid; coarser grids for K = 3, 4 keep the
        # enumeration literal yet tractable
        worst_coord = worst_obj = 0.0
        for i in range(200):
            K = int(rng.integers(1, 5))
            dists = rng.uniform(0.05, 5.0, size=K)
            d0 = float(rng.uniform(0.05, 5.0))
            lam2, alpha = 1.0, float(rng.uniform(0.0, 0.1))
            # the oracle keeps an l1 weight, constant on the simplex, which
            # the closed form has no argument for
            a = solve_assignment(dists, d0, lam2)
            cost = np.append(dists, d0)
            z_star, val_star = grid_search_assignment(cost, lam2, alpha,
                                                      resolutions[K])
            # the closed form's vertex, as the simplex point the oracle compares
            z = np.eye(K + 1)[a.slot]
            assert a.slots == K + 1
            val = lam2 * float(z @ cost) + alpha * float(np.abs(z).sum())
            worst_coord = max(worst_coord, float(np.abs(z - z_star).max()))
            worst_obj = max(worst_obj, val - val_star)
        ok = worst_coord <= 2e-3 and worst_obj <= 1e-4
        _report("criterion 6", ok,
                f"200 instances: max coord err {worst_coord:.2e} (<= 2e-3), "
                f"max objective excess {worst_obj:.2e} (<= 1e-4)")


class TestCriterion7:
    def test_coder_matches_linear_solve(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            prob = random_problem(rng, lambda1=0.0)
            s = encode_task(prob)
            D, omega = prob.decoder, prob.omega
            G = D.T @ omega @ D + np.eye(prob.code_len)
            h = D.T @ (omega @ prob.w) + prob.encoder_image
            for rep in prob.reps:
                B = D.T @ rep.omega @ D
                G += prob.lambda2 * rep.weight * B
                h += prob.lambda2 * rep.weight * (B @ rep.code)
            worst = max(worst, float(np.abs(s - np.linalg.solve(G, h)).max()))
        _report("criterion 7a", worst <= 1e-6,
                f"100 instances: max coordinate error vs direct solve {worst:.2e}")

    def test_coder_beats_subgradient_oracle(self):
        # 10x the longest run (56 accepted steps) of an accelerated proximal
        # gradient coder on these instances: every instance gets an oracle
        # at least that strong
        budget = 560
        rng = np.random.default_rng(12)
        worst = -np.inf
        for _ in range(100):
            prob = random_problem(rng, lambda1=0.1)
            s = encode_task(prob)

            def obj_grad(x, prob=prob):
                return smooth_objective(prob, x), smooth_gradient(prob, x)

            _, oracle_val = subgradient_descent(obj_grad, prob.lambda1,
                                                prob.encoder_image,
                                                n_iter=budget)
            worst = max(worst, composite_objective(prob, s) - oracle_val)
        _report("criterion 7b", worst <= 1e-5,
                f"100 instances: max objective excess over {budget}-step "
                f"subgradient oracle {worst:.2e}")


class TestCriterion8:
    def test_taylor_exactness(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            task = random_task(rng, d=6, n=11)
            model = fit_single_task(task, ridge=0.0)
            grad = loss_gradient(task, model.w)
            for _ in range(100):
                probe = model.w + rng.normal(size=6) * rng.uniform(0.1, 3.0)
                diff = probe - model.w
                surrogate = (model.loss_at_w + float(grad @ diff)
                             + float(diff @ (model.omega @ diff)))
                truth = loss_value(task, probe)
                worst = max(worst, abs(truth - surrogate) / max(1.0, abs(truth)))
        _report("criterion 8", worst <= 1e-10,
                f"2000 probes: max relative surrogate error {worst:.2e}")


class TestCriterion9:
    def test_gradient_checks(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            prob = random_problem(rng)
            s = rng.normal(size=prob.code_len)
            grad = smooth_gradient(prob, s)
            fd = fd_gradient(lambda v: smooth_objective(prob, v), s, step=1e-5)
            worst = max(worst, float(np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())))
        worst_log = 0.0
        for _ in range(100):
            task = random_task(rng, d=5, n=9, kind="logistic")
            point = rng.normal(size=5)
            grad = loss_gradient(task, point)
            fd = fd_gradient(lambda v: loss_value(task, v), point, step=1e-5)
            worst_log = max(worst_log, float(np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())))
        ok = worst <= 1e-5 and worst_log <= 1e-5
        _report("criterion 9", ok,
                f"code gradient max rel err {worst:.2e}, logistic gradient "
                f"max rel err {worst_log:.2e}")


class TestCriterion10:
    def test_accumulator_equivalence(self):
        # each arrival is replayed from its task and the state before it and
        # re-summed with literal Kronecker products; A is projected onto the
        # library's code basis, whose rank r sizes the system, and acc_b is
        # the literal sum itself, vec(acc_b) = b
        corpus = generate_disjoint(seed=0)
        hp = HyperParams()
        state = init_state(hp, seed=0)
        A = b = M = C = 0.0
        worst = 0.0
        sized_by_rank = True
        for task in corpus.tasks:   # 30-task stream, every prefix checked
            before = state
            state, _ = learn_task(state, task)
            s, w, _, _ = arrival = replay_arrival(before, state, task)
            A_t, b_t = decoder_statistics([arrival], hp.lambda2)
            A, b, M, C = A + A_t, b + b_t, M + np.outer(s, w), C + np.outer(w, w)
            flib = state.flib
            r = flib.basis.shape[1]
            # the system the refit assembles from the library's terms
            system = decoder_system(flib)
            sized_by_rank &= system.shape == (r * flib.d, r * flib.d)
            pairs, _ = in_basis(A, b, flib.basis)
            for batch, inc in ((pairs, pair_blocks(system, flib.d)),
                               (b, flib.acc_b.reshape(-1, order="F")),
                               (M, flib.acc_M), (C, flib.acc_C)):
                scale = max(np.abs(batch).max(), 1.0)
                worst = max(worst, float(np.abs(batch - inc).max() / scale))
        _report("criterion 10", worst <= 1e-9 and sized_by_rank,
                f"30 prefixes: max relative accumulator deviation {worst:.2e}, "
                f"system sized by the basis rank: {sized_by_rank}")


class TestCriterion11:
    def test_byte_identical_reruns(self, tmp_path):
        base = dict(
            dataset={"type": "disjoint", "clusters": 2, "tasks_per_cluster": 3,
                     "d": 12, "n_per_task": 14, "noise_std": 0.05},
            seeds=(0, 1),
            hyper=HyperParams(p=6),
        )
        out_a = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "a"), **base))
        out_b = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "b"), **base))
        same = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                   for n in ("summary.csv", "per_task_0.csv", "per_task_1.csv",
                             "timeline_0.csv", "correlation_0.csv"))
        _report("criterion 11", same, "two identical runs produced byte-identical reports")


class TestEngineExamples:
    """Ten-seed benchmark checks that share the acceptance fixtures."""

    def test_reconstruction_cosine_to_ground_truth(self, disjoint_runs):
        coss = []
        for r in disjoint_runs["results"]:
            corpus = generate_disjoint(seed=r.seed)
            truth = {t.task_id: corpus.ground_truth.true_weights[:, i]
                     for i, t in enumerate(corpus.tasks)}
            for tid in r.state.per_task:
                rec = reconstruct_model(r.state, tid)
                t = truth[tid]
                coss.append(abs(rec @ t) / (np.linalg.norm(rec) * np.linalg.norm(t)))
        cos = float(np.mean(coss))
        _report("engine example / cosine", cos >= 0.8,
                f"mean |cosine| to true weights {cos:.3f} (>= 0.8)")

    def test_timeline_admissions_match_library(self, disjoint_runs):
        ok = all(sum(o.admitted for o in r.outcomes) == len(r.state.mlib)
                 for r in disjoint_runs["results"])
        _report("engine example / timeline", ok,
                "admitted-count equals final library size on every seed")

    def test_gap_to_batch_clustered_mtl(self, disjoint_runs):
        # a printed diagnostic with no bound: the engine against the batch
        # clustered multi-task reference, which sees every task at once
        per_seed = []
        for r in disjoint_runs["results"]:
            corpus = generate_disjoint(seed=r.seed)
            train, test = standardize_targets(*split_corpus(
                corpus, ExperimentConfig.train_fraction, r.seed))
            k = np.unique(corpus.ground_truth.cluster_labels).size
            weights = batch_clustered_mtl([(t.features, t.targets) for t in train.tasks],
                                          k, STL_RIDGE)
            ref = np.mean([rmse(t.features.T @ w, t.targets)
                           for t, w in zip(test.tasks, weights)])
            per_seed.append((r.reports["engine"]["rmse"].mean, float(ref)))
        full, ref = np.mean(per_seed, axis=0)
        print(f"\n[batch clustered MTL] engine={full:.4f} reference={ref:.4f} "
              f"gap={full - ref:.4f} (no bound); per seed (engine, reference): "
              + ", ".join(f"({e:.4f}, {b:.4f})" for e, b in per_seed))
        assert np.isfinite(per_seed).all()

    def test_cluster_sweep(self):
        # a printed diagnostic with no bound: does the model library find
        # the task environments as their number grows?  At d = 48 each
        # swept count gets a block of its own; a task's cluster is the
        # c<k> of its id
        def cluster(tid):
            return tid.split("_")[0]

        for clusters in (2, 3, 4, 6):
            config = ExperimentConfig(dataset={"type": "disjoint", "clusters": clusters, "d": 48},
                                      with_stl=False, with_ablation=False)
            counts, covering, own, assigned = [], [], 0, 0
            for seed in SEEDS:
                result = run_seed(config, seed)
                reps = result.state.mlib
                counts.append(len(reps))
                if {cluster(tid) for tid in reps} == {f"c{c}" for c in range(clusters)}:
                    covering.append(seed)
                for o in result.outcomes:
                    if not o.admitted:
                        assigned += 1
                        # a slot before the outlier slot is the representative
                        # of that index, admitted before the task
                        own += (not o.assignment.picks_outlier
                                and cluster(reps[o.assignment.slot]) == cluster(o.task_id))
            print(f"\n[cluster sweep] clusters={clusters} d=48: representatives "
                  f"{np.mean(counts):.1f} {counts}, seeds covering every cluster {covering} "
                  f"({len(covering)}/{len(SEEDS)}), own-cluster assignments {own}/{assigned} "
                  f"(no bound)")
