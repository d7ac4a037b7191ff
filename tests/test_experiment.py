import json
from pathlib import Path

import numpy as np
import pytest

from lifelong.cli import main
from lifelong.datasets import generate_disjoint, save_corpus
from lifelong.engine import HyperParams
from lifelong.experiment import ExperimentConfig, run_experiment


def tiny_config(tmp_path, **overrides):
    base = dict(
        dataset={"type": "disjoint", "clusters": 2, "tasks_per_cluster": 2,
                 "d": 8, "n_per_task": 12, "noise_std": 0.05},
        seeds=(0, 1),
        hyper=HyperParams(p=4),
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_summary(path):
    rows = {}
    for line in (Path(path) / "summary.csv").read_text().splitlines()[1:]:
        model, dataset, metric, mean, std = line.split(",")
        rows[(model, metric)] = (float(mean), float(std))
    return rows


class TestRunExperiment:
    def test_writes_all_outputs(self, tmp_path):
        config = tiny_config(tmp_path, eval_every_task=True, checkpoint_every=2)
        out = run_experiment(config)
        for seed in (0, 1):
            assert (out / f"per_task_{seed}.csv").exists()
            assert (out / f"timeline_{seed}.csv").exists()
            assert (out / f"correlation_{seed}.csv").exists()
            assert (out / f"curve_{seed}.csv").exists()
            assert (out / f"checkpoint_{seed}.json").exists()
            assert (out / f"checkpoint_{seed}_t2.json").exists()
        assert (out / "summary.csv").exists()
        assert not (out / "INCOMPLETE").exists()
        rows = read_summary(out)
        for model in ("engine", "stl", "ablation"):
            assert (model, "rmse") in rows
        assert ("engine", "representatives") in rows

    def test_deterministic_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        config_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        out_a = run_experiment(config_a)
        out_b = run_experiment(config_b)
        for name in ("summary.csv", "per_task_0.csv", "timeline_0.csv",
                     "correlation_1.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_baselines_flag(self, tmp_path):
        config = tiny_config(tmp_path, with_stl=False, with_ablation=False)
        out = run_experiment(config)
        rows = read_summary(out)
        assert ("stl", "rmse") not in rows
        assert ("ablation", "rmse") not in rows
        assert ("engine", "rmse") in rows

    def test_corpus_path_dataset(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=2, tasks_per_cluster=2,
                                   d=8, n_per_task=12)
        save_corpus(corpus, tmp_path / "corpus")
        config = tiny_config(
            tmp_path,
            dataset={"type": "corpus", "path": str(tmp_path / "corpus")},
            task_order="as_listed",
        )
        out = run_experiment(config)
        assert read_summary(out)[("engine", "rmse")][0] > 0

    def test_cluster_order_needs_ground_truth(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=2, tasks_per_cluster=2,
                                   d=8, n_per_task=12)
        save_corpus(corpus, tmp_path / "corpus")
        config = tiny_config(
            tmp_path,
            dataset={"type": "corpus", "path": str(tmp_path / "corpus")},
            task_order="one_by_one_clusters",
        )
        with pytest.raises(ValueError, match="ground truth"):
            run_experiment(config)

    def test_config_round_trip(self, tmp_path):
        config = tiny_config(tmp_path, task_order="one_by_one_clusters")
        back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert back == config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(task_order="sorted")
        with pytest.raises(ValueError):
            ExperimentConfig(dataset={"type": "mystery"})


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        code = main(["--config", str(cfg_path), "--seed", "0",
                     "--output", str(tmp_path / "cli_out")])
        assert code == 0
        assert (tmp_path / "cli_out" / "summary.csv").exists()
        assert not (tmp_path / "cli_out" / "per_task_1.csv").exists()

    def test_flag_overrides(self, tmp_path):
        config = tiny_config(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        code = main(["--config", str(cfg_path), "--seed", "0",
                     "--output", str(tmp_path / "cli_out2"), "--no-baselines",
                     "--order", "as_listed", "--eval-every-task"])
        assert code == 0
        rows = read_summary(tmp_path / "cli_out2")
        assert ("stl", "rmse") not in rows
        assert (tmp_path / "cli_out2" / "curve_0.csv").exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"task_order": "alphabetical"}))
        assert main(["--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_failure_leaves_incomplete_marker(self, tmp_path):
        # corpus path that vanishes mid-setup: manifest lists a missing file
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2,
                                   d=6, n_per_task=10)
        save_corpus(corpus, tmp_path / "corpus")
        (tmp_path / "corpus" / "c0_t1.csv").unlink()
        config = tiny_config(
            tmp_path,
            dataset={"type": "corpus", "path": str(tmp_path / "corpus")})
        with pytest.raises(FileNotFoundError):
            run_experiment(config)
        assert (Path(config.output_dir) / "INCOMPLETE").exists()


def make_classification_corpus(tmp_path, seed=0, tasks=4, d=6, n=40):
    """Tiny linearly separable-ish binary corpus written to disk."""
    from lifelong.datasets import TaskCorpus, save_corpus
    from lifelong.tasks import TaskData

    rng = np.random.default_rng(seed)
    task_list = []
    for i in range(tasks):
        w = rng.normal(size=d)
        X = rng.normal(size=(d, n))
        margins = w @ X + 0.6 * rng.normal(size=n)
        y = np.where(margins >= 0, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        task_list.append(TaskData(features=X, targets=y, loss_kind="logistic",
                                  task_id=f"cls{i}"))
    corpus = TaskCorpus(tasks=tuple(task_list), problem_kind="classification",
                        name="toycls")
    save_corpus(corpus, tmp_path / "cls_corpus")
    return tmp_path / "cls_corpus"


class TestClassificationPipeline:
    def test_end_to_end_auc_and_accuracy(self, tmp_path):
        path = make_classification_corpus(tmp_path)
        config = ExperimentConfig(
            dataset={"type": "corpus", "path": str(path)},
            seeds=(0,),
            task_order="as_listed",
            # near-separable toy data: a real ridge keeps the logistic fits
            # (and their Hessian weights) away from saturation
            hyper=HyperParams(p=4, ridge=0.5),
            output_dir=str(tmp_path / "out"),
        )
        out = run_experiment(config)
        rows = read_summary(out)
        for model in ("engine", "stl", "ablation"):
            auc_mean = rows[(model, "auc")][0]
            acc_mean = rows[(model, "accuracy")][0]
            assert 0.0 <= auc_mean <= 1.0
            assert 0.0 <= acc_mean <= 1.0
        # linear tasks with mild noise: the engine should rank far better
        # than chance on held-out halves
        assert rows[("engine", "auc")][0] > 0.7


class TestRepresentativeSnapshots:
    def test_codes_never_mutate_during_run(self, tmp_path):
        from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
        from lifelong.engine import init_state, learn_task

        corpus = generate_disjoint(seed=3, clusters=3, tasks_per_cluster=3,
                                   d=12, n_per_task=16, noise_std=0.05)
        train, _ = split_corpus(corpus, 0.5, seed=3)
        train, _ = standardize_targets(train, _)
        state = init_state(HyperParams(p=6), seed=3)
        snapshots = {}
        for task in train.tasks:
            state, out = learn_task(state, task)
            for rec in state.mlib.reps:
                key = (rec.source_task, rec.admitted_at)
                if key in snapshots:
                    np.testing.assert_array_equal(snapshots[key], rec.code)
                else:
                    snapshots[key] = rec.code.copy()
        assert len(snapshots) == len(state.mlib)
