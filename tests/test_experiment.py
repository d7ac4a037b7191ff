import json
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong import experiment
from lifelong.cli import main
from lifelong.datasets import generate_disjoint, save_corpus
from lifelong.engine import HyperParams, load_state
from lifelong.experiment import ExperimentConfig, run_experiment

from test_engine import mutate_document


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

    def test_one_task_stream_writes_every_report(self, tmp_path):
        # a one-task correlation matrix is [[1.0]]; the run completes and
        # its checkpoints load
        config = tiny_config(tmp_path, seeds=(0,), eval_every_task=True, checkpoint_every=1,
                             dataset={"type": "disjoint", "clusters": 1,
                                      "tasks_per_cluster": 1, "d": 20})
        out = run_experiment(config)
        names = {"summary.csv", "run_metadata.json", "per_task_0.csv", "timeline_0.csv",
                 "correlation_0.csv", "curve_0.csv", "checkpoint_0.json",
                 "checkpoint_0_t1.json"}
        assert names <= {f.name for f in out.iterdir()}
        assert not (out / "INCOMPLETE").exists()
        assert (out / "correlation_0.csv").read_text() == "task_id,c0_t0\nc0_t0,1.0\n"
        for name in ("checkpoint_0.json", "checkpoint_0_t1.json"):
            assert list(load_state(out / name).per_task) == ["c0_t0"]

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
        with pytest.raises(ValueError, match="checkpoint_every"):
            ExperimentConfig(checkpoint_every=-1)
        with pytest.raises(ValueError, match=re.escape("[2, 5]")):
            ExperimentConfig(seeds=(5, 1, 2, 5, 2))


    @pytest.mark.parametrize("section, key, value", [
        ("config", "seeds", "12"), ("config", "seeds", [1.7]), ("config", "seeds", [True]),
        ("config", "checkpoint_every", 2.5), ("config", "checkpoint_every", True),
        ("config", "eval_every_task", "false"), ("config", "with_stl", "no"),
        ("hyper", "lambda1", "0.1")])
    def test_mistyped_entry_refused_by_name(self, section, key, value):
        # json.load hands each of these over as it stands; none may be
        # coerced to another run or fail inside numpy
        values = ExperimentConfig().to_dict()
        (values["hyper"] if section == "hyper" else values)[key] = value
        where = f"config entry 'hyper.{key}': " if section == "hyper" else ""
        with pytest.raises(ValueError, match=f"^{re.escape(where)}{key} must be"):
            ExperimentConfig.from_dict(values)

    @pytest.mark.parametrize("key, value", [("bogus", 1), ("phi", "relu"), ("p", 0),
                                            ("mu", "0.1")])
    def test_hyper_entry_refused_by_name(self, key, value):
        # an unknown setting, and a value HyperParams refuses, name the
        # config's hyper entry
        where = f"config entry 'hyper.{key}': "
        with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
            ExperimentConfig.from_dict({"hyper": {key: value}})

    @pytest.mark.parametrize("dataset, name", [
        ({"clusters": "2"}, "clusters"), ({"n_per_task": 12.0}, "n_per_task"),
        ({"d": True, "clusters": 1}, "d"), ({"bogus": 1}, "bogus"), ({"seed": 3}, "seed"),
        ({"type": "corpus"}, "path")])
    def test_bad_dataset_entry_refused_by_name(self, dataset, name):
        # a generate_disjoint parameter of another JSON type, an unknown
        # one, the seed, which the run sets, and a corpus with no path are
        # refused when the config loads, before a run writes anything
        values = ExperimentConfig().to_dict()
        values["dataset"] = {"type": "disjoint", **dataset}
        with pytest.raises(ValueError, match=f"^dataset entry {re.escape(repr(name))}"):
            ExperimentConfig.from_dict(values)

    @pytest.mark.parametrize("document", [[], "x", 3, None])
    def test_document_not_an_object_refused_by_name(self, document):
        # json.load of a config file may return any JSON value
        message = f"a config must be a JSON object, got {document!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(document)

    @pytest.mark.parametrize("key", ["bogus", "hyperparams"])
    def test_unknown_entry_refused_by_name(self, key):
        values = ExperimentConfig().to_dict()
        values[key] = 1
        message = f"config entry {key!r}: not a setting of ExperimentConfig"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(values)

    @pytest.mark.parametrize("section, key, value", [
        ("hyper", "beta", 1.0), ("hyper", "rho", 1.0), ("hyper", "admm_tol", 1e-6),
        ("hyper", "admm_max_iter", 2000), ("hyper", "coder_tol", 1e-6),
        ("hyper", "coder_max_iter", 5000), ("hyper", "max_outer", 20),
        ("hyper", "outer_tol", 1e-5), ("hyper", "alpha", 3.0),
        ("hyper", "admission_enabled", True), ("config", "normalize", True),
        ("config", "stl_ridge", 4.0), ("config", "train_fraction", 0.5)])
    def test_retired_key_refused_by_name(self, section, key, value):
        # settings of the replaced solvers and switches, each at the value
        # the code now always behaves as: a config holds exactly the
        # settings of the learner, as a checkpoint does
        # (TestCheckpoint.test_retired_or_unknown_hyper_key_refused)
        values = ExperimentConfig().to_dict()
        (values["hyper"] if section == "hyper" else values)[key] = value
        if section == "hyper":
            message = f"config entry {'hyper.' + key!r}: not a setting of HyperParams"
        else:
            message = f"config entry {key!r}: not a setting of ExperimentConfig"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(values)

    def test_from_dict_leaves_its_document_as_read(self):
        values = ExperimentConfig().to_dict()
        before = json.dumps(values)
        ExperimentConfig.from_dict(values)
        assert json.dumps(values) == before

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_config_loads_or_is_refused_by_name(self, data):
        # one entry of a valid config dropped, of another JSON type, an
        # integer out of range or a key added: the config loads, or a
        # ValueError names the top-level entry changed, never another error
        config = tiny_config(Path("unused"), seeds=(3,), checkpoint_every=2)
        values = json.loads(json.dumps(config.to_dict()))
        top = mutate_document(values, data)[0]
        try:
            ExperimentConfig.from_dict(values)
        except ValueError as exc:
            assert top in str(exc) or repr(top) in str(exc), exc

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_out_of_range_config_refused_by_name(self, data):
        # a value of the right JSON type but outside its range is refused
        # when the config loads, naming its entry: no run starts, so none
        # writes INCOMPLETE or fails part-way
        values = json.loads(json.dumps(tiny_config(Path("unused"), seeds=(3, 4)).to_dict()))
        dataset = values["dataset"]
        mutation = data.draw(st.sampled_from(["seed", "count", "n_per_task", "d", "noise_std",
                                              "p"]), label="mutation")
        if mutation == "seed":
            values["seeds"][data.draw(st.sampled_from([0, 1]))] = data.draw(
                st.integers(max_value=-1), label="seed")
            named = "seeds must be"
        elif mutation == "count":
            name = data.draw(st.sampled_from(["clusters", "tasks_per_cluster", "n_per_task"]),
                             label="count")
            dataset[name] = 0
            named = f"dataset entry {name!r}"
        elif mutation == "n_per_task":
            dataset["n_per_task"] = 1
            named = "dataset entry 'n_per_task'"
        elif mutation == "d":
            dataset["d"] = data.draw(st.integers(max_value=2 * dataset["clusters"] - 1), label="d")
            named = "dataset entry 'd'"
        elif mutation == "noise_std":
            dataset["noise_std"] = data.draw(st.floats(max_value=-1e-300) | st.sampled_from(
                [-1, float("inf"), float("-inf"), float("nan"), 10**400]), label="noise_std")
            named = "dataset entry 'noise_std'"
        else:
            values["hyper"]["p"] = data.draw(st.integers(dataset["d"] + 1, 2**64), label="p")
            named = "config entry 'hyper.p'"
        with pytest.raises(ValueError) as refusal:
            ExperimentConfig.from_dict(values)
        assert named in str(refusal.value)


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

    def test_config_not_an_object_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[]")
        out = tmp_path / "cli_out"
        assert main(["--config", str(cfg_path), "--output", str(out)]) == 1
        assert "error: a config must be a JSON object, got []" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_checkpoint_every_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["--seed", "0", "--output", str(out), "--checkpoint-every", "-5"]) == 1
        assert "checkpoint_every" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_exits_nonzero(self, tmp_path, capsys):
        # a repeated seed would write its files twice and count twice in
        # summary.csv
        out = tmp_path / "cli_out"
        assert main(["--seed", "2", "--seed", "2", "--output", str(out)]) == 1
        assert "seeds are not unique: [2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ('{"seeds": [0, -2]}', "seeds must be a list of integers >= 0, got (0, -2)"),
        ('{"dataset": {"type": "disjoint", "n_per_task": 1}}',
         "dataset entry 'n_per_task': 1, expected at least 2"),
        ('{"dataset": {"type": "disjoint", "noise_std": 1e400}}',
         "dataset entry 'noise_std': inf, expected a finite number >= 0"),
        ('{"hyper": {"p": 50}}', "config entry 'hyper.p': 50, expected at most dataset entry "
                                 "'d' = 40"),
        ('{"dataset": {"type": "disjoint", "clusters": 0}}',
         "dataset entry 'clusters': 0, expected at least 1"),
        ('{"dataset": {"type": "disjoint", "clusters": 8}}',
         "dataset entry 'clusters': 8, but only 7 clusters get a block of the 20 dimensions "
         "from index d // 2 on, 3 each"),
        ('{"hyper": {"alpha": 3.0}}', "config entry 'hyper.alpha': not a setting of HyperParams"),
        ('{"normalize": true}', "config entry 'normalize': not a setting of ExperimentConfig"),
        ("{not json", "{path}: not a JSON document: Expecting property name enclosed in "
                      "double quotes: line 1 column 2 (char 1)"),
        ('{"dataset": {"type": "corpus", "path": "{manifest}"}}',
         "{manifest}: manifest entry 'tasks': [], expected at least one task")])
    def test_refused_config_writes_nothing(self, tmp_path, capsys, text, named):
        # refused when the config loads, naming the entry or the file,
        # before the output directory gets INCOMPLETE or any report; the
        # manifest's header is read then, its task files only by the run
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"name": "empty", "problem_kind": "regression", "d": 40,
                                        "tasks": []}))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text.replace("{manifest}", str(manifest)))
        out = tmp_path / "cli_out"
        assert main(["--config", str(cfg_path), "--output", str(out)]) == 1
        assert (f"error: {named.format(path=cfg_path, manifest=manifest)}\n"
                == capsys.readouterr().err)
        assert not out.exists()

    def test_p_above_corpus_d_writes_nothing(self, tmp_path, capsys):
        # a corpus's d is its manifest's, read when the config loads
        save_corpus(generate_disjoint(seed=0, clusters=2, tasks_per_cluster=3, d=12),
                    tmp_path / "corpus")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": {"type": "corpus",
                                                    "path": str(tmp_path / "corpus")},
                                        "hyper": {"p": 20}}))
        out = tmp_path / "cli_out"
        assert main(["--config", str(cfg_path), "--output", str(out)]) == 1
        manifest = tmp_path / "corpus" / "manifest.json"
        assert capsys.readouterr().err == (f"error: config entry 'hyper.p': 20, expected at "
                                           f"most {manifest}: manifest entry 'd' = 12\n")
        assert not out.exists()

    @pytest.mark.parametrize("fault, named", [
        ("repeated_id", "{manifest}: task ids are not unique: ['c0_t0']"),
        ("d_below_one", "{manifest}: manifest entry 'd': -3, expected at least 1"),
        ("unsafe_id", "{manifest}: task id 'a,b': ids name files and fill CSV fields, so one "
                      "may not be empty, '.' or '..', or hold a comma, quote, slash, "
                      "backslash, CR or LF")])
    def test_manifest_fault_refused_at_config_load(self, tmp_path, capsys, fault, named):
        # a corpus whose second entry repeats the first's id or holds a
        # comma, or whose d is below 1, is refused when the config loads,
        # from the manifest alone, before the output directory gets
        # INCOMPLETE; the config's hyper.p is not blamed for the manifest's d
        save_corpus(generate_disjoint(seed=0, clusters=2, tasks_per_cluster=3, d=12),
                    tmp_path / "corpus")
        manifest = tmp_path / "corpus" / "manifest.json"
        document = json.loads(manifest.read_text())
        if fault == "repeated_id":
            document["tasks"][1]["id"] = document["tasks"][0]["id"]
        elif fault == "unsafe_id":
            document["tasks"][1]["id"] = "a,b"
        else:
            document["d"] = -3
        manifest.write_text(json.dumps(document))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"dataset": {"type": "corpus",
                                                    "path": str(tmp_path / "corpus")},
                                        "hyper": {"p": 4}}))
        with pytest.raises(ValueError, match=f"^{re.escape(named.format(manifest=manifest))}$"):
            ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
        out = tmp_path / "cli_out"
        assert main(["--config", str(cfg_path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named.format(manifest=manifest)}\n"
        assert not out.exists()

    def test_negative_seed_flag_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["--seed", "0", "--seed", "-2", "--output", str(out)]) == 1
        assert "seeds must be a list of integers >= 0, got (0, -2)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_each_task_is_scored_once(self, tmp_path, monkeypatch):
        # AUC and accuracy read one set of scores per task
        calls = Counter()
        predict = experiment.predict

        def counted(state, task_id, X):
            calls[task_id] += 1
            return predict(state, task_id, X)

        monkeypatch.setattr(experiment, "predict", counted)
        config = ExperimentConfig(
            dataset={"type": "corpus", "path": str(make_classification_corpus(tmp_path))},
            seeds=(0,), hyper=HyperParams(p=4, ridge=0.5), with_stl=False,
            output_dir=str(tmp_path / "out"))
        experiment.run_seed(config, 0)
        # once by the ablation and once by the engine
        assert calls == {f"cls{i}": 2 for i in range(4)}


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
            for tid in state.mlib:
                code = state.per_task[tid].code
                if tid in snapshots:
                    np.testing.assert_array_equal(snapshots[tid], code)
                else:
                    snapshots[tid] = code.copy()
        assert len(snapshots) == len(state.mlib)


class TestResidency:
    def test_one_learner_resident_at_every_arrival(self, monkeypatch):
        # the default seed streams the ablation and the engine; at each
        # arrival the other learner's feature library must already be freed
        latest = {}          # learner's hyper -> its latest FeatureLibrary, weakly
        overlaps = []
        learn_task = experiment.learn_task

        def tracked(state, task):
            overlaps.extend((state.hyper.lambda2, task.task_id) for hyper, library in latest.items()
                            if hyper != state.hyper and library() is not None)
            new_state, outcome = learn_task(state, task)
            latest[state.hyper] = weakref.ref(new_state.flib)
            return new_state, outcome

        monkeypatch.setattr(experiment, "learn_task", tracked)
        result = experiment.run_seed(ExperimentConfig(), 0)
        assert len(latest) == 2 and result.state.hyper == ExperimentConfig().hyper
        assert overlaps == []

    def test_finished_seed_is_released_before_the_next_starts(self, tmp_path, monkeypatch):
        # the summary keeps each seed's reports and representative count,
        # not its learner
        states, alive = [], []
        run_seed = experiment.run_seed

        def tracked(config, seed):
            alive.append([ref() is not None for ref in states])
            result = run_seed(config, seed)
            states.append(weakref.ref(result.state))
            return result

        monkeypatch.setattr(experiment, "run_seed", tracked)
        run_experiment(tiny_config(tmp_path, seeds=(0, 1, 2)))
        assert alive == [[], [False], [False, False]]
