import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong.datasets import (TaskCorpus, generate_disjoint, load_corpus,
                               save_corpus, split_corpus, standardize_targets)
from lifelong.tasks import TaskData, fit_single_task

from test_engine import mutate_document


class TestGenerateDisjoint:
    def test_default_shape(self):
        corpus = generate_disjoint(seed=0)
        assert len(corpus) == 30
        assert corpus.d == 40
        assert all(t.n_samples == 50 for t in corpus.tasks)
        assert corpus.problem_kind == "regression"
        assert corpus.ground_truth.true_weights.shape == (40, 30)

    def test_deterministic_per_seed(self):
        a = generate_disjoint(seed=5)
        b = generate_disjoint(seed=5)
        np.testing.assert_array_equal(a.tasks[3].features, b.tasks[3].features)
        np.testing.assert_array_equal(a.tasks[3].targets, b.tasks[3].targets)
        c = generate_disjoint(seed=6)
        assert not np.array_equal(a.ground_truth.true_weights,
                                  c.ground_truth.true_weights)

    def test_noiseless_task_is_recoverable(self):
        corpus = generate_disjoint(seed=1, clusters=1, tasks_per_cluster=1,
                                   d=20, n_per_task=60, noise_std=0.0)
        task = corpus.tasks[0]
        w = fit_single_task(task, ridge=0.0).w
        assert np.abs(w - corpus.ground_truth.true_weights[:, 0]).max() <= 1e-6

    def test_cluster_supports_are_disjoint(self):
        corpus = generate_disjoint(seed=2)
        weights = corpus.ground_truth.true_weights
        labels = corpus.ground_truth.cluster_labels
        half = 20
        for c in range(3):
            cols = weights[half:, labels == c]
            support = np.abs(cols).sum(axis=1) > 0
            for other in range(3):
                if other == c:
                    continue
                cols_o = weights[half:, labels == other]
                support_o = np.abs(cols_o).sum(axis=1) > 0
                assert not np.any(support & support_o)

    def test_same_cluster_pairs_more_similar(self):
        gaps = []
        for seed in range(10):
            corpus = generate_disjoint(seed=seed)
            W = corpus.ground_truth.true_weights
            labels = corpus.ground_truth.cluster_labels
            unit = W / np.linalg.norm(W, axis=0)
            cos = np.abs(unit.T @ unit)
            same = labels[:, None] == labels[None, :]
            off = ~np.eye(len(labels), dtype=bool)
            gaps.append(cos[same & off].mean() - cos[~same].mean())
        assert np.mean(gaps) > 0.2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_disjoint(seed=0, clusters=4, d=6)
        with pytest.raises(ValueError):
            generate_disjoint(seed=0, tasks_per_cluster=0)

    @pytest.mark.parametrize("params, message", [
        ({"clusters": 0}, "'clusters': 0, expected at least 1"),
        ({"tasks_per_cluster": 0}, "'tasks_per_cluster': 0, expected at least 1"),
        ({"n_per_task": 1}, "'n_per_task': 1, expected at least 2"),
        ({"clusters": 4, "d": 6}, "'d': 6, expected at least 8"),
        ({"noise_std": -0.1}, "'noise_std': -0.1, expected a finite number >= 0"),
        ({"noise_std": float("inf")}, "'noise_std': inf, expected a finite number >= 0"),
        ({"noise_std": float("nan")}, "'noise_std': nan, expected a finite number >= 0"),
        ({"d": 8.0}, "'d': 8.0 is not an integer"),
        ({"noise_std": "0.1"}, "'noise_std': '0.1' is not a number"),
        ({"size": 3}, "'size': a disjoint dataset takes clusters, tasks_per_cluster, d, "
                      "n_per_task, noise_std"),
        ({"clusters": 8}, "'clusters': 8, but only 7 clusters get a block of the 20 dimensions "
                          "from index d // 2 on, 3 each"),
        ({"clusters": 9}, "'clusters': 9, but only 7 clusters get a block of the 20 dimensions "
                          "from index d // 2 on, 3 each"),
        ({"clusters": 12}, "'clusters': 12, but only 10 clusters get a block of the 20 "
                           "dimensions from index d // 2 on, 2 each"),
        ({"clusters": 19}, "'clusters': 19, but only 10 clusters get a block of the 20 "
                           "dimensions from index d // 2 on, 2 each"),
        ({"clusters": 5, "d": 12}, "'clusters': 5, but only 3 clusters get a block of the 6 "
                                   "dimensions from index d // 2 on, 2 each")])
    def test_parameter_refused_by_name(self, params, message):
        # the one check a config's dataset entries also pass; every task
        # is split in half, so it needs 2 samples
        with pytest.raises(ValueError, match=f"^{re.escape('dataset entry ' + message)}$"):
            generate_disjoint(seed=0, **params)

    def test_every_accepted_layout_tiles_its_blocks(self):
        # one task per cluster: its weight is nonzero, above d // 2, on
        # its cluster's block alone, and the blocks tile those dimensions;
        # only the last may be empty (d = 8 with 3 clusters, d = 40 with 6)
        for d in range(2, 41):
            for clusters in range(1, d // 2 + 1):
                try:
                    corpus = generate_disjoint(seed=0, clusters=clusters, tasks_per_cluster=1,
                                               d=d, n_per_task=2)
                except ValueError as exc:
                    assert str(exc).startswith("dataset entry 'clusters'"), exc
                    continue
                upper = corpus.ground_truth.true_weights[d // 2:]
                blocks = [np.flatnonzero(upper[:, c]) for c in range(clusters)]
                assert all(b.size for b in blocks[:-1]), (d, clusters)
                np.testing.assert_array_equal(np.concatenate(blocks), np.arange(d - d // 2))


class TestSplit:
    def test_half_split_sizes(self):
        corpus = generate_disjoint(seed=0)
        train, test = split_corpus(corpus, 0.5, seed=0)
        assert all(t.n_samples == 25 for t in train.tasks)
        assert all(t.n_samples == 25 for t in test.tasks)

    def test_deterministic(self):
        corpus = generate_disjoint(seed=0)
        a_train, _ = split_corpus(corpus, 0.5, seed=3)
        b_train, _ = split_corpus(corpus, 0.5, seed=3)
        np.testing.assert_array_equal(a_train.tasks[0].features, b_train.tasks[0].features)

    def test_partition_property(self):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2,
                                   d=6, n_per_task=9)
        train, test = split_corpus(corpus, 0.4, seed=1)
        for orig, tr, te in zip(corpus.tasks, train.tasks, test.tasks):
            combined = np.concatenate([tr.targets, te.targets])
            assert sorted(combined.tolist()) == sorted(orig.targets.tolist())
            assert tr.n_samples + te.n_samples == orig.n_samples

    def test_bad_fraction_rejected(self):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=1, d=6)
        for frac in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                split_corpus(corpus, frac, seed=0)


class TestStandardize:
    def test_train_stats_applied_to_both(self):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=8)
        train, test = split_corpus(corpus, 0.5, seed=0)
        tr, te = standardize_targets(train, test)
        for t_raw, t_std in zip(train.tasks, tr.tasks):
            m, s = t_raw.targets.mean(), t_raw.targets.std()
            assert abs(t_std.targets.mean()) < 1e-10
            assert t_std.targets.std() == pytest.approx(1.0)
            np.testing.assert_allclose(t_std.targets, (t_raw.targets - m) / s)
        for t_raw, t_std, t_train in zip(test.tasks, te.tasks, train.tasks):
            m, s = t_train.targets.mean(), t_train.targets.std()
            np.testing.assert_allclose(t_std.targets, (t_raw.targets - m) / s)

    def test_classification_rejected(self):
        X = np.ones((2, 4))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        task = TaskData(features=X, targets=y, loss_kind="logistic", task_id="a")
        corpus = TaskCorpus(tasks=(task,), problem_kind="classification")
        with pytest.raises(ValueError):
            standardize_targets(corpus, corpus)

    def test_task_count_mismatch_rejected(self):
        # zip would silently standardise only the shorter split's tasks
        corpus = generate_disjoint(seed=0, clusters=2, tasks_per_cluster=2, d=8)
        train, test = split_corpus(corpus, 0.5, seed=0)
        short = dataclasses.replace(test, tasks=test.tasks[:3])
        with pytest.raises(ValueError, match="shorter"):
            standardize_targets(train, short)
        with pytest.raises(ValueError, match="longer"):
            standardize_targets(dataclasses.replace(train, tasks=train.tasks[:3]), test)


@pytest.fixture(scope="module")
def saved_manifest(tmp_path_factory):
    """The manifest of a saved two-task corpus."""
    corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
    return save_corpus(corpus, tmp_path_factory.mktemp("corpus"))


class TestCorpusIO:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=2, tasks_per_cluster=2,
                                   d=7, n_per_task=11)
        save_corpus(corpus, tmp_path / "disjoint")
        loaded = load_corpus(tmp_path / "disjoint")
        assert len(loaded) == len(corpus)
        for orig, back in zip(corpus.tasks, loaded.tasks):
            assert back.task_id == orig.task_id
            np.testing.assert_array_equal(back.features, orig.features)
            np.testing.assert_array_equal(back.targets, orig.targets)

    def test_missing_file_named(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=6)
        save_corpus(corpus, tmp_path)
        (tmp_path / "c0_t1.csv").unlink()
        with pytest.raises(FileNotFoundError, match="c0_t1.csv"):
            load_corpus(tmp_path)

    def test_malformed_line_reports_location(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=1,
                                   d=4, n_per_task=5)
        save_corpus(corpus, tmp_path)
        task_file = tmp_path / "c0_t0.csv"
        lines = task_file.read_text().splitlines()
        lines[2] = "not,numeric,at,all,nope"
        task_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            load_corpus(tmp_path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2,
                                   d=4, n_per_task=5)
        save_corpus(corpus, tmp_path)
        other = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=1,
                                  d=6, n_per_task=5)
        # point one manifest entry at a task file with a different width
        save_corpus(other, tmp_path / "other")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tasks"][1]["file"] = "other/c0_t0.csv"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="header"):
            load_corpus(tmp_path)

    def test_duplicate_task_ids_rejected(self, tmp_path):
        # two manifest entries sharing an id would merge into one task in
        # the engine and collapse in the held-out lookup
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=3,
                                   d=4, n_per_task=5)
        save_corpus(corpus, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tasks"][2]["id"] = manifest["tasks"][0]["id"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"not unique: \['c0_t0'\]"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("task_id", ["c0,t0", 'c0"t0', "c0\rt0", "c0\nt0", "c0/t0",
                                         "c0\\t0", "", ".", "..", "../escaped"])
    def test_unsafe_task_id_refused(self, tmp_path, task_id):
        # a comma, quote, CR or LF would widen or split a row of the CSV
        # reports, and a path a task file's name
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
        save_corpus(corpus, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tasks"][1]["id"] = task_id
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"task id {task_id!r}")):
            load_corpus(tmp_path)

    def test_id_escaping_the_corpus_directory_refused(self, tmp_path):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
        tasks = (dataclasses.replace(corpus.tasks[0], task_id="../escaped"),) + corpus.tasks[1:]
        with pytest.raises(ValueError, match=re.escape("'../escaped'")):
            save_corpus(TaskCorpus(tasks=tasks, problem_kind="regression"), tmp_path / "corpus")
        assert not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_file_outside_the_corpus_directory_refused(self, tmp_path, where):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
        save_corpus(corpus, tmp_path / "corpus")
        outside = tmp_path / "outside.csv"
        (tmp_path / "corpus" / "c0_t1.csv").rename(outside)
        manifest_path = tmp_path / "corpus" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        name = "../outside.csv" if where == "parent" else str(outside)
        manifest["tasks"][1]["file"] = name
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"task 'c0_t1': file {name!r} lies "
                                                       f"outside the manifest's directory")):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("key", ["id", "file"])
    def test_entry_without_id_or_file_refused(self, tmp_path, key):
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
        path = save_corpus(corpus, tmp_path)
        manifest = json.loads(path.read_text())
        del manifest["tasks"][1][key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{path}: manifest entry 'tasks[1].{key}' "
                                                       f"is missing")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("key, value", [("id", 7), ("file", 5)])
    def test_task_entry_of_another_type_refused_by_name(self, tmp_path, key, value):
        # an id is not read through str(), nor a number joined to a path
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=4, n_per_task=5)
        path = save_corpus(corpus, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["tasks"][1][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{path}: manifest entry 'tasks[1].{key}': "
                                                       f"{value!r} is not a string")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("key, value", [("d", 6.7), ("d", "6"), ("d", True), ("tasks", 5),
                                            ("problem_kind", 3), ("name", 7)])
    def test_malformed_manifest_entry_refused_by_name(self, tmp_path, key, value):
        # none may be truncated, coerced or read as another kind of corpus
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=6, n_per_task=5)
        path = save_corpus(corpus, tmp_path)
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{path}: manifest entry {key!r}")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not a JSON document: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
        ("[]", "manifest entry 'name' is missing")])
    def test_manifest_not_a_json_object_refused_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("d", [0, -1, 5])
    def test_header_disagreeing_with_d_names_the_manifest(self, tmp_path, d):
        # a d that the task files' headers do not hold is refused naming
        # the manifest, the task, its file and the entry
        corpus = generate_disjoint(seed=0, clusters=1, tasks_per_cluster=2, d=6, n_per_task=5)
        path = save_corpus(corpus, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["d"] = d
        path.write_text(json.dumps(manifest))
        message = (f"{path}: task 'c0_t0': {tmp_path / 'c0_t0.csv'}, line 1: bad header "
                   f"(expected manifest entry 'd' = {d} features plus target)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_manifest_loads_or_is_refused_by_name(self, saved_manifest, data):
        # one entry of a valid manifest dropped, of another JSON type, an
        # integer out of range (a huge d included) or a key added: the
        # corpus loads, or a ValueError names the manifest and the entry
        # changed, never another error
        manifest = json.loads(saved_manifest.read_text())
        top = mutate_document(manifest, data)[0]
        path = saved_manifest.with_name("mutated.json")
        path.write_text(json.dumps(manifest))
        try:
            load_corpus(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            assert re.search(f"manifest entry '{re.escape(top)}['.[]", str(exc)), exc

    def test_classification_labels_validated(self, tmp_path):
        X = np.ones((2, 4))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        task = TaskData(features=X, targets=y, loss_kind="logistic", task_id="a")
        corpus = TaskCorpus(tasks=(task,), problem_kind="classification")
        save_corpus(corpus, tmp_path)
        task_file = tmp_path / "a.csv"
        text = task_file.read_text().replace("-1.0", "0.0")
        task_file.write_text(text)
        with pytest.raises(ValueError, match=r"\+/-1"):
            load_corpus(tmp_path)


class TestFloatSerialisation:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300)
    def test_repr_round_trip_is_bit_exact(self, x):
        # the corpus writer and all CSV reports rely on shortest-repr floats
        assert float(repr(float(x))) == x
