"""Linear SVM on topic proportions: hand-traced updates, determinism, worker
processes, theta export."""
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from ginopic import downstream
from ginopic.docgraph import build_all_graphs
from ginopic.downstream import (
    LinearClassifier,
    SvmConfig,
    evaluate_accuracy,
    export_theta,
    train_classifier,
)
from ginopic.errors import ConfigError, ContractError
from ginopic.gin import GinConfig
from ginopic.rng import stream
from ginopic.synthetic import block_embeddings, block_topic_corpus
from ginopic.topicmodel import TrainConfig, train


def clusters(n_per_class, centers, noise, seed):
    gen = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(center + noise * gen.standard_normal((n_per_class, len(center))))
        ys.extend([label] * n_per_class)
    return np.concatenate(xs), np.array(ys)


class TestTrainClassifier:
    def test_separable_clusters_high_accuracy(self):
        centers = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                   np.array([0.0, 0.0, 1.0])]
        x, y = clusters(60, centers, noise=0.05, seed=0)
        x_test, y_test = clusters(30, centers, noise=0.05, seed=1)
        clf = train_classifier(x, y)
        assert evaluate_accuracy(clf, x, y) >= 0.99
        assert evaluate_accuracy(clf, x_test, y_test) >= 0.99

    def test_single_class_degenerates_to_constant(self):
        x = np.random.default_rng(0).random((10, 3))
        clf = train_classifier(x, np.full(10, 7))
        assert clf.classes.tolist() == [7]
        assert np.all(clf.predict(x) == 7)
        assert evaluate_accuracy(clf, x, np.full(10, 7)) == 1.0

    def test_deterministic_given_seed(self):
        x, y = clusters(40, [np.zeros(4), np.ones(4)], noise=0.3, seed=2)
        a = train_classifier(x, y, SvmConfig(seed=5))
        b = train_classifier(x, y, SvmConfig(seed=5))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_seed_changes_the_path(self):
        x, y = clusters(40, [np.zeros(4), np.ones(4)], noise=0.5, seed=2)
        a = train_classifier(x, y, SvmConfig(seed=0, epochs=3))
        b = train_classifier(x, y, SvmConfig(seed=1, epochs=3))
        assert not np.array_equal(a.weights, b.weights)

    def test_random_labels_score_near_chance(self):
        gen = np.random.default_rng(3)
        x = gen.random((400, 5))
        y = gen.integers(0, 4, size=400)
        x_test = gen.random((200, 5))
        y_test = gen.integers(0, 4, size=200)
        clf = train_classifier(x, y)
        acc = evaluate_accuracy(clf, x_test, y_test)
        assert abs(acc - 0.25) < 0.15

    def test_one_step_hand_trace(self):
        # single sample, margin 0 < 1, l2 = 0: w = lr * y * x, b = lr * y
        x = np.array([[0.2, -0.4, 0.6]])
        clf = train_classifier(x, [0], SvmConfig(epochs=1, lr=0.01, l2=0.0))
        assert np.allclose(clf.weights[0], 0.01 * x[0], rtol=1e-15)
        assert clf.biases[0] == pytest.approx(0.01)

    def test_one_epoch_matches_reference_replay(self):
        gen = np.random.default_rng(4)
        x = gen.random((6, 3))
        y_all = np.array([0, 1, 0, 1, 1, 0])
        config = SvmConfig(epochs=1, lr=0.05, l2=1e-3, seed=9)
        clf = train_classifier(x, y_all, config)
        # independent replay of the published update rule
        for ci, c in enumerate([0, 1]):
            y = np.where(y_all == c, 1.0, -1.0)
            w, b = np.zeros(3), 0.0
            eta = config.lr / 1
            order = stream(config.seed, f"svm/class{ci}/epoch1").permutation(6)
            for i in order:
                decay = 1.0 - eta * config.l2
                if y[i] * (w @ x[i] + b) < 1.0:
                    w = decay * w + eta * y[i] * x[i]
                    b += eta * y[i]
                else:
                    w = decay * w
            assert np.array_equal(clf.weights[ci], w)
            assert clf.biases[ci] == b

    def test_learning_rate_decays_per_epoch(self):
        # epoch 2 alone must move the weights less than epoch 1 alone did
        x = np.array([[1.0, 0.0]])
        one = train_classifier(x, [0], SvmConfig(epochs=1, lr=0.1, l2=0.0))
        two = train_classifier(x, [0], SvmConfig(epochs=2, lr=0.1, l2=0.0))
        first_step = np.linalg.norm(one.weights)
        second_step = np.linalg.norm(two.weights - one.weights)
        assert 0 < second_step < first_step

    def test_validation_errors(self):
        with pytest.raises(ContractError):
            train_classifier(np.zeros((3,)), [0, 1, 0])
        with pytest.raises(ContractError):
            train_classifier(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ContractError):
            train_classifier(np.zeros((0, 2)), [])
        with pytest.raises(ConfigError):
            SvmConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            SvmConfig(lr=0.0).validate()
        with pytest.raises(ConfigError):
            SvmConfig(l2=-1.0).validate()


def loop_train_classifier(theta, labels, config):
    """The per-sample SGD loop `train_classifier` replaced, kept as its
    reference.  Returns (weights, biases, share of margin-violating steps)."""
    x = np.asarray(theta, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    classes = np.unique(y_all)
    n, k = x.shape
    weights = np.zeros((classes.size, k), dtype=np.float64)
    biases = np.zeros(classes.size, dtype=np.float64)
    violations = 0
    for ci, c in enumerate(classes):
        y = np.where(y_all == c, 1.0, -1.0)
        w = np.zeros(k, dtype=np.float64)
        b = 0.0
        for epoch in range(1, config.epochs + 1):
            eta = config.lr / epoch
            order = stream(config.seed, f"svm/class{ci}/epoch{epoch}").permutation(n)
            for i in order:
                decay = 1.0 - eta * config.l2
                if y[i] * (w @ x[i] + b) < 1.0:
                    w = decay * w + eta * y[i] * x[i]
                    b += eta * y[i]
                    violations += 1
                else:
                    w = decay * w
        weights[ci] = w
        biases[ci] = b
    return weights, biases, violations / (classes.size * config.epochs * n)


def topic_like(n, k, n_classes, seed, concentration=0.3):
    """Dirichlet rows whose class shifts the mean, like inferred topic proportions."""
    gen = np.random.default_rng(seed)
    y = gen.integers(0, n_classes, size=n)
    alpha = np.full((n_classes, k), concentration)
    alpha[np.arange(n_classes), np.arange(n_classes) % k] += 3.0
    return np.stack([gen.dirichlet(alpha[c]) for c in y]), y


# (n, K, classes, l2): window boundaries, ddot's blocked kernel at K = 50,
# decay exactly 1.0 at l2 = 0.  At lr 0.5 each case violates on 5-65% of steps.
SVM_CASES = {
    "one_class": (10, 3, 1, 1e-4),
    "two_class_k6": (150, 6, 2, 1e-4),
    "twenty_class": (230, 6, 20, 1e-4),
    "k1": (90, 1, 3, 1e-4),
    "k50": (70, 50, 4, 1e-3),
    "n_below_window": (5, 4, 2, 1e-4),
    "n_multiple_of_window": (2 * downstream._WINDOW, 6, 3, 1e-4),
    "l2_zero": (100, 6, 3, 0.0),
}


def force_workers(monkeypatch, workers):
    """Make `train_classifier` see `workers` usable CPUs, so that it fits in
    that many worker processes (at most one per class) even on a 1-CPU host."""
    cpu = downstream._usable_cpus()[0]
    monkeypatch.setattr(downstream, "_usable_cpus", lambda: [cpu] * workers)


class TestMatchesLoopBitwise:
    @pytest.fixture(autouse=True, params=[1, 2], ids=["workers1", "workers2"])
    def workers(self, request, monkeypatch):
        force_workers(monkeypatch, request.param)

    @pytest.mark.parametrize("case", sorted(SVM_CASES))
    def test_weights_and_biases_bytes(self, case):
        n, k, n_classes, l2 = SVM_CASES[case]
        x, y = topic_like(n, k, n_classes, seed=len(case))
        config = SvmConfig(epochs=4, lr=0.5, l2=l2, seed=3)
        weights, biases, _ = loop_train_classifier(x, y, config)
        clf = train_classifier(x, y, config)
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.biases.tobytes() == biases.tobytes()

    def test_low_violation_share_spans_windows(self):
        x, y = topic_like(400, 6, 3, seed=0, concentration=0.05)
        config = SvmConfig(epochs=6, lr=0.5, seed=1)
        weights, biases, share = loop_train_classifier(x, y, config)
        assert share < 0.3
        clf = train_classifier(x, y, config)
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.biases.tobytes() == biases.tobytes()

    def test_random_labels_high_violation_share(self):
        gen = np.random.default_rng(11)
        x = gen.random((300, 6))
        y = gen.permutation(np.arange(300) % 2)
        config = SvmConfig(epochs=3, seed=2)
        weights, biases, share = loop_train_classifier(x, y, config)
        assert share > 0.9
        clf = train_classifier(x, y, config)
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.biases.tobytes() == biases.tobytes()


def affinity_fit(x, y, ci, config):
    """Stands in for `_fit_class` and returns the worker's CPU ids as weights."""
    return np.array(sorted(os.sched_getaffinity(0)), dtype=np.float64), 0.0


class TestWorkerProcesses:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity call")
    def test_each_worker_runs_on_one_cpu(self, monkeypatch):
        force_workers(monkeypatch, 2)
        cpu = downstream._usable_cpus()[0]
        monkeypatch.setattr(downstream, "_fit_class", affinity_fit)
        x, y = topic_like(40, 6, 6, seed=12)
        clf = train_classifier(x, y, SvmConfig(epochs=1))
        assert clf.weights.tolist() == [[cpu]] * 6

    def test_worker_counts_agree(self, monkeypatch):
        x, y = topic_like(40, 6, 6, seed=12)
        config = SvmConfig(epochs=5, lr=0.5, seed=4)
        fits = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            fits.append(train_classifier(x, y, config))
        assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
        assert fits[0].biases.tobytes() == fits[1].biases.tobytes()

    def test_no_process_outlives_a_fit(self, monkeypatch):
        force_workers(monkeypatch, 2)
        x, y = topic_like(40, 6, 6, seed=12)
        train_classifier(x, y, SvmConfig(epochs=2))
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # fork hands the patched module to the workers
        def fail(*args):
            raise ContractError("epoch failed")

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(downstream, "_sgd_epoch", fail)
        x, y = topic_like(40, 6, 6, seed=12)
        with pytest.raises(ContractError, match="epoch failed"):
            train_classifier(x, y, SvmConfig(epochs=2))
        assert multiprocessing.active_children() == []

    def test_fork_with_live_blas_threads(self):
        # OpenBLAS starts its threads on the first large product; the fit
        # then forks with them live, as it does after training in process
        probe = (
            "import multiprocessing, sys\n"
            "import numpy as np\n"
            "from ginopic import downstream\n"
            "a = np.random.default_rng(0).random((512, 512))\n"
            "a @ a\n"
            "cpu = downstream._usable_cpus()[0]\n"
            "downstream._usable_cpus = lambda: [cpu, cpu]\n"
            "gen = np.random.default_rng(1)\n"
            "x, y = gen.random((60, 6)), np.arange(60) % 6\n"
            "clf = downstream.train_classifier(x, y, downstream.SvmConfig(epochs=5))\n"
            "assert multiprocessing.active_children() == []\n"
            "print(clf.weights.tobytes().hex(), clf.biases.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(downstream.__file__)))
        out = []
        for threads in ("2", "1"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            out.append(done.stdout)
        assert out[0] == out[1]


class TestClassifierBehavior:
    def test_predict_is_argmax_of_decision(self):
        clf = LinearClassifier(
            classes=np.array([3, 8], dtype=np.int64),
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
        )
        theta = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert clf.predict(theta).tolist() == [3, 8]

    def test_tie_goes_to_first_class(self):
        clf = LinearClassifier(
            classes=np.array([1, 2], dtype=np.int64),
            weights=np.ones((2, 2)),
            biases=np.zeros(2),
        )
        assert clf.predict(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_feature_mismatch(self):
        clf = LinearClassifier(
            classes=np.array([0], dtype=np.int64),
            weights=np.ones((1, 3)),
            biases=np.zeros(1),
        )
        with pytest.raises(ContractError):
            clf.decision(np.ones((2, 4)))

    def test_evaluate_accuracy_value(self):
        clf = LinearClassifier(
            classes=np.array([0, 1], dtype=np.int64),
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
        )
        theta = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert evaluate_accuracy(clf, theta, [0, 1, 1, 1]) == 0.75

    def test_evaluate_empty_rejected(self):
        clf = LinearClassifier(
            classes=np.array([0], dtype=np.int64),
            weights=np.ones((1, 2)), biases=np.zeros(1),
        )
        with pytest.raises(ContractError):
            evaluate_accuracy(clf, np.zeros((0, 2)), [])


class TestExportTheta:
    def test_format_and_alignment(self, tmp_path):
        corpus = block_topic_corpus(seed=0, n_docs=40, n_topics=2,
                                    words_per_topic=5, doc_len=(8, 15))
        emb = block_embeddings(corpus.vocabulary, 2, 5, within=0.9)
        graphs = build_all_graphs(corpus, emb, delta=0.5)
        config = TrainConfig(topics=2, gin=GinConfig(tau=4, hidden=4, tau_out=4),
                             encoder_hidden=8, epochs=1, batch_size=16, seed=0)
        model = train(corpus, graphs, config).model
        path = tmp_path / "theta.tsv"
        export_theta(model, corpus, graphs, path)
        lines = path.read_text().strip().split("\n")
        docs = corpus.split.all_documents()
        assert len(lines) == len(docs)
        for i, line in enumerate(lines):
            parts = line.split("\t")
            assert int(parts[0]) == i
            assert int(parts[1]) == docs[i].label
            row = [float(v) for v in parts[2:]]
            assert len(row) == 2
            assert sum(row) == pytest.approx(1.0, abs=1e-5)
