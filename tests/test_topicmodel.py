"""Dirichlet prior moments, ELBO pieces, training determinism, checkpoints."""
import math

import numpy as np
import pytest

import ginopic.tensor as T
from ginopic import topicmodel
from ginopic.corpus import Vocabulary
from ginopic.docgraph import build_all_graphs
from ginopic.errors import ConfigError, ContractError, DataError, NumericsError
from ginopic.gin import GinConfig
from ginopic.optim import Adam
from ginopic.rng import stream
from ginopic.synthetic import block_embeddings, block_topic_corpus
from ginopic.topicmodel import (
    PriorParams,
    TopicModel,
    TrainConfig,
    combine_inputs,
    elbo_loss,
    infer_theta,
    laplace_prior,
    load_checkpoint,
    reparameterize,
    save_checkpoint,
    save_history,
    top_words,
    train,
)

from conftest import load_under_limit, rewrite_header

F64 = np.float64


def small_config(**overrides):
    base = dict(
        topics=2,
        gin=GinConfig(tau=8, hidden=8, tau_out=8, layers=2),
        encoder_hidden=16,
        encoder_layers=1,
        dropout=0.2,
        lr=2e-3,
        batch_size=16,
        epochs=2,
        seed=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_data():
    corpus = block_topic_corpus(seed=0, n_docs=60, n_topics=2,
                                words_per_topic=5, doc_len=(10, 20))
    emb = block_embeddings(corpus.vocabulary, 2, 5, within=0.9)
    graphs = build_all_graphs(corpus, emb, delta=0.5)
    return corpus, graphs


class TestLaplacePrior:
    def test_two_uniform_topics(self):
        prior = laplace_prior([1.0, 1.0])
        assert np.array_equal(prior.mu, [0.0, 0.0])
        assert prior.sigma.tolist() == [0.5, 0.5]

    def test_four_alpha_two(self):
        prior = laplace_prior([2.0, 2.0, 2.0, 2.0])
        assert np.array_equal(prior.mu, np.zeros(4))
        assert np.allclose(prior.sigma, 0.375)

    def test_symmetric_alpha_gives_zero_mean(self):
        prior = laplace_prior(np.full(7, 0.31))
        assert np.allclose(prior.mu, 0.0)

    def test_asymmetric_alpha_hand_value(self):
        prior = laplace_prior([1.0, 2.0])
        # mu_k = ln a_k - mean(ln a); K=2 kills the 1/alpha_k term in sigma
        assert prior.mu[0] == pytest.approx(-0.5 * math.log(2.0))
        assert prior.mu[1] == pytest.approx(0.5 * math.log(2.0))
        assert np.allclose(prior.sigma, 0.25 * (1.0 + 0.5))

    def test_mu_sums_to_zero(self):
        prior = laplace_prior([0.3, 1.7, 4.0, 0.05])
        assert prior.mu.sum() == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            laplace_prior([1.0])
        with pytest.raises(ConfigError):
            laplace_prior([1.0, 0.0])
        with pytest.raises(ConfigError):
            laplace_prior([[1.0, 1.0]])


class TestElboLoss:
    def _kl_only(self, mu_q, sigma_q, prior):
        b, k = np.asarray(mu_q).shape
        x = T.Tensor(np.zeros((b, 3)), dtype=F64)
        xh = T.Tensor(np.full((b, 3), 1.0 / 3.0), dtype=F64)
        rl, kl, total = elbo_loss(
            x, xh,
            T.Tensor(np.asarray(mu_q, dtype=F64)),
            T.Tensor(np.asarray(sigma_q, dtype=F64)),
            prior,
        )
        assert rl.item() == 0.0
        assert total.item() == kl.item()
        return kl.item()

    def test_kl_hand_value(self):
        # q = N(0, 1), p = N(0, e): KL = 0.5 * (1/e - 1 + 1) = 0.5/e
        prior = PriorParams(mu=[0.0], sigma=[math.e])
        kl = self._kl_only([[0.0]], [[1.0]], prior)
        assert kl == pytest.approx(0.18393972058572117, abs=1e-12)

    def test_kl_zero_when_posterior_equals_prior(self):
        prior = laplace_prior([0.5, 0.5, 0.5])
        mu = np.tile(prior.mu, (4, 1))
        sigma = np.tile(prior.sigma, (4, 1))
        assert self._kl_only(mu, sigma, prior) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_otherwise(self):
        prior = laplace_prior([1.0, 1.0])
        assert self._kl_only([[0.3, -0.7]], [[0.2, 1.9]], prior) > 0.0

    def test_kl_matches_monte_carlo(self):
        prior = PriorParams(mu=[0.4, -0.2], sigma=[0.8, 1.5])
        mu_q = np.array([[0.1, 0.6]])
        sigma_q = np.array([[0.5, 0.9]])
        closed = self._kl_only(mu_q, sigma_q, prior)
        gen = np.random.default_rng(0)
        z = mu_q + np.sqrt(sigma_q) * gen.standard_normal((400_000, 2))
        log_q = -0.5 * (((z - mu_q) ** 2) / sigma_q + np.log(2 * np.pi * sigma_q))
        log_p = -0.5 * (((z - prior.mu) ** 2) / prior.sigma
                        + np.log(2 * np.pi * prior.sigma))
        mc = float((log_q - log_p).sum(axis=1).mean())
        assert closed == pytest.approx(mc, rel=0.02)

    def test_reconstruction_hand_value(self):
        # -sum(x * ln(x_hat + 1e-10)) averaged over the batch
        x = T.Tensor(np.array([[2.0, 0.0]]), dtype=F64)
        xh = T.Tensor(np.array([[0.5, 0.5]]), dtype=F64)
        mu = T.Tensor(np.zeros((1, 2)), dtype=F64)
        sigma = T.Tensor(np.ones((1, 2)), dtype=F64)
        rl, _, _ = elbo_loss(x, xh, mu, sigma, laplace_prior([1.0, 1.0]))
        assert rl.item() == pytest.approx(-2.0 * math.log(0.5 + 1e-10), rel=1e-12)

    def test_batch_mean_semantics(self):
        # duplicating a document must leave the per-document mean unchanged
        prior = laplace_prior([1.0, 1.0])
        x1 = np.array([[1.0, 2.0, 0.0]])
        xh1 = np.array([[0.2, 0.5, 0.3]])
        mu1, s1 = np.array([[0.3, -0.1]]), np.array([[0.7, 1.2]])

        def run(reps):
            rl, kl, _ = elbo_loss(
                T.Tensor(np.repeat(x1, reps, 0), dtype=F64),
                T.Tensor(np.repeat(xh1, reps, 0), dtype=F64),
                T.Tensor(np.repeat(mu1, reps, 0), dtype=F64),
                T.Tensor(np.repeat(s1, reps, 0), dtype=F64),
                prior,
            )
            return rl.item(), kl.item()

        assert run(1) == pytest.approx(run(3))

    def test_shape_validation(self):
        prior = laplace_prior([1.0, 1.0])
        good = T.Tensor(np.ones((2, 3)), dtype=F64)
        mu = T.Tensor(np.zeros((2, 2)), dtype=F64)
        sigma = T.Tensor(np.ones((2, 2)), dtype=F64)
        with pytest.raises(ContractError):
            elbo_loss(good, T.Tensor(np.ones((2, 4)), dtype=F64), mu, sigma, prior)
        with pytest.raises(ContractError):
            elbo_loss(good, good, mu, T.Tensor(np.ones((2, 3)), dtype=F64), prior)
        with pytest.raises(ContractError):
            elbo_loss(good, good, mu, sigma, laplace_prior([1.0, 1.0, 1.0]))


class TestReparameterize:
    def test_zero_noise_returns_mu(self):
        mu = T.Tensor(np.array([[0.3, -0.7]]), dtype=F64)
        sigma = T.Tensor(np.array([[2.0, 5.0]]), dtype=F64)
        z = reparameterize(mu, sigma, np.zeros((1, 2)))
        assert np.array_equal(z.data, mu.data)

    def test_formula(self):
        mu = T.Tensor(np.array([[1.0, 2.0]]), dtype=F64)
        sigma = T.Tensor(np.array([[4.0, 9.0]]), dtype=F64)
        z = reparameterize(mu, sigma, np.array([[1.0, -1.0]]))
        assert z.data.tolist() == [[3.0, -1.0]]

    def test_shape_mismatch(self):
        mu = T.Tensor(np.zeros((1, 2)), dtype=F64)
        with pytest.raises(ContractError):
            reparameterize(mu, T.Tensor(np.ones((2, 2)), dtype=F64), np.zeros((1, 2)))
        with pytest.raises(ContractError):
            reparameterize(mu, T.Tensor(np.ones((1, 2)), dtype=F64), np.zeros((2, 2)))


class TestCombineInputs:
    def test_projection_then_concat(self):
        h_g = T.Tensor(np.array([[1.0, 0.0]]), dtype=F64)
        w = T.Tensor(np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]), dtype=F64)
        x_tfidf = T.Tensor(np.array([[5.0, 6.0, 7.0]]), dtype=F64)
        x = combine_inputs(h_g, x_tfidf, w)
        assert x.shape == (1, 6)
        assert x.data.tolist() == [[2.0, 0.0, 1.0, 5.0, 6.0, 7.0]]


class TestTrainConfig:
    def test_round_trip(self):
        c = small_config(alpha=0.4)
        c.delta = 0.3
        assert TrainConfig.from_dict(c.to_dict()) == c

    def test_alpha_vector_default_is_one_over_k(self):
        assert small_config(topics=4).alpha_vector().tolist() == [0.25] * 4
        assert small_config(alpha=2.0).alpha_vector().tolist() == [2.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(topics=1).validate()
        with pytest.raises(ConfigError):
            small_config(dropout=1.0).validate()
        with pytest.raises(ConfigError):
            small_config(alpha=-1.0).validate()
        with pytest.raises(ConfigError):
            small_config(lr=0.0).validate()


class TestTopicModel:
    def test_decode_rows_on_simplex(self):
        model = TopicModel(vocab_size=10, config=small_config())
        theta = T.Tensor(np.random.default_rng(0).dirichlet(np.ones(2), size=4)
                         .astype(np.float32))
        x_hat = model.decode(theta)
        assert x_hat.shape == (4, 10)
        assert np.all(x_hat.data > 0)
        assert np.allclose(x_hat.data.sum(axis=1), 1.0, atol=1e-5)

    def test_parameter_names_unique_and_stable(self):
        model = TopicModel(vocab_size=10, config=small_config())
        names = [n for n, _ in model.parameters()]
        assert len(set(names)) == len(names)
        assert names[0] == "gin.node_table"
        assert "graph_proj" in names and "beta" in names
        assert names.index("graph_proj") < names.index("beta")

    def test_same_seed_same_init(self):
        a = TopicModel(10, small_config())
        b = TopicModel(10, small_config())
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_encoder_nonfinite_raises(self, tiny_data):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        model.encoder_layers[0].weight.data[:] = np.inf
        with pytest.raises(NumericsError, match="encoder layer 0"):
            model.forward_batch(corpus.split.train[:4], graphs.train_graphs()[:4],
                                training=False)

    def test_training_encode_requires_dropout_rng(self, tiny_data):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        with pytest.raises(ContractError, match="dropout rng"):
            model.forward_batch(corpus.split.train[:2], graphs.train_graphs()[:2],
                                training=True)

    def test_batch_length_mismatch(self, tiny_data):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        with pytest.raises(ContractError):
            model.forward_batch(corpus.split.train[:3], graphs.train_graphs()[:2],
                                training=False)

    def test_eval_forward_is_deterministic(self, tiny_data):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        a = model.forward_batch(corpus.split.train[:4], graphs.train_graphs()[:4],
                                training=False)
        b = model.forward_batch(corpus.split.train[:4], graphs.train_graphs()[:4],
                                training=False)
        assert np.array_equal(a.theta.data, b.theta.data)
        assert np.array_equal(a.total.data, b.total.data)


class TestTrain:
    def test_deterministic_given_config_and_seed(self, tiny_data):
        corpus, graphs = tiny_data
        r1 = train(corpus, graphs, small_config())
        r2 = train(corpus, graphs, small_config())
        for (na, ta), (nb, tb) in zip(r1.model.parameters(), r2.model.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data), na
        for (_, ba), (_, bb) in zip(r1.model.buffers(), r2.model.buffers()):
            assert np.array_equal(ba, bb)
        assert [h.total for h in r1.history] == [h.total for h in r2.history]

    def test_different_seed_different_model(self, tiny_data):
        corpus, graphs = tiny_data
        r1 = train(corpus, graphs, small_config(seed=1))
        r2 = train(corpus, graphs, small_config(seed=2))
        assert not np.array_equal(r1.model.beta.data, r2.model.beta.data)

    def test_history_covers_epochs_and_sets_delta(self, tiny_data):
        corpus, graphs = tiny_data
        config = small_config(epochs=3)
        result = train(corpus, graphs, config)
        assert [h.epoch for h in result.history] == [1, 2, 3]
        assert all(np.isfinite(h.total) for h in result.history)
        assert result.model.config.delta == graphs.delta
        assert result.model.trained_epochs == 3

    def test_train_leaves_the_callers_config_alone(self, tiny_data):
        corpus, graphs = tiny_data
        emb = block_embeddings(corpus.vocabulary, 2, 5, within=0.9)
        config = small_config(epochs=1)
        first = train(corpus, build_all_graphs(corpus, emb, delta=0.3), config)
        second = train(corpus, graphs, config)
        assert graphs.delta == 0.5
        assert (first.model.config.delta, second.model.config.delta) == (0.3, 0.5)
        assert config.delta is None

    def test_loss_decreases_on_easy_corpus(self, tiny_data):
        corpus, graphs = tiny_data
        result = train(corpus, graphs, small_config(epochs=10))
        assert result.history[-1].total < result.history[0].total

    def test_rejects_mismatched_graph_store(self, tiny_data):
        corpus, graphs = tiny_data
        other = block_topic_corpus(seed=9, n_docs=60, n_topics=2,
                                   words_per_topic=5, doc_len=(10, 20))
        with pytest.raises(ContractError, match="different corpus"):
            train(other, graphs, small_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_loss_raises_numerics(self, tiny_data):
        corpus, graphs = tiny_data
        with pytest.raises(NumericsError):
            train(corpus, graphs, small_config(lr=1e14, epochs=3))

    def test_no_subnormal_leaf_gradient(self, tiny_data, monkeypatch):
        # at lr 0.2 encoder units fall below -87, where softplus's unflushed
        # backward fed subnormal values into encoder.0's gradients
        seen = {}
        step = Adam.step

        def checked_step(opt):
            for name, p in opt.params:
                g = p.grad
                seen[name] = seen.get(name, 0) + int(
                    np.count_nonzero((g != 0) & (np.abs(g) < np.finfo(g.dtype).tiny)))
            step(opt)

        monkeypatch.setattr(Adam, "step", checked_step)
        corpus, graphs = tiny_data
        train(corpus, graphs, small_config(lr=0.2, epochs=5))
        assert len(seen) == len(TopicModel(len(corpus.vocabulary), small_config()).parameters())
        assert not any(seen.values()), {k: v for k, v in seen.items() if v}

    def test_save_history_format(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        result = train(corpus, graphs, small_config())
        path = tmp_path / "history.tsv"
        save_history(result.history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["epoch", "reconstruction", "kl", "total",
                                        "seconds"]
        assert len(lines) == 1 + len(result.history)
        first = lines[1].split("\t")
        assert int(first[0]) == 1
        assert float(first[3]) == pytest.approx(result.history[0].total, abs=1e-6)


class TestInferTheta:
    def test_rows_sum_to_one(self, tiny_data):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config()).model
        theta = infer_theta(model, corpus.split.test, graphs.test_graphs())
        assert theta.shape == (len(corpus.split.test), 2)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-5)

    def test_batch_size_does_not_change_results(self, tiny_data):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config()).model
        docs, gs = corpus.split.train, graphs.train_graphs()
        full = infer_theta(model, docs, gs, batch_size=256)
        chunked = infer_theta(model, docs, gs, batch_size=3)
        assert np.allclose(full, chunked, atol=1e-6)

    @pytest.mark.parametrize("batch_size", [256, 4])
    def test_bytes_equal_eval_forward_theta(self, tiny_data, batch_size):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config(epochs=3)).model
        docs, gs = corpus.split.train, graphs.train_graphs()
        want = np.concatenate([
            model.forward_batch(docs[i:i + batch_size], gs[i:i + batch_size],
                                training=False).theta.data
            for i in range(0, len(docs), batch_size)])
        assert infer_theta(model, docs, gs, batch_size).tobytes() == want.tobytes()

    def test_no_documents(self, tiny_data):
        corpus, _ = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        theta = infer_theta(model, [], [])
        assert theta.shape == (0, 2)
        assert theta.dtype == model.beta.dtype

    def test_length_mismatch(self, tiny_data):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        with pytest.raises(ContractError):
            infer_theta(model, corpus.split.train[:2], graphs.train_graphs()[:3])


class TestTopWords:
    def test_ordering_and_tie_break(self):
        vocab = Vocabulary(words=["aa", "bb", "cc", "dd"],
                           doc_frequency=np.ones(4, dtype=np.int64))
        beta = np.array([
            [0.5, 0.9, 0.5, 0.1],
            [0.0, 0.0, 0.0, 1.0],
        ])
        topics = top_words(beta, 3, vocab)
        assert topics[0] == ["bb", "aa", "cc"]  # tie 0.5/0.5 resolved by id
        assert topics[1][0] == "dd"

    def test_n_validation(self):
        vocab = Vocabulary(words=["aa"], doc_frequency=np.ones(1, dtype=np.int64))
        with pytest.raises(ContractError):
            top_words(np.ones((1, 1)), 2, vocab)
        with pytest.raises(ContractError):
            top_words(np.ones(3), 1, vocab)


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _config(**edit):
    return lambda h: {**h, "config": {**h["config"], **edit}}


CHECKPOINT_HEADER_EDITS = {
    "missing_vocab_size": _drop("vocab_size"),
    "config_unknown_key": _config(momentum=0.9),
    "tau_string": lambda h: {**h, "config": {**h["config"],
                                             "gin": {**h["config"]["gin"], "tau": "8"}}},
    "not_json": b"\x00not json",
    "topics_one": _config(topics=1),
    "params_not_list": lambda h: {**h, "params": {"beta": [2, 8]}},
    "vocab_size_zero": lambda h: {**h, "vocab_size": 0},
}


class TestCheckpoints:
    def test_round_trip_bitwise(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config()).model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, vocabulary=corpus.vocabulary)
        for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data), na
        for (_, ba), (_, bb) in zip(model.buffers(), loaded.buffers()):
            assert np.array_equal(ba, bb)
        assert loaded.trained_epochs == model.trained_epochs
        assert loaded.config.to_dict() == model.config.to_dict()

    def test_loaded_model_infers_identically(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config()).model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        a = infer_theta(model, corpus.split.test, graphs.test_graphs())
        b = infer_theta(loaded, corpus.split.test, graphs.test_graphs())
        assert np.array_equal(a, b)

    def test_save_is_byte_deterministic(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        m1 = train(corpus, graphs, small_config()).model
        m2 = train(corpus, graphs, small_config()).model
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m1, p1)
        save_checkpoint(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vocabulary_mismatch_rejected(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        model = train(corpus, graphs, small_config()).model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = Vocabulary(words=["zz"], doc_frequency=np.ones(1, dtype=np.int64))
        with pytest.raises(DataError, match="different vocabulary"):
            load_checkpoint(path, vocabulary=other)

    def test_truncated_and_trailing(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(blob + b"??")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_tampered_config_fails_inventory_check(self, tiny_data, tmp_path):
        corpus, graphs = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob.count(b'"topics":2') == 1
        path.write_bytes(blob.replace(b'"topics":2', b'"topics":3'))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_well_formed_rewrite_loads(self, tiny_data, tmp_path):
        """The malformed cases differ from this one only in the edit."""
        corpus, _ = tiny_data
        path = tmp_path / "model.ckpt"
        save_checkpoint(TopicModel(len(corpus.vocabulary), small_config()), path)
        rewrite_header(path, topicmodel._MAGIC, lambda h: h)
        assert load_checkpoint(path).vocab_size == len(corpus.vocabulary)

    @pytest.mark.parametrize("edit", sorted(CHECKPOINT_HEADER_EDITS))
    def test_malformed_header_is_data_error(self, tiny_data, tmp_path, edit):
        corpus, _ = tiny_data
        path = tmp_path / "model.ckpt"
        save_checkpoint(TopicModel(len(corpus.vocabulary), small_config()), path)
        rewrite_header(path, topicmodel._MAGIC, CHECKPOINT_HEADER_EDITS[edit])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tiny_data, tmp_path):
        corpus, _ = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        model.beta.data = np.full(model.beta.shape, "x", dtype=object)
        with pytest.raises(ContractError):  # raised mid-write, at beta
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_float64_model_is_rejected(self, tiny_data, tmp_path):
        """The payload is float32, so a float64 model would not round-trip
        (0.1 would load back as float32(0.1)); it is refused, not rounded."""
        corpus, _ = tiny_data
        with T.default_dtype(np.float64):
            model = TopicModel(len(corpus.vocabulary), small_config())
        with pytest.raises(ContractError, match="float32"):
            save_checkpoint(model, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_data_error(self, tiny_data, tmp_path):
        corpus, _ = tiny_data
        model = TopicModel(len(corpus.vocabulary), small_config())
        with pytest.raises(DataError, match="cannot write"):
            save_checkpoint(model, tmp_path / "missing" / "model.ckpt")


HUGE = 10 ** 9


def _gin(**edit):
    return lambda h: {**h, "config": {**h["config"], "gin": {**h["config"]["gin"], **edit}}}


HUGE_HEADER_EDITS = {
    "gin_tau": _gin(tau=HUGE),
    "gin_hidden": _gin(hidden=HUGE),
    "gin_tau_out": _gin(tau_out=HUGE),
    "gin_layers": _gin(layers=HUGE),
    "gin_mlp_hidden_layers": _gin(mlp_hidden_layers=HUGE),
    "topics": _config(topics=HUGE),
    "encoder_hidden": _config(encoder_hidden=HUGE),
    "encoder_layers": _config(encoder_layers=HUGE),
    "vocab_size": lambda h: {**h, "vocab_size": HUGE},
    "small_tau": _gin(tau=4),
}


class TestCheckpointAllocationBound:
    @pytest.mark.parametrize("config", [
        small_config(),
        small_config(gin=GinConfig(tau=3, hidden=5, tau_out=7, layers=4, mlp_hidden_layers=2),
                     encoder_layers=3, encoder_hidden=11, topics=4),
        small_config(gin=GinConfig(tau=6, hidden=2, tau_out=9, layers=2, mlp_hidden_layers=0)),
    ])
    def test_float_count_matches_the_model(self, config):
        model = TopicModel(13, config)
        total = sum(t.size for _, t in model.parameters()) + sum(
            b.size for _, b in model.buffers())
        assert topicmodel._checkpoint_floats(13, config) == total

    def test_huge_config_is_data_error_before_allocating(self, tiny_data, tmp_path):
        """A header whose config implies more (or fewer) floats than the file
        holds fails before the model is built, here under a 1 GiB
        address-space limit (a gin.tau of 10**9 would ask for 74 GiB)."""
        corpus, _ = tiny_data
        paths = []
        for name, edit in sorted(HUGE_HEADER_EDITS.items()):
            path = tmp_path / f"{name}.ckpt"
            save_checkpoint(TopicModel(len(corpus.vocabulary), small_config()), path)
            rewrite_header(path, topicmodel._MAGIC, edit)
            paths.append(str(path))
        outcomes = dict(zip(sorted(HUGE_HEADER_EDITS), load_under_limit(
            "from ginopic.topicmodel import load_checkpoint as load", paths)))
        assert outcomes == dict.fromkeys(sorted(HUGE_HEADER_EDITS), "DataError")
