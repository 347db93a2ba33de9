"""Embedding loading, cosine similarity, OOV filling, and the similarity table."""
import math

import numpy as np
import pytest

from ginopic import embedding
from ginopic.embedding import (
    EmbeddingMatrix,
    SimilarityCache,
    cosine_similarity,
    cosine_weights,
    load_embeddings,
)
from ginopic.errors import ConfigError, DataError
from ginopic.synthetic import block_embeddings

from conftest import make_embeddings, make_vocabulary


class TestCosine:
    def test_hand_values(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2))
        assert cosine_similarity([2, 0], [1, 0]) == 1.0
        assert cosine_similarity([1, 0], [-1, 0]) == -1.0

    def test_zero_norm_scores_zero(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0
        assert cosine_similarity([0, 0], [0, 0]) == 0.0

    def test_clamped_to_unit_interval(self):
        v = np.full(50, 0.1, dtype=np.float32)
        c = cosine_similarity(v, v)
        assert -1.0 <= c <= 1.0
        assert c == 1.0

    def test_scale_invariant(self):
        u, v = np.array([0.3, -0.7, 0.2]), np.array([1.0, 0.1, -0.4])
        assert cosine_similarity(u, v) == pytest.approx(
            cosine_similarity(1000 * u, 1e-3 * v), abs=1e-12
        )


class TestTextLoading:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_parses_and_aligns_rows(self, tmp_path):
        vocab = make_vocabulary(["cat", "dog"])
        path = tmp_path / "emb.txt"
        self._write(path, ["dog 1.0 2.0", "cat 3.0 4.0", "bird 9.0 9.0"])
        emb = load_embeddings(path, vocab)
        assert emb.dim == 2
        assert emb.vector("cat").tolist() == [3.0, 4.0]
        assert emb.vector("dog").tolist() == [1.0, 2.0]
        assert emb.oov_count == 0

    def test_oov_rows_filled_deterministically(self, tmp_path):
        vocab = make_vocabulary(["cat", "dog"])
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 0.0 0.0"])
        a = load_embeddings(path, vocab, seed=3)
        b = load_embeddings(path, vocab, seed=3)
        assert a.oov_count == 1
        assert bool(a.oov_mask[vocab.id_of("dog")])
        assert np.array_equal(a.vectors, b.vectors)
        assert np.all(np.abs(a.vector("dog")) <= 0.1)

    def test_oov_fill_depends_on_word_not_row(self, tmp_path):
        # the same missing word gets the same vector in different vocabularies
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 0.0"])
        v1 = make_vocabulary(["cat", "dog"])
        v2 = make_vocabulary(["dog", "cat"])
        e1 = load_embeddings(path, v1, seed=0)
        e2 = load_embeddings(path, v2, seed=0)
        assert np.array_equal(e1.vector("dog"), e2.vector("dog"))

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 2.0", "dog 3.0"])
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_malformed_float_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 oops"])
        with pytest.raises(DataError, match="line 1"):
            load_embeddings(path, make_vocabulary(["cat"]))

    def test_no_overlap_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["bird 1.0 2.0"])
        with pytest.raises(DataError, match="shares no words"):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_embeddings(tmp_path / "nope.txt", make_vocabulary(["cat"]))


class TestEmbeddingMatrix:
    def test_matrix_shape_validation(self):
        vocab = make_vocabulary(["cat", "dog"])
        with pytest.raises(DataError):
            EmbeddingMatrix(
                vectors=np.zeros((3, 2)), oov_mask=np.zeros(3, dtype=bool), vocabulary=vocab,
            )


def loop_block_vectors(n_topics, words_per_topic, within):
    """Reference for `block_embeddings`: each word's block and own component
    set one word at a time."""
    v = n_topics * words_per_topic
    vectors = np.zeros((v, n_topics + v), dtype=np.float32)
    for wid in range(v):
        vectors[wid, wid // words_per_topic] = np.sqrt(within)
        vectors[wid, n_topics + wid] = np.sqrt(1.0 - within)
    return vectors


@pytest.mark.parametrize("n_topics,words_per_topic", [(2, 1), (2, 5), (4, 3)])
def test_block_embeddings_equal_block_loop(n_topics, words_per_topic):
    vocab = make_vocabulary([f"w{i}" for i in range(n_topics * words_per_topic)])
    for within in (0.0, 0.5, 0.6, 0.9, 1.0):
        got = block_embeddings(vocab, n_topics, words_per_topic, within).vectors
        assert got.tobytes() == loop_block_vectors(n_topics, words_per_topic, within).tobytes()
    with pytest.raises(ConfigError):
        block_embeddings(vocab, n_topics + 1, words_per_topic)


def scalar_weights(rows):
    """Reference table: np.float32 of the scalar cosine, one pair at a time."""
    n = len(rows)
    return np.array([[cosine_similarity(rows[i], rows[j]) for j in range(n)]
                     for i in range(n)], dtype=np.float64).astype(np.float32)


class TestCosineWeights:
    def test_every_pair_bitwise_and_guard_fires(self, monkeypatch):
        # 300 rows span two 256-row tiles, so mirrored blocks are covered; at
        # 300 dims random normals put a few dozen Gram entries within their
        # error bound of a float32 rounding boundary
        rows = np.random.default_rng(0).normal(size=(300, 300)).astype(np.float32)
        rows[7] = 0.0
        rechecks = []

        def counting(u, v):
            rechecks.append(1)
            return cosine_similarity(u, v)

        monkeypatch.setattr(embedding, "cosine_similarity", counting)
        got = cosine_weights(rows)
        assert got.dtype == np.float32 and got.shape == (300, 300)
        assert len(rechecks) > 0
        assert np.array_equal(got.view(np.uint32), scalar_weights(rows).view(np.uint32))
        assert not got[7].any() and not got[:, 7].any()

    def test_hand_values_and_signed_zeros(self):
        # the last two rows multiply to a sum of negative zeros
        rows = [[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                [-1.0, 0.0], [0.0, -1.0]]
        got = cosine_weights(rows)
        want = scalar_weights(np.asarray(rows, dtype=np.float32))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert got[0, 2] == -1.0 and got[0, 0] == 1.0
        assert got[0, 4] == np.float32(1.0 / math.sqrt(2.0))

    def test_empty(self):
        assert cosine_weights(np.zeros((0, 3), dtype=np.float32)).shape == (0, 0)


class TestSimilarityCache:
    def test_matches_direct_cosine_bitwise(self):
        vocab = make_vocabulary([f"w{i}" for i in range(6)])
        gen = np.random.default_rng(1)
        emb = make_embeddings(vocab, gen.normal(size=(6, 4)))
        cache = SimilarityCache(emb)
        assert cache.table.dtype == np.float32
        for i in range(6):
            for j in range(6):
                direct = np.float32(cosine_similarity(emb.vectors[i], emb.vectors[j]))
                assert cache.table[i, j].tobytes() == direct.tobytes()
                assert float(cache.table[i, j]) == float(direct)

    def test_symmetric(self):
        vocab = make_vocabulary(["aa", "bb", "cc"])
        emb = make_embeddings(vocab, np.random.default_rng(2).normal(size=(3, 3)))
        cache = SimilarityCache(emb)
        assert float(cache.table[0, 2]) == float(cache.table[2, 0])

    def test_zero_row_handled(self):
        vocab = make_vocabulary(["aa", "bb"])
        emb = make_embeddings(vocab, [[0.0, 0.0], [1.0, 2.0]])
        cache = SimilarityCache(emb)
        assert float(cache.table[0, 1]) == 0.0
