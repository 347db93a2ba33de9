"""Embedding loading, cosine similarity, OOV filling, and the similarity table."""
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(DataError, match=r"line 2: expected 2 components, got 1"):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_malformed_float_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 oops"])
        with pytest.raises(DataError, match=r"line 1: malformed float"):
            load_embeddings(path, make_vocabulary(["cat"]))

    def test_no_components_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["", "  ", "cat", "dog 1.0"])
        with pytest.raises(DataError, match=r"line 3: no vector components"):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-Infinity", "1e39", "-1e39",
                                       "1e400"])
    def test_non_finite_component_reports_line(self, tmp_path, value):
        # float32 overflow (1e39) counts as non-finite; so does a line whose
        # word is not in the vocabulary
        path = tmp_path / "emb.txt"
        for lines in (["cat 1.0 2.0", f"dog 3.0 {value}"], ["cat 1.0 2.0", f"bird {value} 1.0"]):
            self._write(path, lines)
            with pytest.raises(DataError, match=r"line 2: non-finite component"):
                load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_float32_max_is_finite(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 3.4028235e38 -3.4028235e38 1e-46"])
        got = load_embeddings(path, make_vocabulary(["cat"])).vector("cat")
        assert got.tolist() == [np.finfo(np.float32).max, -np.finfo(np.float32).max, 0.0]

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11", "0x1p3", "1,5", "1d3"])
    def test_only_ascii_decimal_syntax(self, tmp_path, value):
        # float() accepts the first three; the file format does not
        path = tmp_path / "emb.txt"
        self._write(path, ["cat 1.0 2.0", f"bird 3.0 {value}"])
        with pytest.raises(DataError, match=r"line 2: malformed float"):
            load_embeddings(path, make_vocabulary(["cat"]))

    def test_no_overlap_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        self._write(path, ["bird 1.0 2.0"])
        with pytest.raises(DataError, match="shares no words"):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_embeddings(tmp_path / "nope.txt", make_vocabulary(["cat"]))


def reference_rows(path):
    """word -> float32 components, parsed one token at a time with `float`;
    the last line of a repeated word wins."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if parts := line.split():
                rows[parts[0]] = [np.float32(float(tok)) for tok in parts[1:]]
    return rows


SEPARATORS = st.sampled_from([" ", "\t", "\x0b", "\xa0", "  ", " \t\xa0"])


@st.composite
def float_text(draw):
    """A component as a file may spell it: the repr of a float32 value
    (signed zeros and subnormals included), its shortest float32 spelling,
    or a long decimal that may round between two float32 values."""
    kind = draw(st.sampled_from(["repr", "short", "decimal"]))
    if kind == "decimal":
        digits = draw(st.text("0123456789", min_size=1, max_size=24))
        return (f"{draw(st.sampled_from(['', '-', '+']))}{draw(st.integers(0, 9))}.{digits}"
                f"e{draw(st.integers(-50, 37))}")
    value = draw(st.floats(width=32, allow_nan=False, allow_infinity=False))
    return repr(value) if kind == "repr" else str(np.float32(value))


@st.composite
def embedding_text(draw):
    """A valid embedding file over words w0-w3 (in the vocabulary) and x0-x1
    (not), with blank and whitespace-only lines, CRLF endings, repeated
    words and mixed separators."""
    dim = draw(st.integers(1, 4))
    words = st.sampled_from(["w0", "w1", "w2", "w3", "x0", "x1"])
    lines = []
    for _ in range(draw(st.integers(2, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0 "])))
        tokens = [draw(words)] + [draw(float_text()) for _ in range(dim)]
        text = draw(st.sampled_from(["", " "])) + tokens[0]
        for tok in tokens[1:]:
            text += draw(SEPARATORS) + tok
        lines.append(text + draw(st.sampled_from(["", " ", "\t"])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def write_chunk_file(path, lines, bad_at_chunk_start=None):
    """Write `lines`, replacing the first line of the second chunk the loader
    reads with `bad_at_chunk_start`; returns that line's 1-based number."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        second = len(fh.readlines(embedding._CHUNK_BYTES)) + 1
    assert second <= len(lines)
    if bad_at_chunk_start is not None:
        lines = list(lines)
        lines[second - 1] = bad_at_chunk_start
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return second


class TestChunkedParse:
    @given(text=embedding_text(), chunk=st.integers(1, 64), seed=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_per_token_float(self, text, chunk, seed):
        vocab = make_vocabulary(["w0", "w1", "w2", "w3"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_bytes(text.encode("utf-8"))
            rows = reference_rows(path)
            with mock.patch.object(embedding, "_CHUNK_BYTES", chunk):
                if not rows.keys() & set(vocab.words):
                    with pytest.raises(DataError, match="shares no words"):
                        load_embeddings(path, vocab, seed=seed)
                    return
                got = load_embeddings(path, vocab, seed=seed)
        dim = len(next(iter(rows.values())))
        want = np.array([rows.get(w, embedding._oov_fill(w, dim, seed)) for w in vocab.words],
                        dtype=np.float32)
        assert got.vectors.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
        assert got.oov_mask.tolist() == [w not in rows for w in vocab.words]

    @pytest.mark.parametrize("bad,message", [
        ("w9 0.5", "expected 3 components, got 1"),
        ("w9 0.5 oops 0.5", "malformed float"),
        ("w9 0.5 nan 0.5", "non-finite component"),
    ])
    def test_error_names_first_line_of_second_chunk(self, tmp_path, bad, message):
        # blank lines in the first chunk must count towards the line number
        path = tmp_path / "emb.txt"
        lines = ["cat 1.0 2.0 3.0", "dog 4.0 5.0 6.0"] + [
            f"x{i} 0.25 -0.5 0.125" if i % 10 else "" for i in range(embedding._CHUNK_BYTES // 8)]
        line = write_chunk_file(path, lines, bad)
        assert line > 1000
        with pytest.raises(DataError, match=rf"line {line}: {message} "):
            load_embeddings(path, make_vocabulary(["cat", "dog"]))

    def test_second_chunk_of_another_width(self, tmp_path):
        path = tmp_path / "emb.txt"
        lines = ["cat 1.0 2.0 3.0"] + [
            f"x{i} 0.25 -0.5 0.125" for i in range(embedding._CHUNK_BYTES // 8)]
        line = write_chunk_file(path, lines)
        lines[line - 1:] = [f"y{i} 0.25 -0.5" for i in range(len(lines) - line + 1)]
        write_chunk_file(path, lines)
        with pytest.raises(DataError, match=rf"line {line}: expected 3 components, got 2 "):
            load_embeddings(path, make_vocabulary(["cat"]))

    def test_memory_does_not_grow_with_file(self, tmp_path):
        # about 20,000 lines of 64 components, a 16 MB file; its vocabulary
        # rows are the first and the last line
        path = tmp_path / "emb.txt"
        row = " ".join(["-0.123456789"] * 64)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"cat {row}\n")
            fh.writelines(f"x{i} {row}\n" for i in range(20_000))
            fh.write(f"dog {row}\n")
        assert path.stat().st_size > 15 * embedding._CHUNK_BYTES
        vocab = make_vocabulary(["cat", "dog"])
        tracemalloc.start()
        try:
            emb = load_embeddings(path, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.oov_count == 0
        assert peak < 6 * embedding._CHUNK_BYTES


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
        got = cosine_weights(rows, np.arange(300), -1.0)
        assert got.dtype == np.float32 and got.shape == (300, 300)
        assert len(rechecks) > 0
        assert np.array_equal(got.view(np.uint32), scalar_weights(rows).view(np.uint32))
        assert not got[7].any() and not got[:, 7].any()

    def test_hand_values_and_signed_zeros(self):
        # the last two rows multiply to a sum of negative zeros
        rows = [[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                [-1.0, 0.0], [0.0, -1.0]]
        got = cosine_weights(rows, np.arange(len(rows)), -1.0)
        want = scalar_weights(np.asarray(rows, dtype=np.float32))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert got[0, 2] == -1.0 and got[0, 0] == 1.0
        assert got[0, 4] == np.float32(1.0 / math.sqrt(2.0))

    def test_empty(self):
        rows = np.zeros((0, 3), dtype=np.float32)
        assert cosine_weights(rows, np.arange(0), -1.0).shape == (0, 0)


def floor_rows(kind):
    """300 rows, so two tiles: standard normals with a zero row; the rows of
    an orthogonal matrix, whose float32 cosines are tiny and sums of large
    cancelling terms, so the Gram product often rounds them otherwise than
    `cosine_similarity`; normals with a shared component (mean cosine about
    0.4); or desk-like block vectors, cosine 0.6 inside a block and exactly 0
    across the other five."""
    gen = np.random.default_rng(5)
    if kind == "normals":
        rows = gen.normal(size=(300, 300))
        rows[7] = 0.0
    elif kind == "orthogonal":
        rows = np.linalg.qr(gen.normal(size=(300, 300)))[0]
    elif kind == "dense":
        rows = gen.normal(size=(300, 300)) + 0.8 * gen.normal(size=300)
    else:
        rows = loop_block_vectors(6, 50, 0.6)
    return rows.astype(np.float32)


@pytest.fixture
def counted(monkeypatch):
    """(doubtful entries left by each bound a tile tries, scalar rechecks),
    two lists filled while `cosine_weights` runs."""
    doubts, rechecks = [], []
    doubtful = embedding._doubtful

    def counting_doubtful(cos, bound, floor):
        left = doubtful(cos, bound, floor)
        doubts.append(int(np.count_nonzero(left)))
        return left

    def counting_cosine(u, v):
        rechecks.append(1)
        return cosine_similarity(u, v)

    monkeypatch.setattr(embedding, "_doubtful", counting_doubtful)
    monkeypatch.setattr(embedding, "cosine_similarity", counting_cosine)
    return doubts, rechecks


class TestFloor:
    TILES = 3   # 300 rows: tiles (0, 0), (0, 1) and (1, 1)

    @pytest.mark.parametrize("kind", ["normals", "orthogonal", "dense", "desk_like"])
    def test_exact_at_or_above_floor_and_below_it_elsewhere(self, kind):
        rows = floor_rows(kind)
        want = scalar_weights(rows)
        for floor in (-1.0, 0.0, 0.4, 0.9):
            got = cosine_weights(rows, np.arange(300), np.float64(floor))
            at = want >= floor
            assert np.array_equal(got[at].view(np.uint32), want[at].view(np.uint32)), floor
            assert (got[~at] < floor).all(), floor

    def test_exact_zeros_at_floor_zero_are_settled_by_the_second_product(self, counted):
        doubts, rechecks = counted
        cosine_weights(floor_rows("desk_like"), np.arange(300), np.float64(0.0))
        # tile (0, 0): the first bound leaves its exact zeros in doubt, the
        # second settles them all
        assert doubts[0] > 1000 and doubts[1] == 0 and rechecks == []

    def test_no_recheck_of_desk_like_rows_at_floor(self, counted):
        doubts, rechecks = counted
        cosine_weights(floor_rows("desk_like"), np.arange(300), np.float64(0.4))
        assert doubts == [0] * self.TILES and rechecks == []

    def test_floor_compares_in_float64(self, counted):
        # the bound leaves an orthogonal pair in doubt across 0, so it is
        # rechecked until the floor passes the float32 top of its interval:
        # the least floor that settles it is the float64 just above that
        # float32 value, and not the one above the midpoint to the next
        _, rechecks = counted
        rows = np.eye(2, dtype=np.float32)

        def settles(bits):
            before = len(rechecks)
            cosine_weights(rows, np.arange(2), np.int64(bits).view(np.float64))
            return len(rechecks) == before

        lo, hi = 0, int(np.float64(1e-6).view(np.int64))
        assert not settles(lo) and settles(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if settles(mid) else (mid, hi)
        top = np.int64(lo).view(np.float64)
        assert np.float64(np.float32(top)) == top


class TestSimilarityCache:
    def test_matches_direct_cosine_bitwise(self):
        vocab = make_vocabulary([f"w{i}" for i in range(6)])
        gen = np.random.default_rng(1)
        emb = make_embeddings(vocab, gen.normal(size=(6, 4)))
        cache = SimilarityCache(emb, np.arange(6), -1.0)
        assert cache.table.dtype == np.float32
        for i in range(6):
            for j in range(6):
                direct = np.float32(cosine_similarity(emb.vectors[i], emb.vectors[j]))
                assert cache.table[i, j].tobytes() == direct.tobytes()
                assert float(cache.table[i, j]) == float(direct)

    def test_symmetric(self):
        vocab = make_vocabulary(["aa", "bb", "cc"])
        emb = make_embeddings(vocab, np.random.default_rng(2).normal(size=(3, 3)))
        cache = SimilarityCache(emb, np.arange(3), -1.0)
        assert float(cache.table[0, 2]) == float(cache.table[2, 0])

    def test_zero_row_handled(self):
        vocab = make_vocabulary(["aa", "bb"])
        emb = make_embeddings(vocab, [[0.0, 0.0], [1.0, 2.0]])
        cache = SimilarityCache(emb, np.arange(2), -1.0)
        assert float(cache.table[0, 1]) == 0.0

    def test_table_of_some_words_is_that_block_of_the_whole_table(self):
        # 280 ids out of order span two tiles, and some of their entries are
        # recomputed by the scalar guard
        vocab = make_vocabulary([f"w{i}" for i in range(300)])
        emb = make_embeddings(vocab, np.random.default_rng(3).normal(size=(300, 300)))
        ids = np.random.default_rng(4).permutation(300)[:280]
        whole = SimilarityCache(emb, np.arange(300), -1.0).table
        got = SimilarityCache(emb, ids, -1.0).table
        assert got.shape == (280, 280)
        assert got.tobytes() == whole[np.ix_(ids, ids)].tobytes()
