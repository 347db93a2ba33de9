"""Preprocessing, tf-idf weighting, splitting, and the corpus cache format."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginopic import corpus as corpus_module
from ginopic.corpus import (
    Document,
    PreprocessOptions,
    Vocabulary,
    assemble_corpus,
    build_corpus,
    compute_tfidf,
    idf_vector,
    load_corpus,
    preprocess,
    save_corpus,
    split_corpus,
    tfidf_dense,
    tokenize,
    word_counts,
)
from ginopic.errors import ConfigError, ContractError, DataError
from ginopic.lemmatizer import lemmatize
from ginopic.rng import stream

from conftest import make_document, make_vocabulary, rewrite_header


class TestLemmatizer:
    @pytest.mark.parametrize("word,lemma", [
        ("men", "man"),
        ("women", "woman"),
        ("children", "child"),
        ("dresses", "dress"),
        ("flies", "fly"),
        ("running", "run"),
        ("stopped", "stop"),
        ("makes", "make"),
        ("cats", "cat"),
        ("glass", "glass"),      # trailing ss is not a plural
        ("was", "be"),           # irregular, from the exceptions table
        ("seen", "see"),
        ("bus", "bus"),          # -us is not stripped
        ("tying", "tying"),      # too short for the -ying rule
        ("studying", "study"),
    ])
    def test_known_forms(self, word, lemma):
        assert lemmatize(word) == lemma

    def test_idempotent_on_own_output(self):
        for w in ["running", "dresses", "studies", "hoped", "biggest"]:
            once = lemmatize(w)
            assert lemmatize(once) == once


class TestTokenize:
    def test_lowercases_and_strips_nonletters(self):
        opts = PreprocessOptions(min_word_len=3, lemmatize=False)
        assert tokenize("The CAT-22 sat!", opts) == ["the", "cat", "sat"]

    def test_min_word_len_filters_after_lemmatization(self):
        opts = PreprocessOptions(min_word_len=4, lemmatize=True)
        # "flies" lemmatizes to "fly" (3 letters) and is then dropped
        assert tokenize("flies swarm", opts) == ["swarm"]

    def test_stopwords_removed(self):
        opts = PreprocessOptions(stopwords=frozenset({"the"}), lemmatize=False)
        assert tokenize("the cat the mat", opts) == ["cat", "mat"]


class TestPreprocess:
    def test_vocabulary_ranked_by_frequency_then_lexicographic(self):
        docs = ["bbb aaa bbb", "ccc aaa bbb", "ddd ccc"]
        words, _, _ = preprocess(docs, PreprocessOptions(lemmatize=False, min_doc_len=1))
        # bbb:3 > aaa:2 = ccc:2 (tie -> aaa first) > ddd:1
        assert words == ["bbb", "aaa", "ccc", "ddd"]

    def test_max_vocab_keeps_most_frequent(self):
        docs = ["bbb aaa bbb bbb", "ccc aaa bbb"]
        words, _, _ = preprocess(
            docs, PreprocessOptions(max_vocab=2, lemmatize=False, min_doc_len=1)
        )
        assert words == ["bbb", "aaa"]

    def test_short_documents_dropped_and_indices_kept(self):
        docs = ["aaa bbb ccc ddd", "aaa", "bbb ccc ddd eee"]
        _, documents, kept = preprocess(
            docs, PreprocessOptions(lemmatize=False, min_doc_len=3)
        )
        assert kept == [0, 2]
        assert len(documents) == 2

    def test_empty_inputs_raise(self):
        with pytest.raises(DataError):
            preprocess([], PreprocessOptions())
        with pytest.raises(DataError):
            preprocess(["12 34", "!!"], PreprocessOptions())

    def test_doc_frequency_counts_documents_not_tokens(self):
        docs = ["aaa aaa aaa bbb", "aaa bbb ccc"]
        options = PreprocessOptions(lemmatize=False, min_doc_len=1)
        vocab = build_corpus(docs, options=options).vocabulary
        assert vocab.doc_frequency[vocab.id_of("aaa")] == 2

    def test_options_validation(self):
        with pytest.raises(ConfigError):
            PreprocessOptions(max_vocab=0).validate()
        with pytest.raises(ConfigError):
            PreprocessOptions(min_word_len=0).validate()


class TestTfidf:
    def test_hand_value(self):
        # N=10 docs, df=1, count=2: 2 * (ln(11/2) + 1) = 5.409496184476851
        docs = [make_document([0, 0])] + [make_document([1]) for _ in range(9)]
        idf, n = idf_vector(docs, 2)
        assert n == 10
        vocab = make_vocabulary(["aa", "bb"])
        compute_tfidf(docs, vocab, idf=idf)
        value = docs[0].tfidf_values[0]
        assert value == pytest.approx(2.0 * (math.log(11.0 / 2.0) + 1.0), abs=1e-12)
        assert value == pytest.approx(5.409496184476851, abs=1e-12)

    def test_train_fit_idf_applied_to_heldout(self):
        train = [make_document([0, 1]), make_document([0])]
        test = [make_document([1, 1, 1])]
        idf, _ = idf_vector(train, 2)
        vocab = make_vocabulary(["aa", "bb"])
        compute_tfidf(test, vocab, idf=idf)
        # word 1 has train df=1, so idf = ln(3/2)+1 regardless of test usage
        assert test[0].tfidf_values[0] == pytest.approx(3.0 * (math.log(1.5) + 1.0))

    def test_word_absent_from_train_stays_finite(self):
        train = [make_document([0]), make_document([0])]
        idf, _ = idf_vector(train, 2)
        assert idf[1] == pytest.approx(math.log(3.0) + 1.0)
        assert np.all(np.isfinite(idf)) and np.all(idf > 0)

    def test_idf_length_mismatch(self):
        vocab = make_vocabulary(["aa", "bb"])
        with pytest.raises(ContractError):
            compute_tfidf([make_document([0])], vocab, idf=np.ones(3))

    def test_tfidf_dense_layout(self):
        docs = [make_document([0, 2, 2])]
        compute_tfidf(docs, make_vocabulary(["aa", "bb", "cc"]), idf=np.ones(3))
        dense = tfidf_dense(docs, 3)
        assert dense.shape == (1, 3)
        assert dense[0].tolist() == [1.0, 0.0, 2.0]

    def test_tfidf_dense_requires_weights(self):
        with pytest.raises(ContractError):
            tfidf_dense([make_document([0])], 1)

    @pytest.mark.parametrize("token", [-1, 3], ids=["negative", "vocabulary_size"])
    def test_token_id_outside_vocabulary_is_contract_error(self, token):
        """-1 would wrap to the last word and 3 would alias into the next
        document's key; both are refused before any weight is computed."""
        docs = [make_document([0, token]), make_document([1, 2])]
        with pytest.raises(ContractError, match="outside"):
            word_counts(docs, 3)
        with pytest.raises(ContractError, match="outside"):
            compute_tfidf(docs, make_vocabulary(["aa", "bb", "cc"]), idf=np.ones(3))
        assert docs[0].tfidf_ids is None


def loop_compute_tfidf(split, vocab_size: int):
    """Per-document reference for the corpus weights: (entries, idf, df) with
    entries[r] = (ids, values) of document r in split order, idf fit on the
    training split and df counted over every document."""
    train_df = np.zeros(vocab_size, dtype=np.int64)
    for doc in split.train:
        train_df[np.unique(doc.token_ids)] += 1
    n = len(split.train)
    idf = np.log((1.0 + n) / (1.0 + train_df)) + 1.0
    df = np.zeros(vocab_size, dtype=np.int64)
    entries = []
    for doc in split.all_documents():
        ids, cnt = np.unique(doc.token_ids, return_counts=True)
        df[ids] += 1
        entries.append((ids.astype(np.int32), cnt.astype(np.float64) * idf[ids]))
    return entries, idf, df


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_random_docs = [stream(5, "test/tfidf").integers(0, 7, size=n).tolist()
                for n in (1, 4, 9, 2, 7, 3, 12, 5, 6, 1, 8, 3, 2)]

# name -> (token ids per document, vocabulary size, split ratios)
WEIGHT_CASES = {
    # word 0 is in every document; word i+1 only in document i, so the
    # words of the held-out documents are absent from train
    "word_in_every_document_and_words_absent_from_train": (
        [[0, i + 1, 0] for i in range(10)], 11, (0.70, 0.15, 0.15)),
    "empty_validation_and_test": ([[0, 1], [1, 1, 2], [2, 0]], 3, (1.0, 0.0, 0.0)),
    "empty_test": ([[i % 4, 3] for i in range(10)], 4, (0.8, 0.2, 0.0)),
    "one_token_documents": ([[i % 3] for i in range(12)], 3, (0.70, 0.15, 0.15)),
    "one_word_vocabulary": ([[0] * k for k in range(1, 8)], 1, (0.70, 0.15, 0.15)),
    "random": (_random_docs, 7, (0.6, 0.2, 0.2)),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_corpus_weights_equal_per_document_loop(case, tmp_path):
    """tf-idf, idf and document frequencies from the one `word_counts` pass
    equal the per-document loop bit for bit, when built and after a save
    and load."""
    token_docs, v, ratios = WEIGHT_CASES[case]
    docs = [make_document(ids) for ids in token_docs]
    words = [f"w{i}" for i in range(v)]
    corpus = assemble_corpus(words, docs, ratios=ratios, seed=3)
    entries, idf, df = loop_compute_tfidf(corpus.split, v)
    if case.endswith("absent_from_train"):
        assert (idf == np.log(1.0 + len(corpus.split.train)) + 1.0).sum() == 2
    _assert_bitwise(idf_vector(corpus.split.train, v)[0], idf)
    save_corpus(corpus, tmp_path / "corpus.bin")
    for built in (corpus, load_corpus(tmp_path / "corpus.bin")):
        _assert_bitwise(built.vocabulary.doc_frequency, df)
        for doc, (ids, values) in zip(built.split.all_documents(), entries, strict=True):
            _assert_bitwise(doc.tfidf_ids, ids)
            _assert_bitwise(doc.tfidf_values, values)


class TestSplit:
    def test_ten_documents_default_ratios_split_8_1_1(self):
        docs = [make_document([i]) for i in range(10)]
        split = split_corpus(docs, seed=0)
        assert split.sizes == (8, 1, 1)

    def test_sizes_exhaustive_and_disjoint(self):
        docs = [make_document([i]) for i in range(23)]
        split = split_corpus(docs, ratios=(0.6, 0.2, 0.2), seed=1)
        assert sum(split.sizes) == 23
        seen = {int(d.token_ids[0]) for d in split.all_documents()}
        assert seen == set(range(23))

    def test_same_seed_same_split(self):
        docs = [make_document([i]) for i in range(20)]
        a = split_corpus(docs, seed=5)
        b = split_corpus(docs, seed=5)
        assert [d.token_ids[0] for d in a.train] == [d.token_ids[0] for d in b.train]

    def test_different_seed_different_split(self):
        docs = [make_document([i]) for i in range(50)]
        a = split_corpus(docs, seed=0)
        b = split_corpus(docs, seed=1)
        assert [int(d.token_ids[0]) for d in a.train] != [int(d.token_ids[0]) for d in b.train]

    def test_bad_ratios(self):
        docs = [make_document([0])]
        with pytest.raises(ConfigError):
            split_corpus(docs, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            split_corpus(docs, ratios=(1.2, -0.1, -0.1))

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            split_corpus([])


class TestBuildCorpus:
    def _texts(self):
        base = [
            "alpha bravo charlie delta",
            "alpha bravo echo foxtrot",
            "charlie delta echo golf",
            "bravo charlie foxtrot golf",
            "alpha delta foxtrot hotel",
        ]
        return base * 4  # 20 documents

    def test_pipeline_and_label_mapping(self):
        labels = ["news", "sport"] * 10
        corpus = build_corpus(self._texts(), labels=labels, seed=0)
        assert corpus.split.label_names == ["news", "sport"]
        assert corpus.split.k_gold == 2
        for doc in corpus.split.all_documents():
            assert doc.label in (0, 1)
            assert doc.tfidf_values is not None

    def test_label_count_mismatch(self):
        with pytest.raises(DataError):
            build_corpus(self._texts(), labels=["x"])

    def test_unlabeled_corpus(self):
        corpus = build_corpus(self._texts())
        assert corpus.split.k_gold is None
        assert all(d.label is None for d in corpus.split.all_documents())

    def test_sha256_stable_across_rebuilds(self):
        a = build_corpus(self._texts(), seed=3)
        b = build_corpus(self._texts(), seed=3)
        assert a.sha256 == b.sha256

    def test_sha256_sensitive_to_labels(self):
        a = build_corpus(self._texts())
        b = build_corpus(self._texts(), labels=["x", "y"] * 10)
        assert a.sha256 != b.sha256


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(**edit):
    return lambda h: {**h, **edit}


HEADER_EDITS = {
    "bad_json": b'{"version": 1,',
    "not_utf8": b"\xff\xfe{}",
    "not_object": b"[1, 2]",
    "bad_version": _set(version=2),
    **{f"missing_{key}": _drop(key) for key in (
        "v", "n_train", "n_validation", "n_test", "label_names", "options", "seed",
        "ratios")},
    "v_string": _set(v="8"),
    "v_negative": _set(v=-1),
    "v_not_vocabulary_size": _set(v=3),
    "n_train_float": _set(n_train=8.0),
    "n_test_past_the_payload": _set(n_test=10_000),
    "label_names_not_list": _set(label_names="one two"),
    "label_names_not_strings": _set(label_names=[1, 2, 3]),
    "options_list": _set(options=[]),
    "seed_float": _set(seed=7.5),
    "seed_bool": _set(seed=True),
    "ratios_two": _set(ratios=[0.5, 0.5]),
    "ratios_strings": _set(ratios=["0.7", "0.15", "0.15"]),
    "huge_header_length": None,
}


class TestCorpusCache:
    def _corpus(self):
        texts = [
            "alpha bravo charlie delta echo",
            "bravo charlie delta echo foxtrot",
            "charlie delta echo foxtrot golf",
            "alpha charlie echo golf hotel",
        ] * 3
        labels = ["one", "two", "three"] * 4
        return build_corpus(texts, labels=labels, seed=7)

    def test_round_trip_bitwise(self, tmp_path):
        corpus = self._corpus()
        path = tmp_path / "corpus.bin"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.vocabulary.words == corpus.vocabulary.words
        assert np.array_equal(loaded.vocabulary.doc_frequency,
                              corpus.vocabulary.doc_frequency)
        assert loaded.sha256 == corpus.sha256
        assert loaded.split.label_names == corpus.split.label_names
        assert loaded.split.k_gold == corpus.split.k_gold
        assert loaded.ratios == corpus.ratios
        for da, db in zip(corpus.split.all_documents(), loaded.split.all_documents()):
            assert np.array_equal(da.token_ids, db.token_ids)
            assert da.label == db.label
            assert np.array_equal(da.tfidf_ids, db.tfidf_ids)
            assert np.array_equal(da.tfidf_values, db.tfidf_values)

    def test_save_is_byte_deterministic(self, tmp_path):
        corpus = self._corpus()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_corpus(corpus, p1)
        save_corpus(self._corpus(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACORPUS")
        with pytest.raises(DataError, match="magic"):
            load_corpus(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(DataError, match="truncated"):
            load_corpus(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "nope.bin")

    def test_well_formed_rewrite_loads(self, tmp_path):
        """The malformed cases differ from this one only in the edit."""
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        rewrite_header(path, corpus_module._MAGIC, lambda h: h)
        assert load_corpus(path).sha256 == self._corpus().sha256

    @pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        rewrite_header(path, corpus_module._MAGIC, HEADER_EDITS[edit])
        with pytest.raises(DataError):
            load_corpus(path)

    def test_stale_k_gold_is_ignored(self, tmp_path):
        """Older caches stored k_gold in the header; the label count now
        comes from label_names alone."""
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        rewrite_header(path, corpus_module._MAGIC, _set(k_gold=99))
        assert load_corpus(path).split.k_gold == 3

    @pytest.mark.parametrize("old,new", [(b"bravo", b"\xffravo"), (b"bravo", b"alpha")],
                             ids=["not_utf8", "duplicate_word"])
    def test_malformed_vocabulary_is_data_error(self, tmp_path, old, new):
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(DataError):
            load_corpus(path)

    @pytest.mark.parametrize("where,value", [("token_ids", 9999), ("token_ids", -1)],
                             ids=["token_past_vocabulary", "token_negative"])
    def test_word_id_outside_vocabulary_is_data_error(self, tmp_path, where, value):
        corpus = self._corpus()
        assert len(corpus.vocabulary) == 8
        getattr(corpus.split.train[0], where)[0] = value
        path = tmp_path / "corpus.bin"
        save_corpus(corpus, path)
        with pytest.raises(DataError, match="outside"):
            load_corpus(path)

    @pytest.mark.parametrize("label", [3, 2 ** 31 + 5, 0xFFFFFFFE],
                             ids=["one_past_label_names", "past_int32", "largest_u32_label"])
    def test_label_outside_label_names_is_data_error(self, tmp_path, label):
        corpus = self._corpus()
        assert len(corpus.split.label_names) == 3
        corpus.split.train[0].label = label
        path = tmp_path / "corpus.bin"
        save_corpus(corpus, path)
        with pytest.raises(DataError, match="label"):
            load_corpus(path)

    def test_label_without_label_names_is_data_error(self, tmp_path):
        path = tmp_path / "corpus.bin"
        save_corpus(self._corpus(), path)
        rewrite_header(path, corpus_module._MAGIC, _set(label_names=None))
        with pytest.raises(DataError, match="label"):
            load_corpus(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "corpus.bin"
        corpus = self._corpus()
        save_corpus(corpus, path)
        before = path.read_bytes()
        corpus.split.train[0].label = 2 ** 32  # does not fit the <u4 label array
        with pytest.raises(OverflowError):
            save_corpus(corpus, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.bin"]

    def test_unwritable_path_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            save_corpus(self._corpus(), tmp_path / "missing" / "corpus.bin")

    def test_corpus_save_method_matches_function(self, tmp_path):
        corpus = self._corpus()
        p1, p2 = tmp_path / "m.bin", tmp_path / "f.bin"
        corpus.save(p1)
        save_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_corpus(p1).sha256 == corpus.sha256


class TestDocument:
    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(ContractError):
            Vocabulary(words=["aa", "aa"], doc_frequency=np.array([1, 1]))


words_strategy = st.lists(
    st.text(alphabet="abcdefg", min_size=3, max_size=6),
    min_size=1, max_size=8,
)


@given(st.lists(words_strategy, min_size=1, max_size=10), st.integers(0, 2 ** 31 - 1))
def test_cache_round_trip_property(token_docs, seed):
    texts = [" ".join(tokens) for tokens in token_docs]
    try:
        corpus = build_corpus(
            texts, options=PreprocessOptions(lemmatize=False, min_doc_len=1), seed=seed
        )
    except DataError:
        return  # everything filtered out, nothing to round-trip
    import io
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
        save_corpus(corpus, fh.name)
        loaded = load_corpus(fh.name)
    assert loaded.sha256 == corpus.sha256


@given(st.integers(4, 60), st.integers(0, 100))
def test_split_sizes_floor_rule(n, seed):
    docs = [make_document([i]) for i in range(n)]
    split = split_corpus(docs, seed=seed)
    assert split.sizes[1] == int(np.floor(0.15 * n))
    assert split.sizes[2] == int(np.floor(0.15 * n))
    assert split.sizes[0] == n - split.sizes[1] - split.sizes[2]
