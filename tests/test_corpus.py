"""Preprocessing, tf-idf weighting, splitting, the corpus columns and hash,
and the corpus cache format."""
import hashlib
import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginopic import corpus as corpus_module
from ginopic.corpus import (
    CorpusColumns,
    Document,
    PreprocessOptions,
    Vocabulary,
    assemble_corpus,
    build_corpus,
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

from conftest import make_corpus, make_document, make_vocabulary, rewrite_header


def pack(token_docs, labels=None, idf=None):
    """Columns of documents given as token id lists (and labels)."""
    labels = labels or [None] * len(token_docs)
    return CorpusColumns.pack([make_document(ids, lab) for ids, lab in zip(token_docs, labels)],
                              idf)


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


def loop_tokenize(text, options):
    """The per-token rule of `tokenize`, kept as the reference: lemmatize
    each form, then drop stopword lemmas, then lemmas shorter than
    `min_word_len`."""
    tokens = re.findall(r"[a-z]+", text.lower())
    if options.lemmatize:
        tokens = [lemmatize(t) for t in tokens]
    if options.stopwords:
        tokens = [t for t in tokens if t not in options.stopwords]
    return [t for t in tokens if len(t) >= options.min_word_len]


def loop_preprocess(raw_documents, options):
    """The per-document loop `preprocess` replaced, kept as the reference:
    (words, token id list per kept document, kept indices), or the
    DataError message when nothing survives."""
    tokenized = [loop_tokenize(text, options) for text in raw_documents]
    freq = Counter(t for tokens in tokenized for t in tokens)
    if not freq:
        return "empty corpus: no tokens survive preprocessing"
    words = sorted(freq, key=lambda w: (-freq[w], w))[: options.max_vocab]
    word_to_id = {w: i for i, w in enumerate(words)}
    documents, kept = [], []
    for pos, tokens in enumerate(tokenized):
        ids = [word_to_id[t] for t in tokens if t in word_to_id]
        if len(ids) >= options.min_doc_len:
            documents.append(ids)
            kept.append(pos)
    if not documents:
        return "empty corpus: every document fell below min_doc_len"
    return words, documents, kept


# forms the lemmatizer changes (flies -> fly, studies -> study), a lemma
# that is a stopword when its form is not, and short words
_FORMS = ["Flies", "flies", "FLY", "fly", "studies", "Studying", "study", "cats", "Cat",
          "the", "THE", "ox", "a", "zebra", "Zebras", "men"]
_SEPARATORS = [" ", "  ", "-", "!", ", ", "22", "3.5", "\t", "'"]
_texts = st.lists(st.lists(st.tuples(st.sampled_from(_FORMS), st.sampled_from(_SEPARATORS)),
                           max_size=12).map(lambda parts: "".join(f + s for f, s in parts)),
                  min_size=1, max_size=8)
_options = st.builds(PreprocessOptions, max_vocab=st.integers(1, 8),
                     min_word_len=st.integers(1, 4), min_doc_len=st.integers(1, 5),
                     lemmatize=st.booleans(),
                     stopwords=st.sampled_from([None, frozenset({"fly"}),
                                                frozenset({"fly", "the", "cat"})]))


@given(_texts, _options)
@example(["flies FLY fly", "Flies cats", "studies"], PreprocessOptions(
    stopwords=frozenset({"fly"}), min_doc_len=1))
@example(["cat zebra the", "zebra, cat; THE", "ox"], PreprocessOptions(
    max_vocab=2, lemmatize=False, min_word_len=2, min_doc_len=1))
@example(["cat zebra cat zebra cat", "cat", "zebra ox", "", "22 !"], PreprocessOptions(
    min_word_len=2, min_doc_len=4))
@settings(max_examples=200, deadline=None)
def test_one_pass_equals_per_document_loop(texts, options):
    """Words, token ids, pointers and kept indices of the one-pass
    `preprocess` equal the per-document loop's, and `tokenize` equals the
    per-token rule on every text."""
    for text in texts:
        assert tokenize(text, options) == loop_tokenize(text, options)
    want = loop_preprocess(texts, options)
    if isinstance(want, str):
        with pytest.raises(DataError, match=want):
            preprocess(texts, options)
        return
    words, documents, kept = preprocess(texts, options)
    want_words, want_docs, want_kept = want
    assert (words, kept) == (want_words, want_kept)
    packed = pack(want_docs)
    for name in ("token_ptr", "token_ids", "labels"):
        x, y = getattr(documents, name), getattr(packed, name)
        assert (name, x.dtype, x.tolist()) == (name, y.dtype, y.tolist())


class TestTfidf:
    def test_hand_value(self):
        # N=10 docs, df=1, count=2: 2 * (ln(11/2) + 1) = 5.409496184476851
        docs = [make_document([0, 0])] + [make_document([1]) for _ in range(9)]
        corpus = make_corpus(make_vocabulary(["aa", "bb"]), train=docs)
        assert len(corpus.split.train) == 10
        value = tfidf_dense(corpus.split.train, 2, np.float64)[0, 0]
        assert value == pytest.approx(2.0 * (math.log(11.0 / 2.0) + 1.0), abs=1e-12)
        assert value == pytest.approx(5.409496184476851, abs=1e-12)

    def test_train_fit_idf_applied_to_heldout(self):
        train = [make_document([0, 1]), make_document([0])]
        test = [make_document([1, 1, 1])]
        corpus = make_corpus(make_vocabulary(["aa", "bb"]), train=train, test=test)
        # word 1 has train df=1, so idf = ln(3/2)+1 regardless of test usage
        assert tfidf_dense(corpus.split.test, 2, np.float64)[0, 1] == \
            pytest.approx(3.0 * (math.log(1.5) + 1.0))

    def test_word_absent_from_train_stays_finite(self):
        train = [make_document([0]), make_document([0])]
        idf = make_corpus(make_vocabulary(["aa", "bb"]), train=train).split.train.idf
        assert idf[1] == pytest.approx(math.log(3.0) + 1.0)
        assert np.all(np.isfinite(idf)) and np.all(idf > 0)

    def test_tfidf_dense_layout(self):
        dense = tfidf_dense(pack([[0, 2, 2]], idf=np.ones(3)), 3)
        assert dense.shape == (1, 3)
        assert dense[0].tolist() == [1.0, 0.0, 2.0]

    @pytest.mark.parametrize("token", [-1, 3], ids=["negative", "vocabulary_size"])
    def test_token_id_outside_vocabulary_is_contract_error(self, token):
        """-1 would wrap to the last word and 3 would alias into the next
        document's key; both are refused before any weight is computed."""
        docs = pack([[0, token], [1, 2]], idf=np.ones(3))
        with pytest.raises(ContractError, match="outside"):
            word_counts(docs, 3)
        with pytest.raises(ContractError, match="outside"):
            tfidf_dense(docs, 3)


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
    """Idf and document frequencies from the one `word_counts` pass, and the
    `tfidf_dense` rows, equal the per-document loop bit for bit, when built
    and after a save and load."""
    token_docs, v, ratios = WEIGHT_CASES[case]
    words = [f"w{i}" for i in range(v)]
    corpus = assemble_corpus(words, pack(token_docs), ratios=ratios, seed=3)
    entries, idf, df = loop_compute_tfidf(corpus.split, v)
    if case.endswith("absent_from_train"):
        assert (idf == np.log(1.0 + len(corpus.split.train)) + 1.0).sum() == 2
    want = np.zeros((len(entries), v))
    for r, (ids, values) in enumerate(entries):
        want[r, ids] = values
    save_corpus(corpus, tmp_path / "corpus.bin")
    for built in (corpus, load_corpus(tmp_path / "corpus.bin")):
        _assert_bitwise(built.vocabulary.doc_frequency, df)
        for part in (built.split.train, built.split.test, built.split.documents):
            _assert_bitwise(part.idf, idf)
        docs = built.split.documents
        _assert_bitwise(tfidf_dense(docs, v, np.float64), want)
        _assert_bitwise(tfidf_dense(docs, v), want.astype(np.float32))
        # a batch of documents in any order gets the same rows
        order = np.arange(len(docs))[::-2]
        _assert_bitwise(tfidf_dense(docs[order], v, np.float64), want[order])


class TestSplit:
    def test_ten_documents_default_ratios_split_8_1_1(self):
        split = split_corpus(pack([[i] for i in range(10)]), seed=0)
        assert split.sizes == (8, 1, 1)

    def test_sizes_exhaustive_and_disjoint(self):
        split = split_corpus(pack([[i] for i in range(23)]), ratios=(0.6, 0.2, 0.2), seed=1)
        assert sum(split.sizes) == 23
        seen = {int(d.token_ids[0]) for d in split.all_documents()}
        assert seen == set(range(23))

    def test_same_seed_same_split(self):
        docs = pack([[i] for i in range(20)])
        a = split_corpus(docs, seed=5)
        b = split_corpus(docs, seed=5)
        assert [d.token_ids[0] for d in a.train] == [d.token_ids[0] for d in b.train]

    def test_different_seed_different_split(self):
        docs = pack([[i] for i in range(50)])
        a = split_corpus(docs, seed=0)
        b = split_corpus(docs, seed=1)
        assert [int(d.token_ids[0]) for d in a.train] != [int(d.token_ids[0]) for d in b.train]

    def test_bad_ratios(self):
        docs = pack([[0]])
        with pytest.raises(ConfigError):
            split_corpus(docs, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            split_corpus(docs, ratios=(1.2, -0.1, -0.1))

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            split_corpus(pack([]))


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
        assert corpus.split.documents.idf.shape == (len(corpus.vocabulary),)

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
        for da, db in zip(corpus.split.all_documents(), loaded.split.all_documents(),
                          strict=True):
            assert np.array_equal(da.token_ids, db.token_ids)
            assert da.label == db.label
        assert np.array_equal(loaded.split.documents.idf, corpus.split.documents.idf)
        v = len(corpus.vocabulary)
        assert np.array_equal(tfidf_dense(loaded.split.documents, v),
                              tfidf_dense(corpus.split.documents, v))

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

    @pytest.mark.parametrize("value", [9999, -1], ids=["token_past_vocabulary", "token_negative"])
    def test_word_id_outside_vocabulary_is_data_error(self, tmp_path, value):
        corpus = self._corpus()
        assert len(corpus.vocabulary) == 8
        corpus.split.documents.token_ids[0] = value  # the first token of train document 0
        path = tmp_path / "corpus.bin"
        save_corpus(corpus, path)
        with pytest.raises(DataError, match="outside"):
            load_corpus(path)

    @pytest.mark.parametrize("label", [3, 2 ** 31 + 5, 0xFFFFFFFE],
                             ids=["one_past_label_names", "past_int32", "largest_u32_label"])
    def test_label_outside_label_names_is_data_error(self, tmp_path, label):
        corpus = self._corpus()
        assert len(corpus.split.label_names) == 3
        # the <u4 label the cache stores for train document 0
        corpus.split.documents.labels.view(np.uint32)[0] = label
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
        corpus.vocabulary.words[0] = "\ud800"  # a lone surrogate has no UTF-8 encoding
        with pytest.raises(UnicodeEncodeError):
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
    split = split_corpus(pack([[i] for i in range(n)]), seed=seed)
    assert split.sizes[1] == int(np.floor(0.15 * n))
    assert split.sizes[2] == int(np.floor(0.15 * n))
    assert split.sizes[0] == n - split.sizes[1] - split.sizes[2]


def loop_sha256(corpus) -> str:
    """The per-document reference for `Corpus.sha256`: the vocabulary, then
    each document's `<i4` tokens followed by its `<i4` label (-1: none)."""
    h = hashlib.sha256()
    h.update("\n".join(corpus.vocabulary.words).encode("utf-8"))
    for doc in corpus.split.all_documents():
        h.update(doc.token_ids.astype("<i4").tobytes())
        h.update(struct.pack("<i", -1 if doc.label is None else doc.label))
    return h.hexdigest()


def _random_split(seed: int):
    """(train, validation, test) Document lists with zero-length documents,
    unlabeled ones and, for some seeds, empty validation and test splits."""
    rng = stream(seed, "test/sha256")
    n = int(rng.integers(1, 40))
    docs = [make_document(rng.integers(0, 9, size=int(rng.integers(0, 5))),
                          None if lab < 0 else int(lab))
            for lab in rng.integers(-1, 3, size=n)]
    a, b = sorted(rng.integers(0, n + 1, size=2)) if seed % 2 else (n, n)
    return docs[:a], docs[a:b], docs[b:]


def _docs(*pairs) -> list:
    return [make_document(ids, label) for ids, label in pairs]


# name -> (train, validation, test) Document lists
HASH_CASES = {
    # zero-length documents first, last and in runs: their labels go in at
    # repeated positions of the token array, and must keep document order
    "zero_length_runs": (_docs(([], 0), ([], None), ([3], 1), ([], 2), ([], None)),
                         _docs(([], 1), ([4, 4], None)), _docs(([], 2), ([], 0))),
    "unlabeled_empty_validation_and_test": (_docs(([1, 2], None), ([0], None)), [], []),
    "one_document": (_docs(([5, 1, 5], 2)), [], []),
    **{f"random{seed}": _random_split(seed) for seed in range(8)},
}


@pytest.mark.parametrize("case", sorted(HASH_CASES))
def test_sha256_equals_per_document_loop(case, tmp_path):
    corpus = make_corpus(make_vocabulary([f"w{i}" for i in range(9)]), *HASH_CASES[case])
    corpus.split.label_names = ["a", "b", "c"]
    assert corpus.sha256 == loop_sha256(corpus)
    save_corpus(corpus, tmp_path / "corpus.bin")
    loaded = load_corpus(tmp_path / "corpus.bin")
    assert loaded.sha256 == loop_sha256(loaded) == corpus.sha256


def as_tuples(documents) -> list:
    return [(d.token_ids.dtype, d.token_ids.tolist(), type(d.label), d.label)
            for d in documents]


def test_columns_index_slice_mask_and_index_array():
    docs = [make_document(stream(k, "test/columns").integers(0, 9, size=k % 4),
                          None if k % 3 == 0 else k % 5) for k in range(11)]
    idf = np.linspace(1.0, 2.0, 9)
    columns = CorpusColumns.pack(docs, idf)
    assert len(columns) == len(docs)
    assert as_tuples(columns) == as_tuples(docs)
    assert columns.token_ptr.dtype == np.int64 and columns.token_ptr[0] == 0
    assert columns.token_ids.dtype == columns.labels.dtype == np.int32
    assert columns.labels.tolist() == [-1 if d.label is None else d.label for d in docs]
    assert as_tuples([columns[-1], columns[np.int64(1)]]) == as_tuples([docs[-1], docs[1]])
    with pytest.raises(IndexError):
        columns[len(docs)]
    assert len(CorpusColumns.pack([])) == 0
    for key in (slice(2, 9), slice(None, None, -2), slice(5, 2), [4, 0, 4, 1], np.array([2]),
                np.arange(len(docs)) % 2 == 0):
        part = columns[key]
        want = [docs[k] for k in np.arange(len(docs))[key]]
        assert as_tuples(part) == as_tuples(want)
        assert part.idf is idf and part.token_ptr[0] == 0
        packed = CorpusColumns.pack(want)
        for name in ("token_ptr", "token_ids", "labels"):
            x, y = getattr(part, name), getattr(packed, name)
            assert (name, x.dtype, x.tobytes()) == (name, y.dtype, y.tobytes())
