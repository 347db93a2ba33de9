"""Coherence and diversity metrics against brute-force oracles and hand values."""
import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginopic.corpus import CorpusColumns, PreprocessOptions, build_corpus
from ginopic.errors import ConfigError, ContractError, DataError
from ginopic.metrics import (
    CV_WINDOW,
    NPMI_WINDOW,
    CooccurrenceStats,
    build_cooccurrence,
    cv,
    evaluate_topics,
    irbo,
    load_topics,
    npmi,
    npmi_pair,
    rbo,
    save_topics,
    token_documents,
    validate_topics,
    wi_c,
    wi_m,
    write_metrics_report,
)
from ginopic.synthetic import labeled_text_corpus

from conftest import make_document, make_embeddings, make_vocabulary


def brute_force_stats(docs, window_size):
    """Oracle: materialize every window as a set, count presence directly."""
    windows = []
    for tokens in docs:
        if not tokens:
            continue
        n_win = max(1, len(tokens) - window_size + 1)
        for start in range(n_win):
            windows.append(set(tokens[start:start + window_size]))
    words, pairs = Counter(), Counter()
    for w in windows:
        for a in w:
            words[a] += 1
        for a in w:
            for b in w:
                if a < b:
                    pairs[(a, b)] += 1
    return len(windows), words, pairs


def loop_build_cooccurrence(token_documents, window_size):
    """The per-window pair loop `build_cooccurrence` replaced, kept as the
    reference: (n_windows, word_counts, pair_counts)."""
    n_windows, word_counts, pair_counts = 0, Counter(), Counter()
    for tokens in token_documents:
        if not tokens:
            continue
        n_win = max(1, len(tokens) - window_size + 1)
        n_windows += n_win
        for start in range(n_win):
            present = sorted(set(tokens[start:start + window_size]))
            for word in present:
                word_counts[word] += 1
            for pair in combinations(present, 2):
                pair_counts[pair] += 1
    return n_windows, word_counts, pair_counts


def tiny_desk_train_tokens():
    texts, labels, _ = labeled_text_corpus(seed=0, n_docs=96, class_words=20,
                                           shared_words=60)
    corpus = build_corpus(texts, labels, PreprocessOptions())
    return token_documents(corpus.split.train, corpus.vocabulary)


def _ramp(n):
    return [f"w{i % 7}" for i in range(n)]


LOOP_CASES = {
    "empty_docs_interleaved": ([], "aa bb cc aa".split(), [], "dd aa".split(), []),
    "window_minus_one": (_ramp(4),),
    "window_exactly": (_ramp(5),),
    "window_plus_one": (_ramp(6),),
    "mixed_lengths": (_ramp(4), _ramp(5), _ramp(6), _ramp(17), ["zz"]),
    "around_cv_window": (_ramp(CV_WINDOW - 1), _ramp(CV_WINDOW), _ramp(CV_WINDOW + 1)),
    "one_word_fills_window": (["aa"] * 5, ["aa"] * 9 + ["bb"]),
    "non_ascii": ("café naïve 東京 café ñu 東京 zoë".split(), "ñu zoë".split()),
}


class TestMatchesLoop:
    """Exact equality with the per-window loop, counts and their types."""

    @staticmethod
    def assert_matches_loop(docs, window_size):
        stats = build_cooccurrence(docs, window_size)
        n_windows, word_counts, pair_counts = loop_build_cooccurrence(docs, window_size)
        assert stats.n_windows == n_windows
        assert stats.word_counts == word_counts
        assert stats.pair_counts == pair_counts
        assert all(a < b for a, b in stats.pair_counts)
        counts = list(stats.word_counts.values()) + list(stats.pair_counts.values())
        assert all(type(c) is int for c in counts)
        return stats

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_edge_cases(self, case):
        for window_size in (1, 2, 5, NPMI_WINDOW, CV_WINDOW):
            self.assert_matches_loop(LOOP_CASES[case], window_size)

    def test_window_one_has_no_pairs(self):
        stats = self.assert_matches_loop(LOOP_CASES["mixed_lengths"], 1)
        assert stats.pair_counts == Counter()
        assert stats.n_windows == 4 + 5 + 6 + 17 + 1

    def test_generator_input(self):
        docs = LOOP_CASES["mixed_lengths"]
        stats = build_cooccurrence((list(d) for d in docs), 5)
        assert stats.pair_counts == loop_build_cooccurrence(docs, 5)[2]

    @pytest.mark.parametrize("window_size", [NPMI_WINDOW, CV_WINDOW])
    def test_tiny_desk_corpus(self, window_size):
        docs = tiny_desk_train_tokens()
        stats = self.assert_matches_loop(docs, window_size)
        assert len(stats.pair_counts) > 1000


class TestCooccurrence:
    def test_matches_brute_force(self):
        docs = [
            "aa bb cc aa dd".split(),
            "bb bb".split(),
            "ee".split(),
            [],
            "aa cc aa cc aa cc dd".split(),
        ]
        for ws in (1, 2, 3, 10):
            stats = build_cooccurrence(docs, ws)
            n_win, words, pairs = brute_force_stats(docs, ws)
            assert stats.n_windows == n_win
            assert stats.word_counts == words
            assert stats.pair_counts == pairs

    def test_short_document_is_one_window(self):
        stats = build_cooccurrence([["aa", "bb"]], window_size=10)
        assert stats.n_windows == 1
        assert stats.p_word("aa") == 1.0
        assert stats.p_pair("aa", "bb") == 1.0

    def test_window_count_for_long_document(self):
        stats = build_cooccurrence([["x"] * 12], window_size=10)
        assert stats.n_windows == 3  # 12 - 10 + 1

    def test_presence_is_boolean(self):
        # repeats inside one window count once
        stats = build_cooccurrence([["aa", "aa", "aa"]], window_size=10)
        assert stats.word_counts["aa"] == 1

    def test_self_pair_reduces_to_word_probability(self):
        stats = build_cooccurrence([["aa", "bb"], ["cc"]], window_size=10)
        assert stats.p_pair("aa", "aa") == stats.p_word("aa")

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_cooccurrence([])
        with pytest.raises(DataError):
            build_cooccurrence([[], []])

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            build_cooccurrence([["aa"]], window_size=0)


@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=0, max_size=12),
        min_size=1, max_size=8,
    ),
    st.integers(1, 12),
)
@settings(max_examples=40)
def test_cooccurrence_property_matches_oracle(docs, ws):
    n_win, words, pairs = brute_force_stats(docs, ws)
    if n_win == 0:
        with pytest.raises(DataError):
            build_cooccurrence(docs, ws)
        return
    stats = build_cooccurrence(docs, ws)
    assert (stats.n_windows, stats.word_counts, stats.pair_counts) == (
        n_win, words, pairs
    )


@given(
    st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"]), min_size=1,
                 max_size=15),
        min_size=1, max_size=6,
    ),
    st.integers(1, 12),
)
@settings(max_examples=40)
def test_pair_counts_view_matches_loop(docs, ws):
    """The sparse pair view behaves as the loop's Counter of (a, b), a < b."""
    pairs = build_cooccurrence(docs, ws).pair_counts
    want = loop_build_cooccurrence(docs, ws)[2]
    keys = list(pairs)
    assert len(pairs) == len(want) == len(keys)
    assert keys == sorted(want) and all(a < b for a, b in keys)
    assert list(pairs.values()) == [want[k] for k in keys]
    assert all(type(v) is int for v in pairs.values())
    assert list(pairs.items()) == [(k, want[k]) for k in keys]
    assert len(pairs.items()) == len(pairs.values()) == len(want)
    for (a, b), count in want.items():
        assert (a, b) in pairs and pairs[(a, b)] == pairs.get((a, b)) == count
        assert (b, a) not in pairs and pairs.get((b, a), -1) == -1
    present = sorted({w for doc in docs for w in doc})
    for a in present:
        assert (a, a) not in pairs and pairs.get((a, a)) is None
        assert pairs.get((a, "zz")) is None and pairs.get(("a0", a), 0) == 0
    for key in ("aa", ("aa",), ("aa", "bb", "cc")):
        assert key not in pairs
    with pytest.raises(KeyError):
        pairs[("zz", "zzz")]


def test_pair_counts_hold_no_object_per_pair():
    """The pair counts stay a view of the sparse product: a few bytes per
    distinct pair, where a dict of (word, word) tuples holds about 90."""
    gen = np.random.default_rng(0)
    words = [f"w{i:04d}" for i in range(600)]
    docs = [[words[i] for i in gen.integers(0, len(words), size=1000)] for _ in range(6)]
    tracemalloc.start()
    try:
        stats = build_cooccurrence(docs, CV_WINDOW)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stats.pair_counts) > 100_000
    assert held < 16 * len(stats.pair_counts)


class TestNpmi:
    def test_always_cooccurring_pair_scores_one(self):
        docs = [["aa", "bb"], ["cc", "dd"]]
        stats = build_cooccurrence(docs, 10)
        assert npmi_pair(stats, "aa", "bb") == pytest.approx(1.0, abs=1e-9)

    def test_present_but_never_together_is_strongly_negative(self):
        docs = [["aa", "bb"], ["cc", "dd"]]
        stats = build_cooccurrence(docs, 10)
        value = npmi_pair(stats, "aa", "cc")
        assert value < -0.9
        assert value > -1.0

    def test_absent_word_scores_exactly_minus_one(self):
        stats = build_cooccurrence([["aa", "bb"]], 10)
        assert npmi_pair(stats, "aa", "zz") == -1.0
        assert npmi_pair(stats, "zz", "qq") == -1.0

    def test_independent_words_score_near_zero(self):
        # p(a) = p(b) = 1/2, p(a,b) = 1/4 over four windows
        docs = [["aa", "bb"], ["aa"], ["bb"], ["cc"]]
        stats = build_cooccurrence(docs, 10)
        assert npmi_pair(stats, "aa", "bb") == pytest.approx(0.0, abs=1e-9)

    def test_symmetric(self):
        docs = [["aa", "bb", "cc"], ["aa", "cc"], ["bb"]]
        stats = build_cooccurrence(docs, 10)
        assert npmi_pair(stats, "aa", "bb") == npmi_pair(stats, "bb", "aa")

    def test_hand_value(self):
        # 4 windows, p(a) = 3/4, p(b) = 1/2, joint = 1/2
        docs = [["aa", "bb"], ["aa", "bb"], ["aa"], ["cc"]]
        stats = build_cooccurrence(docs, 10)
        eps = 1e-12
        expected = math.log((0.5 + eps) / (0.75 * 0.5)) / -math.log(0.5 + eps)
        assert npmi_pair(stats, "aa", "bb") == pytest.approx(expected, abs=1e-15)

    def test_topic_mean_over_pairs(self):
        docs = [["aa", "bb", "cc"], ["aa", "bb"], ["dd"]]
        stats = build_cooccurrence(docs, 10)
        expected = np.mean([
            npmi_pair(stats, "aa", "bb"),
            npmi_pair(stats, "aa", "cc"),
            npmi_pair(stats, "bb", "cc"),
        ])
        assert npmi(["aa", "bb", "cc"], stats) == pytest.approx(expected)

    def test_topic_needs_two_words(self):
        stats = build_cooccurrence([["aa"]], 10)
        with pytest.raises(ContractError):
            npmi(["aa"], stats)


@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=10),
        min_size=1, max_size=6,
    )
)
@settings(max_examples=40)
def test_npmi_bounded(docs):
    stats = build_cooccurrence(docs, 5)
    for a in "abcd":
        for b in "abcd":
            if a == b:
                continue
            v = npmi_pair(stats, a, b)
            assert -1.0 <= v <= 1.0 + 1e-9


class TestCv:
    def test_perfectly_coherent_topic_scores_one(self):
        docs = [["xx", "yy", "zz"]] * 3 + [["qq"]]
        stats = build_cooccurrence(docs, CV_WINDOW)
        assert cv(["xx", "yy", "zz"], stats) == pytest.approx(1.0, abs=1e-9)

    def test_hand_value_from_synthetic_stats(self):
        # independent pair: diagonal NPMI 1, off-diagonal ~0, so each row is
        # ~[1, 0] against the aggregate [1, 1]: cosine 1/sqrt(2)
        stats = CooccurrenceStats(window_size=10, n_windows=4)
        stats.word_counts.update({"aa": 2, "bb": 2})
        stats.pair_counts[("aa", "bb")] = 1
        assert cv(["aa", "bb"], stats) == pytest.approx(1.0 / math.sqrt(2.0),
                                                        abs=1e-6)

    def test_coherent_beats_incoherent(self):
        docs = [["aa", "bb"]] * 6 + [["cc"], ["dd"], ["cc"], ["dd"]]
        stats = build_cooccurrence(docs, CV_WINDOW)
        assert cv(["aa", "bb"], stats) > cv(["cc", "dd"], stats)

    def test_needs_two_words(self):
        stats = build_cooccurrence([["aa"]], 10)
        with pytest.raises(ContractError):
            cv(["aa"], stats)


class TestRbo:
    def test_identical_lists_exactly_one(self):
        assert rbo(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_disjoint_lists_exactly_zero(self):
        assert rbo(["a", "b"], ["x", "y"]) == 0.0

    def test_swap_hand_value(self):
        # depth 2, p = 0.9: (1*0 + 0.9*1) / (1 + 0.9) = 9/19
        value = rbo(["x", "y"], ["y", "x"], p=0.9)
        assert value == pytest.approx(9.0 / 19.0, abs=1e-12)
        assert abs(value - 0.47368421052631576) < 1e-6

    def test_depth_truncation(self):
        # at depth 1 only the first elements matter
        assert rbo(["a", "b"], ["a", "z"], depth=1) == 1.0
        assert rbo(["a", "b"], ["z", "a"], depth=1) == 0.0

    def test_symmetric(self):
        a, b = ["a", "b", "c", "d"], ["b", "e", "a", "f"]
        assert rbo(a, b) == rbo(b, a)

    def test_more_shared_prefix_scores_higher(self):
        base = ["w1", "w2", "w3", "w4"]
        scores = []
        for m in range(5):
            other = base[:m] + [f"z{i}" for i in range(4 - m)]
            scores.append(rbo(base, other))
        assert scores == sorted(scores)
        assert scores[-1] == 1.0

    def test_top_ranks_weigh_more(self):
        # sharing the first element beats sharing the last
        top = rbo(["a", "x", "y"], ["a", "p", "q"])
        bottom = rbo(["x", "y", "a"], ["p", "q", "a"])
        assert top > bottom

    def test_validation(self):
        with pytest.raises(ConfigError):
            rbo(["a"], ["a"], p=1.0)
        with pytest.raises(ConfigError):
            rbo(["a"], ["a"], p=0.0)
        with pytest.raises(ContractError):
            rbo(["a"], ["a", "b"], depth=2)
        with pytest.raises(ContractError):
            rbo(["a"], ["a"], depth=0)


class TestIrbo:
    def test_identical_topics_score_zero(self):
        assert irbo([["a", "b"], ["a", "b"]]) == 0.0

    def test_disjoint_topics_score_one(self):
        assert irbo([["a", "b"], ["c", "d"], ["e", "f"]]) == 1.0

    def test_permutation_invariant(self):
        topics = [["a", "b", "c"], ["b", "d", "e"], ["f", "g", "a"]]
        assert irbo(topics) == pytest.approx(irbo(topics[::-1]), abs=1e-12)

    def test_overlap_at_top_penalized_more(self):
        shared_top = irbo([["a", "x", "y"], ["a", "p", "q"]])
        shared_bottom = irbo([["x", "y", "a"], ["p", "q", "a"]])
        assert shared_top < shared_bottom

    def test_validation(self):
        with pytest.raises(ContractError):
            irbo([["a", "b"]])
        with pytest.raises(ContractError):
            irbo([["a", "b"], ["c"]])
        with pytest.raises(ContractError):
            irbo([["a", "a"], ["b", "c"]])
        validate_topics([["a", "b"], ["c", "d"]])  # no exception


class TestEmbeddingDiversity:
    def _emb(self, table):
        words = sorted(table)
        vocab = make_vocabulary(words)
        return make_embeddings(vocab, np.array([table[w] for w in words]))

    def test_identical_topics_score_zero(self):
        emb = self._emb({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        topics = [["a", "b"], ["a", "b"]]
        assert wi_c(topics, emb) == pytest.approx(0.0, abs=1e-7)
        assert wi_m(topics, emb) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_topics_score_one(self):
        emb = self._emb({
            "a": [1.0, 0.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0, 0.0],
            "c": [0.0, 0.0, 1.0, 0.0], "d": [0.0, 0.0, 0.0, 1.0],
        })
        topics = [["a", "b"], ["c", "d"]]
        assert wi_c(topics, emb) == pytest.approx(1.0, abs=1e-7)
        assert wi_m(topics, emb) == pytest.approx(1.0, abs=1e-7)

    def test_metrics_disagree_on_shared_span(self):
        # both topics span the same two directions, so their centroids agree
        # (wi_c = 0) and best matches are perfect (wi_m = 0); after rotating
        # one topic 45 degrees the centroid still agrees but matches drop
        emb = self._emb({
            "a": [1.0, 0.0], "b": [0.0, 1.0],
            "c": [math.sqrt(0.5), math.sqrt(0.5)],
            "d": [-math.sqrt(0.5), math.sqrt(0.5)],
        })
        same_span = [["a", "b"], ["a", "b"]]
        rotated = [["a", "b"], ["c", "d"]]
        assert wi_m(same_span, emb) == pytest.approx(0.0, abs=1e-7)
        assert wi_m(rotated, emb) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-6)

    def test_single_word_topics_hand_value(self):
        emb = self._emb({"a": [1.0, 0.0], "b": [1.0, 1.0]})
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert wi_c([["a"], ["b"]], emb) == pytest.approx(expected, abs=1e-6)
        assert wi_m([["a"], ["b"]], emb) == pytest.approx(expected, abs=1e-6)

    def test_missing_word_rejected(self):
        emb = self._emb({"a": [1.0], "b": [1.0]})
        with pytest.raises(ContractError, match="no embedding"):
            wi_c([["a", "b"], ["a", "zz"]], emb)

    def test_zero_vector_safe(self):
        emb = self._emb({"a": [0.0, 0.0], "b": [1.0, 0.0]})
        value = wi_m([["a"], ["b"]], emb)
        assert np.isfinite(value)


class TestOrchestration:
    def test_token_documents_back_maps_ids(self):
        vocab = make_vocabulary(["aa", "bb", "cc"])
        docs = CorpusColumns.pack([make_document([2, 0, 2]), make_document([]),
                                   make_document([1])])
        assert token_documents(docs, vocab) == [["cc", "aa", "cc"], [], ["bb"]]

    def test_evaluate_topics_keys_and_means(self):
        docs = [["aa", "bb", "cc", "dd"]] * 5 + [["ee", "ff"]] * 5
        topics = [["aa", "bb"], ["ee", "ff"]]
        out = evaluate_topics(topics, docs)
        assert set(out) == {"npmi", "cv", "irbo", "npmi_per_topic", "cv_per_topic"}
        assert out["npmi"] == pytest.approx(np.mean(out["npmi_per_topic"]))
        assert out["cv"] == pytest.approx(np.mean(out["cv_per_topic"]))
        assert len(out["npmi_per_topic"]) == 2

    def test_evaluate_topics_with_embeddings(self):
        vocab = make_vocabulary(["aa", "bb", "cc", "dd"])
        emb = make_embeddings(vocab, np.eye(4))
        docs = [["aa", "bb"], ["cc", "dd"]]
        out = evaluate_topics([["aa", "bb"], ["cc", "dd"]], docs, embeddings=emb)
        assert out["wi_c"] == pytest.approx(1.0)
        assert out["wi_m"] == pytest.approx(1.0)

    def test_evaluate_topics_without_reference(self):
        vocab = make_vocabulary(["aa", "bb", "cc", "dd"])
        emb = make_embeddings(vocab, np.eye(4))
        topics = [["aa", "bb"], ["bb", "aa"]]
        assert set(evaluate_topics(topics)) == {"irbo"}
        assert set(evaluate_topics(topics, embeddings=emb)) == {"irbo", "wi_c", "wi_m"}
        assert evaluate_topics(topics, p=0.5)["irbo"] == irbo(topics, 0.5) != irbo(topics)

    def test_evaluate_topics_uses_both_windows(self):
        docs = [[f"w{i}" for i in range(40)], ["w0", "w39"]]
        topics = [["w0", "w39"], ["w1", "w2"]]
        out = evaluate_topics(topics, docs)
        assert out["npmi_per_topic"] == [npmi(t, build_cooccurrence(docs, NPMI_WINDOW))
                                         for t in topics]
        assert out["cv_per_topic"] == [cv(t, build_cooccurrence(docs, CV_WINDOW))
                                       for t in topics]

    def test_save_load_topics_round_trip(self, tmp_path):
        topics = [["aa", "bb", "cc"], ["dd", "ee", "ff"]]
        path = tmp_path / "topics.txt"
        save_topics(topics, path)
        assert path.read_text() == "aa bb cc\ndd ee ff\n"
        assert load_topics(path) == topics

    def test_empty_topics_file(self, tmp_path):
        path = tmp_path / "topics.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty"):
            load_topics(path)

    def test_metrics_report_format(self, tmp_path):
        metrics = {"npmi": 0.123456789123, "irbo": 1.0, "cv_per_topic": [0.5, 0.7]}
        tsv, js = tmp_path / "m.tsv", tmp_path / "m.json"
        write_metrics_report(metrics, tsv, js)
        lines = tsv.read_text().strip().split("\n")
        assert lines[0] == "metric\tvalue"
        # scalars only, sorted by name
        assert [l.split("\t")[0] for l in lines[1:]] == ["irbo", "npmi"]
        assert float(lines[2].split("\t")[1]) == pytest.approx(0.123456789123)
        import json
        full = json.loads(js.read_text())
        assert full["cv_per_topic"] == [0.5, 0.7]
