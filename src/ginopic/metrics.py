"""Intrinsic topic-quality metrics.

Coherence (NPMI, CV) is estimated from boolean sliding windows over a
tokenized reference corpus, conventionally the training split: a window of
`window_size` tokens slides with stride 1 (documents shorter than the window
contribute a single window), and a word "occurs" in a window if it appears at
least once.  NPMI uses window size 10 and CV uses 110, with smoothing
eps = 1e-12.

Diversity is measured three ways: IRBO (1 - mean pairwise rank-biased
overlap), and two embedding-based scores, wi_c (1 - mean pairwise cosine of
topic centroids) and wi_m (1 - mean best-match cosine over ordered topic
pairs).  The RBO here is the truncated, normalized variant: with prefix
overlap A_k = |top-k(a) & top-k(b)| / k,

    rbo = sum_k p^(k-1) A_k / sum_k p^(k-1)

which is exactly 1 for identical lists.  All functions are pure.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifact import atomic_write, read_text, write_tsv
from .embedding import EmbeddingMatrix, cosine_similarity
from .errors import ConfigError, ContractError, DataError

# scipy.sparse is imported inside the functions that use it: it takes about
# 0.2 s to import, which commands that compute no coherence skip
if TYPE_CHECKING:
    import scipy.sparse as sp

NPMI_WINDOW = 10
CV_WINDOW = 110
NPMI_EPS = 1e-12


@dataclass
class CooccurrenceStats:
    """Window-presence probabilities: p(w) and p(w_i, w_j) from boolean windows.

    `pair_counts` maps `(a, b)` with `a < b` to the number of windows holding
    both words.  `build_cooccurrence` fills it with a read-only view of the
    sparse product it counts with (`PairCounts`), not a dict of every pair.
    """

    window_size: int
    n_windows: int
    word_counts: Counter = field(default_factory=Counter)
    pair_counts: Mapping = field(default_factory=Counter)

    def p_word(self, word: str) -> float:
        return self.word_counts.get(word, 0) / self.n_windows

    def p_pair(self, a: str, b: str) -> float:
        """Joint presence probability; a word always co-occurs with itself."""
        if a == b:
            return self.p_word(a)
        key = (a, b) if a < b else (b, a)
        return self.pair_counts.get(key, 0) / self.n_windows


class PairCounts(Mapping):
    """Read-only `(a, b) -> count` view of the strict upper triangle of W.T @ W.

    `pairs` is that triangle as a CSR matrix over `words`, which are numbered
    in sorted order; with each row's columns sorted, key `(a, b)` with `a < b`
    is row `index[a]`, column `index[b]`, and row order is key order.  A lookup
    is one binary search within a row.  Keys, values and items are made from
    whole-array `tolist()` calls, so walking the view is O(nnz) and every
    count is a Python int.  A reversed pair, a pair of one word with itself
    and a word outside `words` are absent, as in a dict of the pairs.
    """

    def __init__(self, words: list, index: dict, pairs: sp.csr_matrix):
        pairs.sort_indices()
        self._words, self._index, self._pairs = words, index, pairs
        self._bounds = pairs.indptr.tolist()  # Python ints index faster

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(key)
        a, b = key
        if a not in self._index or b not in self._index:
            raise KeyError(key)
        row, col = self._index[a], self._index[b]
        lo, hi = self._bounds[row], self._bounds[row + 1]
        at = lo + int(self._pairs.indices[lo:hi].searchsorted(col))
        if at == hi or self._pairs.indices[at] != col:
            raise KeyError(key)
        return int(self._pairs.data[at])

    def __len__(self) -> int:
        return self._pairs.nnz

    def __iter__(self):
        rows = np.repeat(np.arange(self._pairs.shape[0]), np.diff(self._pairs.indptr))
        word = self._words.__getitem__
        return zip(map(word, rows.tolist()), map(word, self._pairs.indices.tolist()))

    def values(self):
        return _PairValues(self)

    def items(self):
        return _PairItems(self)


class _PairValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._pairs.data.tolist())


class _PairItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._pairs.data.tolist())


def build_cooccurrence(token_documents, window_size: int = NPMI_WINDOW) -> CooccurrenceStats:
    """Count boolean word and pair presence over all sliding windows.

    `token_documents` is an iterable of token lists (strings).  The windows
    become the rows of one boolean window x word presence matrix W (a word
    repeated inside a window is present once), with words numbered in sorted
    order so that id order is key order.  Every count is an entry of the
    integer product W.T @ W: its diagonal holds the word counts and its strict
    upper triangle the pair counts.  Integer sums do not depend on the order
    of accumulation, so the counts equal those of visiting window by window.
    The word counts are a Counter; the pair counts are a read-only view of
    the sparse upper triangle (`PairCounts`), so no Python object is made
    per pair.
    """
    if window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {window_size}")
    import scipy.sparse as sp

    words, index, presence = _window_presence(token_documents, window_size)
    counts = presence.T @ presence
    pairs = PairCounts(words, index, sp.triu(counts, k=1, format="csr"))
    stats = CooccurrenceStats(window_size=window_size, n_windows=presence.shape[0],
                              pair_counts=pairs)
    # dict.update fills a Counter without adding to (or copying) anything
    dict.update(stats.word_counts, zip(words, counts.diagonal().tolist()))
    return stats


def _window_presence(token_documents, window_size: int):
    """(sorted distinct words, word -> id, boolean int32 CSR of windows x words).

    A document of length L >= window_size has the L - window_size + 1 windows
    of `window_size` tokens that fit in it; a shorter non-empty document is a
    single window of all its tokens.  The row order does not matter to W.T @ W.
    """
    import scipy.sparse as sp

    docs = list(token_documents)
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    if not lengths.any():
        raise DataError("cannot build co-occurrence statistics from an empty corpus")
    tokens = list(chain.from_iterable(docs))
    words = sorted(set(tokens))
    index = {w: i for i, w in enumerate(words)}
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int32, count=len(tokens))
    # a position starts a full window if the window ends inside its document
    doc_end = np.repeat(np.cumsum(lengths), lengths)
    starts = np.flatnonzero(np.arange(ids.size) + window_size <= doc_end)
    full = (sliding_window_view(ids, window_size)[starts] if starts.size
            else np.empty((0, window_size), dtype=np.int32))
    short = lengths[(lengths > 0) & (lengths < window_size)]
    indices = np.concatenate([full.ravel(), ids[np.repeat(lengths < window_size, lengths)]])
    indptr = np.concatenate([np.arange(0, (starts.size + 1) * window_size, window_size),
                             starts.size * window_size + np.cumsum(short)])
    # counts never exceed the window count, so int32 holds them below 2**31 windows
    n_windows = starts.size + short.size
    count_type = np.int32 if n_windows <= np.iinfo(np.int32).max else np.int64
    presence = sp.csr_matrix((np.ones(indices.size, dtype=count_type), indices, indptr),
                             shape=(n_windows, len(words)))
    presence.sum_duplicates()
    presence.data.fill(1)
    return words, index, presence


def npmi_pair(stats: CooccurrenceStats, a: str, b: str, eps: float = NPMI_EPS) -> float:
    """NPMI of one word pair; a word absent from the corpus never co-occurs (-1)."""
    pa, pb = stats.p_word(a), stats.p_word(b)
    if pa == 0.0 or pb == 0.0:
        return -1.0
    pj = stats.p_pair(a, b)
    return math.log((pj + eps) / (pa * pb)) / -math.log(pj + eps)


def npmi(topic, stats: CooccurrenceStats, eps: float = NPMI_EPS) -> float:
    """Mean pairwise NPMI over all C(n,2) pairs of the topic's words."""
    if len(topic) < 2:
        raise ContractError(f"topic needs >= 2 words, got {len(topic)}")
    vals = [npmi_pair(stats, a, b, eps) for a, b in combinations(topic, 2)]
    return float(np.mean(vals))


def cv(topic, stats: CooccurrenceStats, eps: float = NPMI_EPS) -> float:
    """One-set-segmentation CV: cosine of each word's NPMI vector vs. their sum.

    Row i holds NPMI(w_i, w_j) for every j in the topic, including j = i,
    where joint presence reduces to p(w_i).
    """
    n = len(topic)
    if n < 2:
        raise ContractError(f"topic needs >= 2 words, got {n}")
    mat = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            mat[i, j] = mat[j, i] = npmi_pair(stats, topic[i], topic[j], eps)
    agg = mat.sum(axis=0)
    sims = [cosine_similarity(mat[i], agg) for i in range(n)]
    return float(np.mean(sims))


def validate_persistence(p: float) -> None:
    """An rbo persistence outside (0, 1) is a ConfigError."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"rbo persistence p must lie in (0, 1), got {p}")


def rbo(list_a, list_b, p: float = 0.9, depth: int | None = None) -> float:
    """Truncated normalized rank-biased overlap; 1.0 exactly on identical lists.

    Weights are geometric in rank; normalizing by their own sum (rather than
    the closed form) keeps the identical-list case bit-exact.
    """
    validate_persistence(p)
    if depth is None:
        depth = min(len(list_a), len(list_b))
    if depth < 1 or depth > len(list_a) or depth > len(list_b):
        raise ContractError(
            f"depth {depth} outside [1, min(len)] for lists of length "
            f"{len(list_a)} and {len(list_b)}"
        )
    seen_a, seen_b = set(), set()
    overlap = 0
    acc = norm = 0.0
    weight = 1.0  # p^(k-1)
    for k in range(1, depth + 1):
        wa, wb = list_a[k - 1], list_b[k - 1]
        if wa == wb:
            overlap += 1
        else:
            if wa in seen_b:
                overlap += 1
            if wb in seen_a:
                overlap += 1
        seen_a.add(wa)
        seen_b.add(wb)
        acc += weight * (overlap / k)
        norm += weight
        weight *= p
    return acc / norm


def _topics_fault(topics) -> str | None:
    """What makes `topics` unusable as a topic set, or None if nothing does."""
    if len(topics) < 2:
        return f"need >= 2 topics, got {len(topics)}"
    n = len(topics[0])
    for i, topic in enumerate(topics):
        if len(topic) != n:
            return f"topic {i} has {len(topic)} words, expected {n} (ragged topic set)"
        if len(set(topic)) != len(topic):
            return f"topic {i} contains repeated words"
    return None


def validate_topics(topics) -> None:
    fault = _topics_fault(topics)
    if fault is not None:
        raise ContractError(fault)


def irbo(topics, p: float = 0.9) -> float:
    """1 - mean pairwise RBO: 0 for identical topics, 1 for disjoint ones."""
    validate_topics(topics)
    vals = [rbo(a, b, p) for a, b in combinations(topics, 2)]
    return 1.0 - float(np.mean(vals))


def _topic_vectors(topic, embeddings: EmbeddingMatrix) -> np.ndarray:
    rows = np.empty((len(topic), embeddings.dim), dtype=np.float64)
    for i, word in enumerate(topic):
        if word not in embeddings.vocabulary.index:
            raise ContractError(f"topic word '{word}' has no embedding")
        rows[i] = embeddings.vector(word)
    return rows


def wi_c(topics, embeddings: EmbeddingMatrix) -> float:
    """1 - mean pairwise cosine between topic centroids (mean word vectors)."""
    validate_topics(topics)
    centroids = [_topic_vectors(t, embeddings).mean(axis=0) for t in topics]
    vals = [cosine_similarity(a, b) for a, b in combinations(centroids, 2)]
    return 1.0 - float(np.mean(vals))


def wi_m(topics, embeddings: EmbeddingMatrix) -> float:
    """1 - mean best-match similarity over ordered topic pairs.

    For each word of topic i, the best cosine against topic j's words, then
    averaged over words and over ordered pairs (i, j), i != j.
    """
    validate_topics(topics)
    normed = []
    for m in (_topic_vectors(t, embeddings) for t in topics):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        normed.append(m / np.where(norms == 0.0, 1.0, norms))
    vals = [float(np.mean(np.max(a @ b.T, axis=1))) for a, b in permutations(normed, 2)]
    return 1.0 - float(np.mean(vals))


# ---------------------------------------------------------------------------
# Orchestration and I/O
# ---------------------------------------------------------------------------

def token_documents(documents, vocabulary) -> list:
    """Back-map token ids to word strings for co-occurrence counting: one
    list per document of the `CorpusColumns`, sliced from one flat list."""
    words = np.asarray(vocabulary.words, dtype=object)[documents.token_ids].tolist()
    ptr = documents.token_ptr.tolist()
    return [words[a:b] for a, b in zip(ptr, ptr[1:])]


def evaluate_topics(topics, reference_token_docs=None, embeddings: EmbeddingMatrix | None = None,
                    p: float = 0.9) -> dict:
    """All intrinsic metrics for a topic set.

    irbo always; npmi and cv (aggregate plus per-topic lists) when a
    reference corpus of token lists is supplied; the embedding-based
    diversities wi_c and wi_m when an embedding matrix is supplied.
    """
    out = {"irbo": irbo(topics, p)}
    if reference_token_docs is not None:
        stats_npmi = build_cooccurrence(reference_token_docs, NPMI_WINDOW)
        stats_cv = build_cooccurrence(reference_token_docs, CV_WINDOW)
        out["npmi_per_topic"] = [npmi(t, stats_npmi) for t in topics]
        out["cv_per_topic"] = [cv(t, stats_cv) for t in topics]
        out["npmi"] = float(np.mean(out["npmi_per_topic"]))
        out["cv"] = float(np.mean(out["cv_per_topic"]))
    if embeddings is not None:
        out["wi_c"] = wi_c(topics, embeddings)
        out["wi_m"] = wi_m(topics, embeddings)
    return out


def save_topics(topics, path) -> None:
    """One topic per line, words space-separated in rank order."""
    write_tsv(path, ([" ".join(topic)] for topic in topics), "topics")


def load_topics(path) -> list:
    """Topics saved by `save_topics`; a file that is not a valid topic set
    (fewer than two topics, ragged, a repeated word) is a DataError."""
    with read_text(path, "topics file") as fh:
        topics = [line.split() for line in fh if line.strip()]
    if not topics:
        raise DataError("topics file is empty", path=path)
    fault = _topics_fault(topics)
    if fault is not None:
        raise DataError(f"topics file: {fault}", path=path)
    return topics


def write_metrics_report(metrics: dict, tsv_path, json_path=None) -> None:
    """Scalar metrics as TSV (metric, value); full dict as JSON alongside."""
    scalars = {k: v for k, v in metrics.items() if isinstance(v, (int, float))}
    write_tsv(tsv_path, [("metric", "value"), *((key, f"{scalars[key]:.9g}")
                                                for key in sorted(scalars))], "metrics report")
    if json_path is not None:
        with atomic_write(json_path, "metrics report") as fh:
            json.dump(metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
