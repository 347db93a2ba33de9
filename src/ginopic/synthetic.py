"""Synthetic corpora with known topic structure.

Two generators: `block_topic_corpus` builds already-tokenized documents from
K near-disjoint word blocks via a Dirichlet mixture (topic recovery checks),
and `labeled_text_corpus` emits raw labeled text that exercises the full
preprocessing pipeline at desk scale.  Companion embedding builders give the
blocks controlled cosine geometry: within-block similarity is exactly
`within`, cross-block similarity is exactly 0, by composing scaled one-hot
block and word components.

Generated words are plain lowercase letter strings that the lemmatizer maps
to themselves, so text survives preprocessing unchanged.
"""
from __future__ import annotations

import numpy as np

from .corpus import Corpus, CorpusColumns, Document, Vocabulary, assemble_corpus
from .embedding import EmbeddingMatrix
from .errors import ConfigError
from .lemmatizer import lemmatize
from .rng import stream

_CONSONANTS = "bcdfgklmnprtvz"
_FINAL_CONSONANTS = "bkmnprtvz"  # no d/g/s: avoids -ed/-ing/-s suffix shapes
_VOWELS = "aeiou"


def _word_pool(count: int, seed: int, length: int = 5) -> list:
    """Distinct pronounceable letter-only words that are lemmatizer fixed points."""
    rng = stream(seed, "synthetic/words")
    pool = []
    seen = set()
    while len(pool) < count:
        chars = []
        for pos in range(length):
            if pos == length - 1:
                chars.append(_FINAL_CONSONANTS[rng.integers(len(_FINAL_CONSONANTS))])
            elif pos % 2 == 0:
                chars.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
            else:
                chars.append(_VOWELS[rng.integers(len(_VOWELS))])
        word = "".join(chars)
        if word in seen or lemmatize(word) != word:
            continue
        seen.add(word)
        pool.append(word)
    return pool


# ---------------------------------------------------------------------------
# Tokenized block corpus (topic recovery)
# ---------------------------------------------------------------------------

def block_topic_corpus(seed: int = 0, n_docs: int = 1000, n_topics: int = 3,
                       words_per_topic: int = 10, alpha: float = 0.2,
                       doc_len=(20, 60)) -> Corpus:
    """Documents drawn from a Dirichlet mixture over disjoint word blocks.

    Word id t*words_per_topic + i belongs to block t; each document's label is
    the argmax of its mixture weights.
    """
    if n_topics < 2 or words_per_topic < 1 or n_docs < n_topics:
        raise ConfigError("need >= 2 topics, >= 1 word per topic, and n_docs >= n_topics")
    v = n_topics * words_per_topic
    words = _word_pool(v, seed)
    rng = stream(seed, "synthetic/block")
    docs = []
    for _ in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, alpha))
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        topic_per_token = rng.choice(n_topics, size=length, p=theta)
        offset = rng.integers(0, words_per_topic, size=length)
        ids = topic_per_token * words_per_topic + offset
        docs.append(Document(token_ids=ids.astype(np.int32), label=int(np.argmax(theta))))
    label_names = [f"topic{t}" for t in range(n_topics)]
    return assemble_corpus(words, CorpusColumns.pack(docs), seed=seed, label_names=label_names,
                           options={"source": "synthetic/block", "alpha": alpha})


def block_embeddings(vocabulary: Vocabulary, n_topics: int, words_per_topic: int,
                     within: float = 0.9) -> EmbeddingMatrix:
    """Block-structured vectors: cos = `within` inside a block, 0 across blocks;
    `desk_embeddings` with word id t*words_per_topic + i in class t."""
    v = len(vocabulary)
    if v != n_topics * words_per_topic:
        raise ConfigError(
            f"vocabulary size {v} != n_topics * words_per_topic = {n_topics * words_per_topic}"
        )
    blocks = {word: wid // words_per_topic for wid, word in enumerate(vocabulary.words)}
    return desk_embeddings(vocabulary, blocks, n_topics, within)


def probe_documents(n_topics: int, words_per_topic: int, n_per_topic: int = 20,
                    length: int = 30, seed: int = 0) -> list:
    """Pure single-block documents labeled by their block, for argmax probes."""
    rng = stream(seed, "synthetic/probe")
    docs = []
    for t in range(n_topics):
        for _ in range(n_per_topic):
            offset = rng.integers(0, words_per_topic, size=length)
            ids = t * words_per_topic + offset
            docs.append(Document(token_ids=ids.astype(np.int32), label=t))
    return docs


def greedy_block_match(topics, n_topics: int, words_per_topic: int, vocabulary) -> tuple:
    """Greedy one-to-one matching of learned topics to ground-truth blocks.

    Returns (mapping learned->block, mean purity): purity of a matched pair is
    the fraction of the learned topic's words that fall in its block.
    """
    blocks = [
        {vocabulary.words[t * words_per_topic + i] for i in range(words_per_topic)}
        for t in range(n_topics)
    ]
    overlap = np.zeros((len(topics), n_topics), dtype=np.int64)
    for ti, topic in enumerate(topics):
        for b, block in enumerate(blocks):
            overlap[ti, b] = len(set(topic) & block)
    mapping = {}
    work = overlap.astype(np.float64).copy()
    for _ in range(min(len(topics), n_topics)):
        ti, b = np.unravel_index(np.argmax(work), work.shape)
        mapping[int(ti)] = int(b)
        work[ti, :] = -1.0
        work[:, b] = -1.0
    matched = sum(overlap[t, b] for t, b in mapping.items())
    purity = matched / sum(len(topics[t]) for t in mapping)
    return mapping, float(purity)


# ---------------------------------------------------------------------------
# Raw labeled text (full-pipeline desk corpus)
# ---------------------------------------------------------------------------

def labeled_text_corpus(seed: int = 0, n_docs: int = 2400, n_classes: int = 6,
                        class_words: int = 150, shared_words: int = 300,
                        class_word_prob: float = 0.75, doc_len=(30, 70)) -> tuple:
    """Raw labeled text with class-specific word blocks plus a shared pool.

    Returns (texts, labels, word_classes): word_classes maps each word to its
    class id, or None for shared-pool words.  Word frequencies are skewed
    (p proportional to 1/(rank+2)) so the vocabulary looks roughly Zipfian.
    """
    if n_classes < 2:
        raise ConfigError(f"need >= 2 classes, got {n_classes}")
    total = n_classes * class_words + shared_words
    pool = _word_pool(total, seed)
    class_pools = [
        pool[c * class_words:(c + 1) * class_words] for c in range(n_classes)
    ]
    shared_pool = pool[n_classes * class_words:]
    word_classes = {}
    for c, words in enumerate(class_pools):
        for w in words:
            word_classes[w] = c
    for w in shared_pool:
        word_classes[w] = None

    def skewed(n):
        p = 1.0 / (np.arange(n) + 2.0)
        return p / p.sum()

    p_class = skewed(class_words)
    p_shared = skewed(shared_words)
    rng = stream(seed, "synthetic/text")
    texts, labels = [], []
    for d in range(n_docs):
        c = d % n_classes
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        take_class = rng.random(length) < class_word_prob
        n_c = int(take_class.sum())
        toks = np.empty(length, dtype=object)
        toks[take_class] = rng.choice(class_pools[c], size=n_c, p=p_class)
        toks[~take_class] = rng.choice(shared_pool, size=length - n_c, p=p_shared)
        texts.append(" ".join(toks))
        labels.append(f"class{c}")
    return texts, labels, word_classes


def desk_embeddings(vocabulary: Vocabulary, word_classes: dict, n_classes: int,
                    within: float = 0.6) -> EmbeddingMatrix:
    """Class-block geometry over a preprocessed vocabulary.

    Class words share cos = `within` inside their class and 0 across classes;
    shared-pool words are mutually orthogonal.  Unknown words (absent from
    word_classes) are treated as shared.
    """
    if not 0.0 <= within <= 1.0:
        raise ConfigError(f"within-class similarity must lie in [0, 1], got {within}")
    v = len(vocabulary)
    dim = n_classes + v
    vectors = np.zeros((v, dim), dtype=np.float32)
    for wid, word in enumerate(vocabulary.words):
        c = word_classes.get(word)
        if c is None:
            vectors[wid, n_classes + wid] = 1.0
        else:
            vectors[wid, c] = np.sqrt(within)
            vectors[wid, n_classes + wid] = np.sqrt(1.0 - within)
    return EmbeddingMatrix(vectors=vectors, oov_mask=np.zeros(v, dtype=bool),
                           vocabulary=vocabulary)
