"""Corpus pipeline: tokenize, lemmatize, vocabulary, tf-idf, splits, caching.

Preprocessing: lowercase, strip everything but letter runs, lemmatize with the
bundled suffix-rule lemmatizer, drop words shorter than `min_word_len`, keep
the `max_vocab` most frequent terms (ties broken lexicographically), drop
documents left with fewer than `min_doc_len` tokens.  Stopword removal is off
unless a stopword set is supplied.  It is one pass over the whole corpus, so
the documents are columns from the first token on.

tf-idf uses the smoothed convention tfidf[v] = count(v) * (ln((1+N)/(1+df(v))) + 1),
unnormalized.  The pipeline fits idf on the training split and applies it
unchanged to validation/test, so held-out documents never leak into the
weighting; the smoothing keeps words unseen in training finite and positive.

A corpus holds its documents as one `CorpusColumns`, as a graph store holds
its graphs; no tf-idf is stored: `tfidf_dense` weighs word counts by the idf.

The on-disk cache (magic GINOCORP2, in the `artifact` container) stores only
what `Corpus.sha256` covers: the vocabulary, then the `<u4` lengths, `<u4`
labels (0xFFFFFFFF: none) and `<i4` token ids of all documents in split
order.  Load derives the document frequencies and the idf with the step that
`assemble_corpus` uses, bit for bit; the file is purely input-derived, so
rerunning preprocessing on identical inputs yields an identical file.
"""
from __future__ import annotations

import hashlib
import re
import struct
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .artifact import (is_count, is_int, is_number, read_artifact, read_text, write_artifact,
                       write_tsv)
from .errors import ConfigError, ContractError, DataError
from .lemmatizer import lemmatize
from .rng import stream

_TOKEN_RE = re.compile(r"[a-z]+")
_MAGIC = b"GINOCORP2\n"


@dataclass(frozen=True)
class PreprocessOptions:
    max_vocab: int = 2000
    min_word_len: int = 3
    min_doc_len: int = 3
    lemmatize: bool = True
    stopwords: frozenset | None = None

    def validate(self) -> None:
        if self.max_vocab < 1:
            raise ConfigError(f"max_vocab must be >= 1, got {self.max_vocab}")
        if self.min_word_len < 1 or self.min_doc_len < 1:
            raise ConfigError("min_word_len and min_doc_len must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "stopwords": sorted(self.stopwords) if self.stopwords else None}


@dataclass
class Vocabulary:
    """Word list where position is the id, plus document frequencies."""

    words: list
    doc_frequency: np.ndarray  # int64, documents containing each word
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ContractError("vocabulary contains duplicate words")
        self.doc_frequency = np.asarray(self.doc_frequency, dtype=np.int64)
        if self.doc_frequency.shape != (len(self.words),):
            raise ContractError("doc_frequency length does not match word count")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id_of(self, word: str) -> int:
        return self.index[word]

    @property
    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.words).encode("utf-8")).hexdigest()


@dataclass
class Document:
    """A `CorpusColumns` document, by int index: in-vocab token ids in original order."""

    token_ids: np.ndarray  # int32
    label: int | None = None

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int32)

    def __len__(self) -> int:
        return int(self.token_ids.size)


def offsets(counts) -> np.ndarray:
    """int64 offsets [0, c0, c0 + c1, ...] of consecutive runs of `counts`."""
    return np.concatenate(([0], np.cumsum(np.asarray(counts, dtype=np.int64))))


def take_runs(ptr, idx):
    """(pointers, flat positions) of the runs of `ptr` at run positions `idx`."""
    counts = ptr[idx + 1] - ptr[idx]
    out = offsets(counts)
    return out, np.arange(out[-1]) + np.repeat(ptr[idx] - out[:-1], counts)


def concat(arrays, dtype) -> np.ndarray:
    """The arrays end to end as one `dtype` array (empty for no arrays)."""
    return np.concatenate([np.zeros(0, dtype), *arrays]).astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class CorpusColumns:
    """Documents as arrays.  Document k has the tokens
    `token_ids[token_ptr[k]:token_ptr[k+1]]` (int32) and the label
    `labels[k]` (int32, -1: none); `token_ptr` is int64 and starts at 0.
    `idf` is the idf of the corpus's training split (float64, one per word;
    None until a corpus fits it).  An int index, or iteration, gives a
    `Document`; a slice, mask or index array gives columns with the same idf."""

    token_ptr: np.ndarray
    token_ids: np.ndarray
    labels: np.ndarray
    idf: np.ndarray | None = None

    @classmethod
    def pack(cls, documents, idf=None) -> "CorpusColumns":
        """The columns of a list of `Document`s."""
        return cls(offsets([len(d) for d in documents]),
                   concat([d.token_ids for d in documents], np.int32),
                   np.array([-1 if d.label is None else d.label for d in documents], np.int32),
                   idf)

    def __len__(self) -> int:
        return self.token_ptr.size - 1

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = range(len(self))[key]
            label = int(self.labels[k])
            return Document(self.token_ids[self.token_ptr[k]: self.token_ptr[k + 1]],
                            None if label < 0 else label)
        idx = np.arange(len(self))[key]
        token_ptr, at = take_runs(self.token_ptr, idx)
        return CorpusColumns(token_ptr, self.token_ids[at], self.labels[idx], self.idf)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass
class CorpusSplit:
    """All documents in train/validation/test order, as one `CorpusColumns`."""

    documents: CorpusColumns
    sizes: tuple  # (n_train, n_validation, n_test)
    label_names: list | None = None

    @property
    def k_gold(self) -> int | None:
        """Number of ground-truth labels; None for an unlabeled corpus."""
        return None if self.label_names is None else len(self.label_names)

    @property
    def train(self) -> CorpusColumns:
        return self.documents[: self.sizes[0]]

    @property
    def validation(self) -> CorpusColumns:
        return self.documents[self.sizes[0]: sum(self.sizes[:2])]

    @property
    def test(self) -> CorpusColumns:
        return self.documents[sum(self.sizes[:2]):]

    def all_documents(self) -> CorpusColumns:
        return self.documents


@dataclass
class Corpus:
    """A preprocessed, split, idf-weighted corpus plus its provenance echo."""

    vocabulary: Vocabulary
    split: CorpusSplit
    options: dict
    seed: int
    ratios: tuple

    @property
    def sha256(self) -> str:
        """Of the vocabulary, then each document's <i4 tokens and <i4 label (-1: none)."""
        docs = self.split.documents
        h = hashlib.sha256("\n".join(self.vocabulary.words).encode("utf-8"))
        h.update(np.insert(docs.token_ids, docs.token_ptr[1:], docs.labels).astype("<i4"))
        return h.hexdigest()

    def save(self, path) -> None:
        save_corpus(self, path)


def _lemma_table(forms, options: PreprocessOptions) -> dict:
    """{form: lemma} of each distinct form, lemmatized once, whose lemma is no
    stopword and at least `min_word_len` long; other forms are dropped."""
    stopwords = options.stopwords or ()
    lemmas = ((f, lemmatize(f) if options.lemmatize else f) for f in set(forms))
    return {f: lemma for f, lemma in lemmas
            if lemma not in stopwords and len(lemma) >= options.min_word_len}


def tokenize(text: str, options: PreprocessOptions) -> list:
    """Lowercase, extract letter runs, then `preprocess`'s lemma table."""
    forms = _TOKEN_RE.findall(text.lower())
    table = _lemma_table(forms, options)
    return [table[f] for f in forms if f in table]


def preprocess(raw_documents, options: PreprocessOptions | None = None):
    """Tokenize a raw corpus and choose its vocabulary, over all its forms at once.

    Returns (words, documents, kept_indices): the vocabulary's words in id
    order, the documents as `CorpusColumns` (labels -1) of token ids into them,
    and kept_indices, which maps each surviving document back to its position
    in `raw_documents` so label files stay aligned.  Vocabulary selection ranks
    words by total corpus frequency (descending), ties broken lexicographically,
    so every excluded word has frequency <= the minimum frequency among included words.
    """
    options = options or PreprocessOptions()
    options.validate()
    if not raw_documents:
        raise DataError("empty corpus: no input documents")

    per_doc = [list(map(sys.intern, _TOKEN_RE.findall(text.lower()))) for text in raw_documents]
    forms = list(chain.from_iterable(per_doc))  # interned: one string per distinct form
    table = _lemma_table(forms, options)
    freq = Counter(filter(None, map(table.get, forms)))  # None: a dropped form
    if not freq:
        raise DataError("empty corpus: no tokens survive preprocessing")

    words = sorted(freq, key=lambda w: (-freq[w], w))[: options.max_vocab]
    word_id = {w: i for i, w in enumerate(words)}
    form_id = {f: word_id[lemma] for f, lemma in table.items() if lemma in word_id}
    ids = np.fromiter(map(form_id.get, forms, repeat(-1)), np.int32, len(forms))
    rows = np.repeat(np.arange(len(per_doc)), [len(d) for d in per_doc])
    lengths = np.bincount(rows[ids >= 0], minlength=len(per_doc))
    kept = lengths >= options.min_doc_len
    if not kept.any():
        raise DataError("empty corpus: every document fell below min_doc_len")

    documents = CorpusColumns(offsets(lengths[kept]), ids[(ids >= 0) & kept[rows]],
                              np.full(int(kept.sum()), -1, np.int32))
    return words, documents, np.flatnonzero(kept).tolist()


def token_rows(documents: CorpusColumns, vocab_size: int):
    """(tokens, rows): every token id of `documents` end to end (int64) and
    its document's row.  A token id outside [0, vocab_size) is a
    ContractError: its key row * vocab_size + id would alias into a
    neighbouring document."""
    tokens = documents.token_ids.astype(np.int64)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise ContractError(f"token id outside the {vocab_size}-word vocabulary")
    return tokens, np.repeat(np.arange(len(documents)), np.diff(documents.token_ptr))


def word_counts(documents: CorpusColumns, vocab_size: int):
    """(rows, ids, counts): each document's sorted distinct word ids and
    their counts, ordered by document row, from one `np.unique` over
    row * vocab_size + id (see `token_rows`)."""
    tokens, rows = token_rows(documents, vocab_size)
    keys, counts = np.unique(rows * vocab_size + tokens, return_counts=True)
    rows, ids = np.divmod(keys, vocab_size)
    return rows, ids, counts


def _weigh(split: CorpusSplit, vocab_size: int) -> np.ndarray:
    """Give the split's documents the idf of its training split, ln((1+N)/(1+df)) + 1,
    and return the document frequencies over the whole corpus, from one `word_counts` pass."""
    rows, ids, _ = word_counts(split.documents, vocab_size)
    n = split.sizes[0]
    train_df = np.bincount(ids[rows < n], minlength=vocab_size)
    split.documents = replace(split.documents, idf=np.log((1.0 + n) / (1.0 + train_df)) + 1.0)
    return np.bincount(ids, minlength=vocab_size)


def split_corpus(documents, ratios=(0.70, 0.15, 0.15), seed: int = 0) -> CorpusSplit:
    """Deterministic shuffled train/validation/test partition of a `CorpusColumns`.

    Validation and test sizes are floored, the remainder goes to train, so 10
    documents at the default ratios split 8/1/1.
    """
    ratios = tuple(float(r) for r in ratios)
    # `not 0 <= r <= 1` also rejects NaN, which every comparison fails
    if len(ratios) != 3 or any(not 0 <= r <= 1 for r in ratios) or abs(1.0 - np.sum(ratios)) > 1e-9:
        raise ConfigError(f"split ratios must be three numbers in [0, 1] summing to 1, "
                          f"got {ratios}")
    n = len(documents)
    if n == 0:
        raise DataError("cannot split an empty corpus")
    n_val = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    perm = stream(seed, "corpus/split").permutation(n)
    return CorpusSplit(documents[perm], (n - n_val - n_test, n_val, n_test))


def build_corpus(
    raw_documents,
    labels=None,
    options: PreprocessOptions | None = None,
    ratios=(0.70, 0.15, 0.15),
    seed: int = 0,
) -> Corpus:
    """Full pipeline: preprocess, split, then tf-idf with idf fit on train."""
    options = options or PreprocessOptions()
    if labels is not None and len(labels) != len(raw_documents):
        raise DataError(
            f"label count {len(labels)} does not match document count {len(raw_documents)}"
        )
    words, documents, kept = preprocess(raw_documents, options)

    label_names = None
    if labels is not None:
        kept_labels = [str(labels[i]) for i in kept]
        label_names = sorted(set(kept_labels))
        label_id = {name: i for i, name in enumerate(label_names)}
        documents = replace(documents, labels=np.array([label_id[n] for n in kept_labels], np.int32))

    return assemble_corpus(words, documents, ratios, seed, label_names, options.to_dict())


def assemble_corpus(
    words,
    documents: CorpusColumns,
    ratios=(0.70, 0.15, 0.15),
    seed: int = 0,
    label_names=None,
    options: dict | None = None,
) -> Corpus:
    """Split already-tokenized documents, give them the idf fit on the
    training split, build the vocabulary of `words` with its document
    frequencies over them, and wrap them in a Corpus.  `build_corpus` ends
    here; synthetic pipelines call it directly.

    The columns must carry integer labels already if label_names is given.
    No documents is a DataError, raised by `split_corpus`.
    """
    split = split_corpus(documents, ratios=ratios, seed=seed)
    split.label_names = list(label_names) if label_names is not None else None
    return Corpus(
        vocabulary=Vocabulary(words=list(words), doc_frequency=_weigh(split, len(words))),
        split=split,
        options=options or {"source": "assembled"},
        seed=int(seed),
        ratios=tuple(float(r) for r in ratios),
    )


def tfidf_dense(documents: CorpusColumns, vocab_size: int, dtype=np.float32) -> np.ndarray:
    """Dense tf-idf rows of a batch: count * idf in float64, rounded to `dtype`."""
    rows, ids, counts = word_counts(documents, vocab_size)
    out = np.zeros((len(documents), vocab_size), dtype=dtype)
    out[rows, ids] = counts * documents.idf[ids]
    return out


# ---------------------------------------------------------------------------
# Text inputs and the binary cache
# ---------------------------------------------------------------------------

def load_texts(path) -> list:
    """UTF-8 text file, one document per line."""
    with read_text(path, "corpus file") as fh:
        return [line.rstrip("\n") for line in fh]


def load_labels(path) -> list:
    with read_text(path, "label file") as fh:
        return [line.strip() for line in fh]


def save_vocabulary(vocabulary: Vocabulary, path) -> None:
    """One word per line; the line number (from 0) is the word id."""
    write_tsv(path, ([word] for word in vocabulary.words), "vocabulary")


_HEADER_FIELDS = {
    "v": is_count,
    "n_train": is_count,
    "n_validation": is_count,
    "n_test": is_count,
    "label_names": lambda v: v is None or (type(v) is list
                                           and all(type(name) is str for name in v)),
    "options": lambda v: type(v) is dict,
    "seed": is_int,
    "ratios": lambda v: type(v) is list and len(v) == 3 and all(map(is_number, v)),
}


def save_corpus(corpus: Corpus, path) -> None:
    """Write the cache atomically (see `artifact.write_artifact`)."""
    header = {
        "version": 1,
        "v": len(corpus.vocabulary),
        "n_train": corpus.split.sizes[0],
        "n_validation": corpus.split.sizes[1],
        "n_test": corpus.split.sizes[2],
        "label_names": corpus.split.label_names,
        "options": corpus.options,
        "seed": corpus.seed,
        "ratios": list(corpus.ratios),
    }
    docs = corpus.split.documents
    with write_artifact(path, _MAGIC, header, "corpus cache") as fh:
        vocab_block = "\n".join(corpus.vocabulary.words).encode("utf-8")
        fh.write(struct.pack("<Q", len(vocab_block)))
        fh.write(vocab_block)
        fh.write(np.diff(docs.token_ptr).astype("<u4"))
        fh.write(docs.labels.astype("<u4"))
        fh.write(docs.token_ids.astype("<i4"))


def load_corpus(path) -> Corpus:
    with read_artifact(path, _MAGIC, _HEADER_FIELDS, "corpus cache") as (header, read):
        (vocab_len,) = struct.unpack("<Q", read(8))
        try:
            words = read(vocab_len).decode("utf-8").split("\n")
        except UnicodeDecodeError as e:
            raise DataError(f"corpus cache vocabulary is not UTF-8: {e}", path=path) from e
        v = header["v"]
        if len(words) != v:
            raise DataError("corpus cache vocabulary length mismatch", path=path)
        sizes = [header[key] for key in ("n_train", "n_validation", "n_test")]
        n_docs = sum(sizes)
        lengths = np.frombuffer(read(4 * n_docs), dtype="<u4")
        labels = np.frombuffer(read(4 * n_docs), dtype="<u4").astype(np.int32)  # -1: none
        tokens = np.frombuffer(read(4 * int(lengths.sum(dtype=np.uint64))), dtype="<i4")
    names = header["label_names"]
    n_labels = len(names or ())
    if np.any((labels < -1) | (labels >= n_labels)):
        raise DataError(f"corpus cache holds a label outside its {n_labels} label names",
                        path=path)
    docs = CorpusColumns(offsets(lengths), tokens.astype(np.int32), labels)
    split = CorpusSplit(docs, tuple(sizes), label_names=names)
    try:
        vocabulary = Vocabulary(words=words, doc_frequency=_weigh(split, v))
    except ContractError as e:
        raise DataError(f"corpus cache holds an invalid vocabulary or token: {e}",
                        path=path) from e
    return Corpus(
        vocabulary=vocabulary,
        split=split,
        options=header["options"],
        seed=header["seed"],
        ratios=tuple(header["ratios"]),
    )
