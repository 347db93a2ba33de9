"""Corpus pipeline: tokenize, lemmatize, vocabulary, tf-idf, splits, caching.

Preprocessing: lowercase, strip everything but letter runs, lemmatize with the
bundled suffix-rule lemmatizer, drop words shorter than `min_word_len`, keep
the `max_vocab` most frequent terms (ties broken lexicographically), drop
documents left with fewer than `min_doc_len` tokens.  Stopword removal is off
unless a stopword set is supplied.

tf-idf uses the smoothed convention tfidf[v] = count(v) * (ln((1+N)/(1+df(v))) + 1),
unnormalized.  The pipeline fits idf on the training split and applies it
unchanged to validation/test, so held-out documents never leak into the
weighting; the smoothing keeps words unseen in training finite and positive.

The on-disk cache (magic GINOCORP1, in the `artifact` container) stores the
vocabulary, token ids, labels, and tf-idf of every document and reproduces
them bit-for-bit on load; its content is purely input-derived, so rerunning
preprocessing on identical inputs yields an identical file.
"""
from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .artifact import is_count, is_int, is_number, read_artifact, write_artifact, write_tsv
from .errors import ConfigError, ContractError, DataError
from .lemmatizer import lemmatize
from .rng import stream

_TOKEN_RE = re.compile(r"[a-z]+")
_MAGIC = b"GINOCORP1\n"
_NO_LABEL = 0xFFFFFFFF


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
        return {
            "max_vocab": self.max_vocab,
            "min_word_len": self.min_word_len,
            "min_doc_len": self.min_doc_len,
            "lemmatize": self.lemmatize,
            "stopwords": sorted(self.stopwords) if self.stopwords else None,
        }


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
    """One preprocessed document: in-vocab token ids in original order."""

    token_ids: np.ndarray  # int32
    label: int | None = None
    tfidf_ids: np.ndarray | None = None     # int32, sorted distinct ids
    tfidf_values: np.ndarray | None = None  # float64, aligned with tfidf_ids

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int32)

    def __len__(self) -> int:
        return int(self.token_ids.size)

    @property
    def counts(self) -> dict:
        ids, cnt = np.unique(self.token_ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, cnt)}

    @property
    def distinct_ids(self) -> np.ndarray:
        """Distinct token ids in first-occurrence order (graph node order)."""
        _, first = np.unique(self.token_ids, return_index=True)
        return self.token_ids[np.sort(first)]


@dataclass
class CorpusSplit:
    train: list
    validation: list
    test: list
    label_names: list | None = None
    k_gold: int | None = None

    @property
    def sizes(self):
        return (len(self.train), len(self.validation), len(self.test))

    def all_documents(self) -> list:
        return self.train + self.validation + self.test


@dataclass
class Corpus:
    """A preprocessed, split, tf-idf weighted corpus plus its provenance echo."""

    vocabulary: Vocabulary
    split: CorpusSplit
    options: dict
    seed: int
    ratios: tuple

    @property
    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update("\n".join(self.vocabulary.words).encode("utf-8"))
        for doc in self.split.all_documents():
            h.update(doc.token_ids.astype("<i4").tobytes())
            h.update(struct.pack("<i", -1 if doc.label is None else doc.label))
        return h.hexdigest()

    def save(self, path) -> None:
        save_corpus(self, path)

    @classmethod
    def load(cls, path) -> "Corpus":
        return load_corpus(path)


def tokenize(text: str, options: PreprocessOptions) -> list:
    """Lowercase, extract letter runs, lemmatize, filter stopwords and short words."""
    tokens = _TOKEN_RE.findall(text.lower())
    if options.lemmatize:
        tokens = [lemmatize(t) for t in tokens]
    if options.stopwords:
        tokens = [t for t in tokens if t not in options.stopwords]
    return [t for t in tokens if len(t) >= options.min_word_len]


def preprocess(raw_documents, options: PreprocessOptions | None = None):
    """Tokenize a raw corpus and build its vocabulary.

    Returns (vocabulary, documents, kept_indices) where kept_indices maps each
    surviving document back to its position in `raw_documents` so label files
    stay aligned.  Vocabulary selection ranks words by total corpus frequency
    (descending), ties broken lexicographically, so every excluded word has
    frequency <= the minimum frequency among included words.
    """
    options = options or PreprocessOptions()
    options.validate()
    if not raw_documents:
        raise DataError("empty corpus: no input documents")

    tokenized = [tokenize(text, options) for text in raw_documents]
    freq: dict = {}
    for tokens in tokenized:
        for t in tokens:
            freq[t] = freq.get(t, 0) + 1
    if not freq:
        raise DataError("empty corpus: no tokens survive preprocessing")

    ranked = sorted(freq, key=lambda w: (-freq[w], w))
    words = ranked[: options.max_vocab]
    word_to_id = {w: i for i, w in enumerate(words)}

    documents = []
    kept_indices = []
    df = np.zeros(len(words), dtype=np.int64)
    for pos, tokens in enumerate(tokenized):
        ids = [word_to_id[t] for t in tokens if t in word_to_id]
        if len(ids) < options.min_doc_len:
            continue
        doc = Document(token_ids=np.array(ids, dtype=np.int32))
        df[np.unique(doc.token_ids)] += 1
        documents.append(doc)
        kept_indices.append(pos)
    if not documents:
        raise DataError("empty corpus: every document fell below min_doc_len")

    return Vocabulary(words=words, doc_frequency=df), documents, kept_indices


def idf_vector(documents, vocab_size: int):
    """Smoothed idf fit on `documents`: ln((1+N)/(1+df)) + 1.  Returns (idf, N)."""
    df = np.zeros(vocab_size, dtype=np.int64)
    for doc in documents:
        df[np.unique(doc.token_ids)] += 1
    n = len(documents)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return idf, n


def compute_tfidf(documents, vocabulary: Vocabulary, idf=None) -> np.ndarray:
    """Fill each document's tf-idf entries in place; returns the idf vector used.

    With idf=None the document frequencies must describe this same document
    set (the vocabulary's own df); a present word with df 0 then means the
    vocabulary was built elsewhere and is rejected.  Pass an explicit idf
    vector (e.g. fit on the training split) to weight any other document set.
    """
    if idf is None:
        df = vocabulary.doc_frequency
        n = len(documents)
        for doc in documents:
            present = np.unique(doc.token_ids)
            if present.size and df[present].min() == 0:
                raise ContractError(
                    "df=0 for a word present in the corpus: vocabulary and "
                    "document set are inconsistent"
                )
        idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    idf = np.asarray(idf, dtype=np.float64)
    if idf.shape != (len(vocabulary),):
        raise ContractError(
            f"idf length {idf.shape} does not match vocabulary size {len(vocabulary)}"
        )
    for doc in documents:
        ids, cnt = np.unique(doc.token_ids, return_counts=True)
        doc.tfidf_ids = ids.astype(np.int32)
        doc.tfidf_values = cnt.astype(np.float64) * idf[ids]
    return idf


def split_corpus(documents, ratios=(0.70, 0.15, 0.15), seed: int = 0) -> CorpusSplit:
    """Deterministic shuffled train/validation/test partition.

    Validation and test sizes are floored, the remainder goes to train, so 10
    documents at the default ratios split 8/1/1.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(1.0 - np.sum(ratios)) > 1e-9:
        raise ConfigError(f"split ratios must be three non-negatives summing to 1, got {ratios}")
    n = len(documents)
    if n == 0:
        raise DataError("cannot split an empty corpus")
    n_val = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    n_train = n - n_val - n_test
    perm = stream(seed, "corpus/split").permutation(n)
    order = [documents[i] for i in perm]
    return CorpusSplit(
        train=order[:n_train],
        validation=order[n_train:n_train + n_val],
        test=order[n_train + n_val:],
    )


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
    vocabulary, documents, kept = preprocess(raw_documents, options)

    label_names = None
    k_gold = None
    if labels is not None:
        kept_labels = [str(labels[i]) for i in kept]
        label_names = sorted(set(kept_labels))
        name_to_id = {name: i for i, name in enumerate(label_names)}
        for doc, lab in zip(documents, kept_labels):
            doc.label = name_to_id[lab]
        k_gold = len(label_names)

    split = split_corpus(documents, ratios=ratios, seed=seed)
    split.label_names = label_names
    split.k_gold = k_gold

    idf, _ = idf_vector(split.train, len(vocabulary))
    for part in (split.train, split.validation, split.test):
        compute_tfidf(part, vocabulary, idf=idf)

    return Corpus(
        vocabulary=vocabulary,
        split=split,
        options=options.to_dict(),
        seed=int(seed),
        ratios=tuple(ratios),
    )


def assemble_corpus(
    vocabulary: Vocabulary,
    documents,
    ratios=(0.70, 0.15, 0.15),
    seed: int = 0,
    label_names=None,
    options: dict | None = None,
) -> Corpus:
    """Build a Corpus from already-tokenized documents (synthetic pipelines).

    Documents must carry integer labels already if label_names is given.
    Splitting and train-fit idf weighting match `build_corpus`.
    """
    if not documents:
        raise DataError("empty corpus: no documents to assemble")
    split = split_corpus(documents, ratios=ratios, seed=seed)
    split.label_names = list(label_names) if label_names is not None else None
    split.k_gold = len(label_names) if label_names is not None else None
    idf, _ = idf_vector(split.train, len(vocabulary))
    for part in (split.train, split.validation, split.test):
        compute_tfidf(part, vocabulary, idf=idf)
    return Corpus(
        vocabulary=vocabulary,
        split=split,
        options=options or {"source": "assembled"},
        seed=int(seed),
        ratios=tuple(float(r) for r in ratios),
    )


def tfidf_dense(documents, vocab_size: int, dtype=np.float32) -> np.ndarray:
    """Densify tf-idf rows for a batch of documents."""
    out = np.zeros((len(documents), vocab_size), dtype=dtype)
    for r, doc in enumerate(documents):
        if doc.tfidf_ids is None:
            raise ContractError("document has no tf-idf entries; run compute_tfidf first")
        out[r, doc.tfidf_ids] = doc.tfidf_values
    return out


# ---------------------------------------------------------------------------
# Text inputs and the binary cache
# ---------------------------------------------------------------------------

def load_texts(path) -> list:
    """UTF-8 text file, one document per line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except OSError as e:
        raise DataError(f"cannot read corpus file: {e}", path=path) from e


def load_labels(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.strip() for line in fh]
    except OSError as e:
        raise DataError(f"cannot read label file: {e}", path=path) from e


def save_vocabulary(vocabulary: Vocabulary, path) -> None:
    """One word per line; the line number (from 0) is the word id."""
    write_tsv(path, ([word] for word in vocabulary.words), "vocabulary")


def _doc_bytes(doc: Document) -> bytes:
    ids = doc.token_ids.astype("<i4")
    label = _NO_LABEL if doc.label is None else doc.label
    parts = [struct.pack("<I", ids.size), ids.tobytes()]
    if doc.tfidf_ids is None:
        parts.append(struct.pack("<II", label, 0))
    else:
        parts += [struct.pack("<II", label, doc.tfidf_ids.size),
                  doc.tfidf_ids.astype("<i4").tobytes(), doc.tfidf_values.astype("<f8").tobytes()]
    return b"".join(parts)


def _read_doc(read) -> Document:
    (n_tokens,) = struct.unpack("<I", read(4))
    ids = np.frombuffer(read(4 * n_tokens), dtype="<i4").astype(np.int32)
    label, nnz = struct.unpack("<II", read(8))
    doc = Document(token_ids=ids, label=None if label == _NO_LABEL else int(label))
    if nnz:
        doc.tfidf_ids = np.frombuffer(read(4 * nnz), dtype="<i4").astype(np.int32)
        doc.tfidf_values = np.frombuffer(read(8 * nnz), dtype="<f8").astype(np.float64)
    return doc


_HEADER_FIELDS = {
    "v": is_count,
    "n_train": is_count,
    "n_validation": is_count,
    "n_test": is_count,
    "label_names": lambda v: v is None or (type(v) is list
                                           and all(type(name) is str for name in v)),
    "k_gold": lambda v: v is None or is_count(v),
    "options": lambda v: type(v) is dict,
    "seed": is_int,
    "ratios": lambda v: type(v) is list and len(v) == 3 and all(map(is_number, v)),
}


def save_corpus(corpus: Corpus, path) -> None:
    """Write the cache atomically (see `artifact.write_artifact`)."""
    header = {
        "version": 1,
        "v": len(corpus.vocabulary),
        "n_train": len(corpus.split.train),
        "n_validation": len(corpus.split.validation),
        "n_test": len(corpus.split.test),
        "label_names": corpus.split.label_names,
        "k_gold": corpus.split.k_gold,
        "options": corpus.options,
        "seed": corpus.seed,
        "ratios": list(corpus.ratios),
    }
    with write_artifact(path, _MAGIC, header, "corpus cache") as fh:
        vocab_block = "\n".join(corpus.vocabulary.words).encode("utf-8")
        fh.write(struct.pack("<Q", len(vocab_block)))
        fh.write(vocab_block)
        fh.write(corpus.vocabulary.doc_frequency.astype("<i8").tobytes())
        fh.write(b"".join(map(_doc_bytes, corpus.split.all_documents())))


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
        df = np.frombuffer(read(8 * v), dtype="<i8").astype(np.int64)
        try:
            vocabulary = Vocabulary(words=words, doc_frequency=df)
        except ContractError as e:
            raise DataError(f"corpus cache holds an invalid vocabulary: {e}", path=path) from e
        parts = [[_read_doc(read) for _ in range(header[key])]
                 for key in ("n_train", "n_validation", "n_test")]
    docs = [d for part in parts for d in part]
    ids = np.concatenate([np.empty(0, np.int32)] + [d.token_ids for d in docs]
                         + [d.tfidf_ids for d in docs if d.tfidf_ids is not None])
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise DataError(f"corpus cache holds a word id outside its {v}-word vocabulary",
                        path=path)
    n_labels = len(header["label_names"] or ())
    if any(d.label is not None and d.label >= n_labels for d in docs):
        raise DataError(f"corpus cache holds a label outside its {n_labels} label names",
                        path=path)
    split = CorpusSplit(
        train=parts[0],
        validation=parts[1],
        test=parts[2],
        label_names=header["label_names"],
        k_gold=header["k_gold"],
    )
    return Corpus(
        vocabulary=vocabulary,
        split=split,
        options=header["options"],
        seed=header["seed"],
        ratios=tuple(header["ratios"]),
    )
