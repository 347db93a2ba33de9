"""Pretrained word embeddings aligned to a vocabulary.

Input format: UTF-8 text, one word per line, "word v1 v2 ... vdim",
whitespace separated, read in bounded chunks by numpy's C text reader.

Words missing from the file (OOV) get reproducible uniform(-0.1, 0.1) fills
drawn from a stream keyed by (seed, word), so the fill for a given word is
identical across loads regardless of file order or which other words are
missing.  `cosine_similarity` is the scalar reference similarity, used as is
by the embedding-based diversity metrics.  `cosine_weights` is its batched
form for graph construction, certified against a floor (the graph threshold
delta): every entry whose float32 rounding of the scalar value reaches the
floor is that rounding, bit for bit; every other entry is below the floor.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .artifact import read_text
from .corpus import Vocabulary
from .errors import DataError
from .rng import stream


@dataclass
class EmbeddingMatrix:
    """Rows aligned with vocabulary ids; float32 storage."""

    vectors: np.ndarray      # (V, dim) float32
    oov_mask: np.ndarray     # (V,) bool, True where the row was filled
    vocabulary: Vocabulary

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        self.oov_mask = np.asarray(self.oov_mask, dtype=bool)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocabulary):
            raise DataError(
                f"embedding matrix shape {self.vectors.shape} does not match "
                f"vocabulary size {len(self.vocabulary)}"
            )

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def oov_count(self) -> int:
        return int(self.oov_mask.sum())

    @property
    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(struct.pack("<II", *self.vectors.shape))
        h.update(self.vectors.astype("<f4").tobytes())
        return h.hexdigest()

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.vocabulary.id_of(word)]


def cosine_similarity(u, v) -> float:
    """cos(u, v) in float64, clamped to [-1, 1]; zero-norm vectors score 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.sqrt(np.dot(u, u)))
    nv = float(np.sqrt(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(np.dot(u, v)) / (nu * nv)
    return min(1.0, max(-1.0, c))


def _oov_fill(word: str, dim: int, seed: int) -> np.ndarray:
    gen = stream(seed, f"embedding/oov/{word}")
    return gen.uniform(-0.1, 0.1, size=dim).astype(np.float32)


_CHUNK_BYTES = 1 << 18


def load_embeddings(path, vocabulary: Vocabulary, seed: int = 0) -> EmbeddingMatrix:
    """Load text embeddings and align them to `vocabulary`.

    numpy's C text reader parses the file one chunk of about _CHUNK_BYTES
    characters at a time, and each chunk's vocabulary rows are scattered
    into the matrix, so memory does not grow with the file.  Blank lines are
    skipped; `dim` comes from the first other line, and every line, in the
    vocabulary or not, must carry `dim` finite float32 components.  A word
    given twice takes its last line.

    Raises DataError naming the 1-based line that breaks these rules, or if
    the file shares no words with the vocabulary at all (a wrong-file guard;
    pure OOV fill would train on noise).
    """
    word_id = vocabulary.index.get
    converters = {0: lambda word: word_id(word, -1)}
    vectors = found = dim = None
    lineno = 1
    with read_text(path, "embedding file") as fh:
        while chunk := fh.readlines(_CHUNK_BYTES):
            if any(map(str.strip, chunk)):
                try:
                    rows = np.loadtxt(chunk, comments=None, ndmin=2, converters=converters)
                    with np.errstate(over="ignore"):
                        values = rows[:, 1:].astype(np.float32)
                    width = values.shape[1]
                    ok = width > 0 and width == (dim or width) and np.isfinite(values).all()
                except ValueError:
                    ok = False
                if not ok:
                    _raise_first_bad_line(chunk, lineno, dim, converters, path)
                if vectors is None:
                    dim = width
                    vectors = np.empty((len(vocabulary), dim), dtype=np.float32)
                    found = np.zeros(len(vocabulary), dtype=bool)
                ids = rows[:, 0].astype(np.intp)
                # numpy leaves unsaid which of repeated indices an assignment
                # keeps, so pick each word's last row of the chunk first
                last = len(ids) - 1 - np.unique(ids[::-1], return_index=True)[1]
                last = last[ids[last] >= 0]
                vectors[ids[last]] = values[last]
                found[ids[last]] = True
            lineno += len(chunk)
    if found is None or not found.any():
        raise DataError("embedding file shares no words with the vocabulary", path=path)
    for i in np.flatnonzero(~found):
        vectors[i] = _oov_fill(vocabulary.words[i], dim, seed)
    return EmbeddingMatrix(vectors=vectors, oov_mask=~found, vocabulary=vocabulary)


def _raise_first_bad_line(chunk, lineno, dim, converters, path):
    """Raise the DataError for the first line of `chunk` that breaks a rule.

    The chunk starts at file line `lineno`; `dim` is None until a chunk has
    loaded.  The chunk reader counts only non-blank rows, and from 0 in every
    chunk, so the error path re-reads the chunk line by line.
    """
    for n, line in enumerate(chunk, start=lineno):
        if not (parts := line.split()):
            continue
        if dim is None:
            dim = len(parts) - 1
            if dim == 0:
                raise DataError(f"line {n}: no vector components", path=path)
        elif len(parts) - 1 != dim:
            raise DataError(f"line {n}: expected {dim} components, got {len(parts) - 1}",
                            path=path)
        try:
            row = np.loadtxt([line], comments=None, converters=converters)
        except ValueError as e:
            raise DataError(f"line {n}: malformed float", path=path) from e
        with np.errstate(over="ignore"):
            if not np.isfinite(row[1:].astype(np.float32)).all():
                raise DataError(f"line {n}: non-finite component", path=path)
    raise DataError(f"lines {lineno}-{n}: unreadable embedding rows", path=path)


_TILE = 256


def _doubtful(cos, bound, floor):
    """Entries of a tile whose float32 rounding `bound` leaves open: the
    float32 interval [lo, hi] of cos -/+ bound does not collapse, and hi
    reaches `floor`."""
    lo = np.clip(cos - bound, -1.0, 1.0).astype(np.float32)
    hi = np.clip(cos + bound, -1.0, 1.0).astype(np.float32)
    return (lo != hi) & (hi >= floor)


def cosine_weights(vectors, ids, floor) -> np.ndarray:
    """float32 cosine of every pair of the rows `ids` of `vectors`, equal to
    the scalar reference at or above `floor`.

    Entry (i, j) is exactly `np.float32(cosine_similarity(vectors[ids[i]],
    vectors[ids[j]]))`, whatever the other ids are, or else it and that exact
    value are both below `floor`.  `floor` is compared with float32 values,
    so pass it as np.float64: a Python float or float32 floor compares in
    float32, which is safe but settles fewer entries.  floor = -1 gives
    every entry exactly.

    Work goes in _TILE x _TILE blocks of the float64 Gram product, each
    gathering its own rows, so no whole copy of the rows is held.  A Gram
    product sums in another order than `np.dot`, so each entry carries the
    error bound (2 dim + 8) eps (sum |u_k v_k| / (|u| |v|) + |c|).  By
    Cauchy-Schwarz sum |u_k v_k| <= |u| |v|, so twice (2 dim + 8) eps
    (1 + |c|) bounds it too, with room for the rounding of the norms.  An
    entry is settled when the float32 rounding of c -/+ that bound is one
    value, or when the upper end is below `floor`.  When more entries of a
    tile than it has rows are left, the tile makes the second product
    |a| @ |b|.T for the tighter bound; exact zeros from disjoint supports
    have a zero tight bound.  An entry still left (a few dozen of the 45,000
    pairs of 300 random 300-d normals) is recomputed with
    `cosine_similarity` itself.
    """
    rows = np.asarray(vectors, dtype=np.float32)
    n, dim = len(ids), rows.shape[1]
    out = np.empty((n, n), dtype=np.float32)
    slack = (2 * dim + 8) * np.finfo(np.float64).eps
    for r0 in range(0, n, _TILE):
        a = rows[ids[r0: r0 + _TILE]].astype(np.float64)
        a_norm = np.sqrt(np.einsum("ij,ij->i", a, a))
        for c0 in range(r0, n, _TILE):
            b = rows[ids[c0: c0 + _TILE]].astype(np.float64)
            b_norm = np.sqrt(np.einsum("ij,ij->i", b, b))
            norms = np.multiply.outer(a_norm, b_norm)
            nonzero = norms != 0.0
            cos = np.divide(a @ b.T, norms, out=np.zeros_like(norms), where=nonzero)
            # 2 slack (1 + |c|) where both norms are nonzero, else 0: a zero
            # row's cosines are exact zeros
            bound = np.abs(cos)
            bound += nonzero
            bound *= 2 * slack
            doubtful = _doubtful(cos, bound, floor)
            if np.count_nonzero(doubtful) > len(a):
                bound = np.divide(np.abs(a) @ np.abs(b, out=b).T, norms,
                                  out=np.zeros_like(norms), where=nonzero)
                bound = slack * (bound + np.abs(cos))
                doubtful = _doubtful(cos, bound, floor)
            block = np.clip(cos, -1.0, 1.0).astype(np.float32)
            for i, j in zip(*np.nonzero(doubtful)):
                block[i, j] = cosine_similarity(rows[ids[r0 + i]], rows[ids[c0 + j]])
            out[r0: r0 + _TILE, c0: c0 + _TILE] = block
            # cosine_similarity is symmetric bit for bit, so mirror the block
            out[c0: c0 + _TILE, r0: r0 + _TILE] = block.T
    return out


class SimilarityCache:
    """Float32 cosine table of the words `ids`: the weights document graphs store.

    Entry (i, j) is the float32 rounding of `cosine_similarity` of words
    ids[i] and ids[j], as `cosine_weights` builds it, whatever other words
    the table holds, or else it and that rounding are both below `floor`
    (see `cosine_weights`, also for when a tile makes its second Gram
    product).  Quadratic in len(ids); intended for a few thousand words.
    """

    def __init__(self, embeddings: EmbeddingMatrix, ids, floor):
        self.table = cosine_weights(embeddings.vectors, ids, floor)
