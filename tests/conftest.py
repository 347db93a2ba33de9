"""Shared fixtures and helpers for the test suite."""
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ginopic.corpus import Document, Vocabulary
from ginopic.embedding import EmbeddingMatrix

settings.register_profile(
    "ginopic",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("ginopic")


def make_vocabulary(words, doc_frequency=None):
    if doc_frequency is None:
        doc_frequency = np.ones(len(words), dtype=np.int64)
    return Vocabulary(words=list(words), doc_frequency=doc_frequency)


def make_embeddings(vocabulary, vectors, seed=0):
    vectors = np.asarray(vectors, dtype=np.float32)
    return EmbeddingMatrix(
        vectors=vectors,
        oov_mask=np.zeros(vectors.shape[0], dtype=bool),
        vocabulary=vocabulary,
        seed=seed,
    )


def rewrite_header(path, magic, edit):
    """Replace the JSON header of the artifact file at `path` by
    `edit(header)`, keeping its payload: a dict is re-encoded, bytes are
    written as they are, None writes a header length past the file's end."""
    blob = path.read_bytes()
    start = len(magic)
    (n,) = struct.unpack("<Q", blob[start: start + 8])
    head = edit(json.loads(blob[start + 8: start + 8 + n])) if callable(edit) else edit
    if head is None:
        path.write_bytes(magic + struct.pack("<Q", 2 ** 62) + b"{}")
        return
    if isinstance(head, dict):
        head = json.dumps(head).encode()
    path.write_bytes(magic + struct.pack("<Q", len(head)) + head + blob[start + 8 + n:])


def make_document(token_ids, label=None):
    return Document(token_ids=np.asarray(token_ids, dtype=np.int32), label=label)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
