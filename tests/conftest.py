"""Shared fixtures and helpers for the test suite."""
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ginopic
from ginopic import corpus as corpus_module
from ginopic.corpus import Corpus, CorpusColumns, CorpusSplit, Document, Vocabulary
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


def make_embeddings(vocabulary, vectors):
    vectors = np.asarray(vectors, dtype=np.float32)
    return EmbeddingMatrix(
        vectors=vectors,
        oov_mask=np.zeros(vectors.shape[0], dtype=bool),
        vocabulary=vocabulary,
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


# Loads each file given on the command line with the `load(path)` that the
# source in argv[2] defines, under an address-space limit that only this
# child process has, and prints how each load ended.
_LIMITED_LOADER = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from ginopic.errors import DataError
exec(sys.argv[2])
for path in sys.argv[3:]:
    try:
        load(path)
        print("loaded")
    except DataError:
        print("DataError")
    except MemoryError:
        print("MemoryError")
"""


def load_under_limit(loader, paths, limit=2 ** 30):
    """How loading each of `paths` ends ("loaded", "DataError" or
    "MemoryError"), all in one child process whose address space is capped
    at `limit` bytes; `loader` is Python source that defines `load(path)`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ginopic.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _LIMITED_LOADER, str(limit), loader,
                           *map(str, paths)], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def make_document(token_ids, label=None):
    return Document(token_ids=np.asarray(token_ids, dtype=np.int32), label=label)


def make_corpus(vocabulary, train, validation=(), test=()):
    """A corpus over `vocabulary` whose splits are the given `Document`
    lists, in that order and unshuffled, with the idf fit on `train` as
    `load_corpus` fits it."""
    docs = [*train, *validation, *test]
    sizes = (len(train), len(validation), len(test))
    split = CorpusSplit(CorpusColumns.pack(docs), sizes)
    corpus_module._weigh(split, len(vocabulary))
    return Corpus(vocabulary=vocabulary, split=split, options={}, seed=0,
                  ratios=tuple(n / len(docs) for n in sizes))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
