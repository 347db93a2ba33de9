"""Word-similarity document graphs.

One weighted undirected graph per document: nodes are the document's distinct
words in first-occurrence order, and a pair (i, j) is connected iff the
cosine similarity of their embeddings is >= delta (pairs exactly at the
threshold are kept).  The edge weight is that similarity.  No self-loops are
stored; the (1+epsilon) self-contribution is added during aggregation.

Similarities are quantized to float32 *before* the delta comparison so the
float32 cache round-trips bit-for-bit and every stored weight still satisfies
weight >= delta after reload.  Each weight is `np.float32(cosine_similarity)`
of the two words, taken in one block per document from `cosine_weights` (or
its precomputed `SimilarityCache` table), the exact batched form of that
scalar.  Graph construction is a pure function of (document, embeddings,
delta): identical inputs give byte-identical caches.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document
from .embedding import EmbeddingMatrix, SimilarityCache, cosine_weights
from .errors import ConfigError, ContractError, DataError

log = logging.getLogger(__name__)

_MAGIC = b"GINOGRAPH1\n"
# One stored edge: node-local (i, j) and the float32 weight, as struct "<IIf".
_EDGE = np.dtype([("i", "<u4"), ("j", "<u4"), ("w", "<f4")])

# SimilarityCache is quadratic in V; above this size each document computes its own block.
_SIM_CACHE_MAX_V = 3000


@dataclass(frozen=True)
class DocumentGraph:
    """Nodes as vocabulary ids plus sparse upper-triangle adjacency."""

    node_ids: tuple        # vocabulary ids, first-occurrence order
    adjacency: tuple       # (i, j, weight) with i < j, node-local indices
    delta: float

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.adjacency)

    def to_dense(self) -> np.ndarray:
        """Symmetric dense adjacency (float64), zero diagonal."""
        n = self.n_nodes
        a = np.zeros((n, n), dtype=np.float64)
        for i, j, w in self.adjacency:
            a[i, j] = w
            a[j, i] = w
        return a


def validate_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"delta must lie in [0, 1], got {delta}")
    return delta


def build_document_graph(
    document: Document,
    embeddings: EmbeddingMatrix,
    delta: float,
    sim_cache: SimilarityCache | None = None,
) -> DocumentGraph:
    """Threshold all word pairs of one document at delta."""
    delta = validate_delta(delta)
    node_ids = document.distinct_ids
    if sim_cache is not None:
        block = sim_cache.table[np.ix_(node_ids, node_ids)]
    else:
        block = cosine_weights(embeddings.vectors[node_ids])
    # np.float64: a Python float would compare in float32 and keep
    # weights float32(delta) < delta
    i, j = np.nonzero(np.triu(block >= np.float64(delta), 1))
    return DocumentGraph(
        node_ids=tuple(node_ids.tolist()),
        adjacency=tuple(zip(i.tolist(), j.tolist(), block[i, j].tolist())),
        delta=delta,
    )


@dataclass
class GraphStore:
    """All document graphs of a corpus, in train/validation/test order."""

    delta: float
    corpus_sha256: str
    embedding_sha256: str
    graphs: list
    split_sizes: tuple  # (n_train, n_validation, n_test)

    def __len__(self) -> int:
        return len(self.graphs)

    def train_graphs(self) -> list:
        return self.graphs[: self.split_sizes[0]]

    def validation_graphs(self) -> list:
        a = self.split_sizes[0]
        return self.graphs[a: a + self.split_sizes[1]]

    def test_graphs(self) -> list:
        a = self.split_sizes[0] + self.split_sizes[1]
        return self.graphs[a:]

    def save(self, path) -> None:
        save_graph_store(self, path)


def build_all_graphs(
    corpus: Corpus,
    embeddings: EmbeddingMatrix,
    delta: float,
    cache_path=None,
) -> GraphStore:
    """Build (or reload) the graph store for every document of the corpus.

    A cache at `cache_path` is reused only when its (corpus, embeddings,
    delta) key matches; on mismatch or when it is unreadable it is rebuilt
    with a logged warning.
    """
    delta = validate_delta(delta)
    corpus_hash = corpus.sha256
    emb_hash = embeddings.sha256
    if cache_path is not None and os.path.exists(cache_path):
        try:
            store = load_graph_store(cache_path)
        except DataError as e:
            log.warning("graph cache unreadable, rebuilding: %s", e)
        else:
            if (
                store.delta == delta
                and store.corpus_sha256 == corpus_hash
                and store.embedding_sha256 == emb_hash
            ):
                return store
            log.warning(
                "graph cache key mismatch (delta/corpus/embeddings), rebuilding %s",
                cache_path,
            )

    sim_cache = None
    if len(corpus.vocabulary) <= _SIM_CACHE_MAX_V:
        sim_cache = SimilarityCache(embeddings)
    graphs = [build_document_graph(doc, embeddings, delta, sim_cache)
              for doc in corpus.split.all_documents()]
    store = GraphStore(
        delta=delta,
        corpus_sha256=corpus_hash,
        embedding_sha256=emb_hash,
        graphs=graphs,
        split_sizes=corpus.split.sizes,
    )
    if cache_path is not None:
        save_graph_store(store, cache_path)
    return store


@dataclass
class DensityReport:
    mean_nodes: float
    mean_edges: float
    mean_density: float
    densities: np.ndarray

    def __str__(self) -> str:
        return (
            f"graphs: mean nodes {self.mean_nodes:.2f}, mean edges {self.mean_edges:.2f}, "
            f"mean density {self.mean_density:.4f}"
        )


def graph_density_report(store: GraphStore) -> DensityReport:
    """Per-document edge density (edges over possible pairs) plus corpus means."""
    if not store.graphs:
        raise ContractError("graph store is empty")
    nodes = np.array([g.n_nodes for g in store.graphs], dtype=np.float64)
    edges = np.array([g.n_edges for g in store.graphs], dtype=np.float64)
    possible = nodes * (nodes - 1) / 2.0
    densities = np.where(possible > 0, edges / np.maximum(possible, 1.0), 0.0)
    return DensityReport(
        mean_nodes=float(nodes.mean()),
        mean_edges=float(edges.mean()),
        mean_density=float(densities.mean()),
        densities=densities,
    )


# ---------------------------------------------------------------------------
# Cache format
# ---------------------------------------------------------------------------

def _read_exact(fh, n: int, end: int, path) -> bytes:
    # checked against the file size first, so a corrupt length cannot
    # make read() allocate more than the file holds
    if n > end - fh.tell():
        raise DataError("truncated graph cache", path=path)
    return fh.read(n)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


_HEADER_FIELDS = {
    "delta": lambda v: type(v) in (int, float) and 0.0 <= v <= 1.0,
    "corpus_sha256": lambda v: type(v) is str,
    "embedding_sha256": lambda v: type(v) is str,
    "split_sizes": lambda v: type(v) is list and len(v) == 3 and all(map(_is_count, v)),
    "n_graphs": _is_count,
}


def _parse_header(raw: bytes, path) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"graph cache header is not UTF-8 JSON: {e}", path=path) from e
    if type(header) is not dict:
        raise DataError("graph cache header is not a JSON object", path=path)
    if header.get("version") != 1:
        raise DataError(f"unsupported graph cache version {header.get('version')!r}", path=path)
    for key, valid in _HEADER_FIELDS.items():
        if key not in header or not valid(header[key]):
            raise DataError(f"graph cache header field {key!r} missing or malformed", path=path)
    return header


def save_graph_store(store: GraphStore, path) -> None:
    """Write the cache through a temp file in the same directory, then
    `os.replace` it, so a failed write leaves any previous cache intact."""
    header = {
        "version": 1,
        "delta": store.delta,
        "corpus_sha256": store.corpus_sha256,
        "embedding_sha256": store.embedding_sha256,
        "split_sizes": list(store.split_sizes),
        "n_graphs": len(store.graphs),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    done = False
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(head)))
            fh.write(head)
            for g in store.graphs:
                fh.write(struct.pack("<I", g.n_nodes))
                fh.write(np.asarray(g.node_ids, dtype="<u4").tobytes())
                fh.write(struct.pack("<I", g.n_edges))
                fh.write(np.array(list(g.adjacency), dtype=_EDGE).tobytes())
        os.replace(tmp, path)
        done = True
    except OSError as e:
        raise DataError(f"cannot write graph cache: {e}", path=path) from e
    finally:
        if not done:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_graph_store(path) -> GraphStore:
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read graph cache: {e}", path=path) from e
    with fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise DataError("not a graph cache (bad magic)", path=path)
        (head_len,) = struct.unpack("<Q", _read_exact(fh, 8, end, path))
        header = _parse_header(_read_exact(fh, head_len, end, path), path)
        graphs = []
        for _ in range(header["n_graphs"]):
            (n_nodes,) = struct.unpack("<I", _read_exact(fh, 4, end, path))
            ids = np.frombuffer(_read_exact(fh, 4 * n_nodes, end, path), dtype="<u4")
            (n_edges,) = struct.unpack("<I", _read_exact(fh, 4, end, path))
            edges = np.frombuffer(_read_exact(fh, _EDGE.itemsize * n_edges, end, path),
                                  dtype=_EDGE)
            graphs.append(
                DocumentGraph(
                    node_ids=tuple(ids.tolist()),
                    adjacency=tuple(edges.tolist()),
                    delta=header["delta"],
                )
            )
        if fh.read(1):
            raise DataError("trailing bytes after graph cache payload", path=path)
    return GraphStore(
        delta=header["delta"],
        corpus_sha256=header["corpus_sha256"],
        embedding_sha256=header["embedding_sha256"],
        graphs=graphs,
        split_sizes=tuple(header["split_sizes"]),
    )
