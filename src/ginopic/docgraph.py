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

import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .artifact import is_count, is_number, read_artifact, write_artifact
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

_HEADER_FIELDS = {
    "delta": lambda v: is_number(v) and 0.0 <= v <= 1.0,
    "corpus_sha256": lambda v: type(v) is str,
    "embedding_sha256": lambda v: type(v) is str,
    "split_sizes": lambda v: type(v) is list and len(v) == 3 and all(map(is_count, v)),
    "n_graphs": is_count,
}


def save_graph_store(store: GraphStore, path) -> None:
    """Write the cache atomically (see `artifact.write_artifact`)."""
    header = {
        "version": 1,
        "delta": store.delta,
        "corpus_sha256": store.corpus_sha256,
        "embedding_sha256": store.embedding_sha256,
        "split_sizes": list(store.split_sizes),
        "n_graphs": len(store.graphs),
    }
    with write_artifact(path, _MAGIC, header, "graph cache") as fh:
        for g in store.graphs:
            fh.write(struct.pack("<I", g.n_nodes))
            fh.write(np.asarray(g.node_ids, dtype="<u4").tobytes())
            fh.write(struct.pack("<I", g.n_edges))
            fh.write(np.array(list(g.adjacency), dtype=_EDGE).tobytes())


def load_graph_store(path) -> GraphStore:
    with read_artifact(path, _MAGIC, _HEADER_FIELDS, "graph cache") as (header, read):
        if sum(header["split_sizes"]) != header["n_graphs"]:
            raise DataError(f"graph cache split sizes {header['split_sizes']} do not add up "
                            f"to {header['n_graphs']} graphs", path=path)
        graphs = []
        for _ in range(header["n_graphs"]):
            (n_nodes,) = struct.unpack("<I", read(4))
            ids = np.frombuffer(read(4 * n_nodes), dtype="<u4")
            (n_edges,) = struct.unpack("<I", read(4))
            edges = np.frombuffer(read(_EDGE.itemsize * n_edges), dtype=_EDGE)
            # checked per graph: holding every graph's edge buffer for one
            # check at the end would add their bytes to the loader's peak
            if n_edges and not ((edges["i"] < edges["j"]).all() and edges["j"].max() < n_nodes):
                raise DataError("graph cache edge is not (i, j) with i < j < its graph's nodes",
                                path=path)
            graphs.append(
                DocumentGraph(
                    node_ids=tuple(ids.tolist()),
                    adjacency=tuple(edges.tolist()),
                    delta=header["delta"],
                )
            )
    return GraphStore(
        delta=header["delta"],
        corpus_sha256=header["corpus_sha256"],
        embedding_sha256=header["embedding_sha256"],
        graphs=graphs,
        split_sizes=tuple(header["split_sizes"]),
    )
