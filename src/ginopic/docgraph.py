"""Word-similarity document graphs.

One weighted undirected graph per document: nodes are the document's distinct
words in first-occurrence order, and a pair (i, j) is connected iff the
cosine similarity of their embeddings is >= delta (pairs exactly at the
threshold are kept).  The edge weight is that similarity.  No self-loops are
stored; the (1+epsilon) self-contribution is added during aggregation.

Similarities are quantized to float32 *before* the delta comparison so the
float32 file round-trips bit-for-bit and every stored weight still satisfies
weight >= delta after reload.  Each weight is `np.float32(cosine_similarity)`
of the two words, read from a `cosine_weights` table with floor delta (the
batched form of that scalar, exact at or above delta whatever other words
the table holds, and below delta elsewhere).  Graph construction
is a pure function of (document, embeddings, delta): identical inputs give
byte-identical files.

There is one builder, `_build_columns`: `build_all_graphs` runs it on the
whole corpus and `build_document_graph` on one document.  It builds every
graph in one pass over whole-corpus arrays, with no per-document loop.  One
`np.unique` over row * V + id, with the first positions sorted back into
token order, gives every document's nodes in first-occurrence order.  Node k
of a document of nodes s..e-1 pairs with nodes k+1..e-1, so the pairs of all
nodes in turn are every document's pairs i < j in row-major order;
`_PAIR_CHUNK` of them at a time are made by `np.repeat` arithmetic on their
pointers, gathered from the table and thresholded.  The table is one
`SimilarityCache` of the words the documents hold, when there are at most
`_SIM_CACHE_MAX_V` of them; otherwise each document gets a table of its own
distinct words.

A store holds all of its graphs in one `GraphColumns`: the concatenated node
ids and edge arrays of every graph plus CSR-style pointers into them.  Build,
store save and load, and minibatch assembly (`gin.batch_adjacency`) work on
these arrays whole, and the file (GINOGRAPH2) stores them as they are, each
whole after every graph's node and edge counts.  Indexing the columns with an
int, or iterating them, gives the per-graph `DocumentGraph` value with plain
Python tuples; a slice or an index array gives another `GraphColumns`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .artifact import is_count, is_number, read_artifact, write_artifact
from .corpus import Corpus, CorpusColumns, Document, concat, offsets, take_runs, token_rows
from .embedding import EmbeddingMatrix, SimilarityCache, cosine_weights
from .errors import ConfigError, ContractError, DataError

_MAGIC = b"GINOGRAPH2\n"

# SimilarityCache is quadratic in the words it holds; above this many held
# words each document computes a table of its own distinct words.
_SIM_CACHE_MAX_V = 3000
# Pairs are gathered and thresholded this many at a time, so the build's
# temporaries stay a few MB on any corpus.
_PAIR_CHUNK = 2 ** 16


@dataclass(frozen=True)
class DocumentGraph:
    """Nodes as vocabulary ids plus sparse upper-triangle adjacency."""

    node_ids: tuple        # vocabulary ids, first-occurrence order
    adjacency: tuple       # (i, j, weight) with i < j, node-local indices

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.adjacency)


@dataclass(frozen=True, eq=False)
class GraphColumns:
    """Graphs as arrays.  Graph k has the nodes
    `node_ids[node_ptr[k]:node_ptr[k+1]]` and the edges
    `(src, dst, weight)[edge_ptr[k]:edge_ptr[k+1]]`, node-local with
    src < dst.  Node ids, src and dst are `<u4`, as in the cache; weights are
    float64; both pointer arrays are int64 and start at 0."""

    node_ptr: np.ndarray
    node_ids: np.ndarray
    edge_ptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @classmethod
    def pack(cls, graphs) -> "GraphColumns":
        """The columns of a list of `DocumentGraph`s."""
        node_ptr = offsets([g.n_nodes for g in graphs])
        edge_ptr = offsets([g.n_edges for g in graphs])
        node_ids = np.fromiter(chain.from_iterable(g.node_ids for g in graphs),
                               dtype="<u4", count=int(node_ptr[-1]))
        edges = np.fromiter(chain.from_iterable(g.adjacency for g in graphs),
                            dtype=[("i", "<u4"), ("j", "<u4"), ("w", np.float64)],
                            count=int(edge_ptr[-1]))
        return cls(node_ptr, node_ids, edge_ptr, edges["i"].copy(), edges["j"].copy(),
                   edges["w"].copy())

    def __len__(self) -> int:
        return self.node_ptr.size - 1

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = range(len(self))[key]
            a, b = self.node_ptr[k: k + 2]
            e, f = self.edge_ptr[k: k + 2]
            return DocumentGraph(
                node_ids=tuple(self.node_ids[a:b].tolist()),
                adjacency=tuple(zip(self.src[e:f].tolist(), self.dst[e:f].tolist(),
                                    self.weight[e:f].tolist())),
            )
        idx = np.arange(len(self))[key]
        node_ptr, node_at = take_runs(self.node_ptr, idx)
        edge_ptr, edge_at = take_runs(self.edge_ptr, idx)
        return GraphColumns(node_ptr, self.node_ids[node_at], edge_ptr, self.src[edge_at],
                            self.dst[edge_at], self.weight[edge_at])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def validate_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"delta must lie in [0, 1], got {delta}")
    return delta


def build_document_graph(document: Document, embeddings: EmbeddingMatrix,
                         delta: float) -> DocumentGraph:
    """Threshold all word pairs of one document at delta, by the build
    `build_all_graphs` runs."""
    return _build_columns(CorpusColumns.pack([document]), embeddings, validate_delta(delta))[0]


@dataclass
class GraphStore:
    """All document graphs of a corpus, in train/validation/test order."""

    delta: float
    corpus_sha256: str
    embedding_sha256: str  # provenance only: no check compares it
    graphs: GraphColumns
    split_sizes: tuple  # (n_train, n_validation, n_test)

    def __len__(self) -> int:
        return len(self.graphs)

    def train_graphs(self) -> GraphColumns:
        return self.graphs[: self.split_sizes[0]]

    def validation_graphs(self) -> GraphColumns:
        a = self.split_sizes[0]
        return self.graphs[a: a + self.split_sizes[1]]

    def test_graphs(self) -> GraphColumns:
        a = self.split_sizes[0] + self.split_sizes[1]
        return self.graphs[a:]


def build_all_graphs(corpus: Corpus, embeddings: EmbeddingMatrix, delta: float) -> GraphStore:
    """The graph store for every document of the corpus, in split order.

    A pure function of (corpus, embeddings, delta); it reads and writes no
    file.  `save_graph_store` writes the result.  The embeddings must be
    aligned to the corpus's vocabulary.
    """
    delta = validate_delta(delta)
    if embeddings.vocabulary.words != corpus.vocabulary.words:
        raise ContractError("embeddings are aligned to another vocabulary than the corpus's")
    graphs = _build_columns(corpus.split.documents, embeddings, delta)
    return GraphStore(
        delta=delta,
        corpus_sha256=corpus.sha256,
        embedding_sha256=embeddings.sha256,
        graphs=graphs,
        split_sizes=corpus.split.sizes,
    )


def _build_columns(documents, embeddings: EmbeddingMatrix, delta: float) -> GraphColumns:
    """Every document's graph from whole-corpus arrays (see the module docstring)."""
    node_ids, node_doc = _nodes(documents, len(embeddings.vectors))
    node_ptr = offsets(np.bincount(node_doc, minlength=len(documents)))
    # node k pairs with the later nodes of its document: pair_ptr[k + 1] - pair_ptr[k]
    # of them, so the pairs of node k, then node k + 1, ... are row-major
    pair_ptr = offsets(node_ptr[node_doc + 1] - 1 - np.arange(node_ids.size))
    src, dst, weight = [], [], []
    n_edges = np.zeros(len(documents), np.int64)
    # np.float64: a Python float would compare in float32 and keep weights
    # float32(delta) < delta
    floor = np.float64(delta)
    for a, b, table, ids in _runs(node_ids, node_ptr, embeddings, floor):
        for lo in range(pair_ptr[a], pair_ptr[b], _PAIR_CHUNK):
            i, j = _pairs(pair_ptr, lo, min(lo + _PAIR_CHUNK, pair_ptr[b]))
            w = table[ids[i - a], ids[j - a]]
            keep = w >= floor
            i, j = i[keep], j[keep]
            doc = node_doc[i]
            src.append((i - node_ptr[doc]).astype("<u4"))
            dst.append((j - node_ptr[doc]).astype("<u4"))
            weight.append(w[keep])
            np.add.at(n_edges, doc, 1)
    return GraphColumns(node_ptr, node_ids.astype("<u4"), offsets(n_edges), concat(src, "<u4"),
                        concat(dst, "<u4"), concat(weight, np.float64))


def _nodes(documents: CorpusColumns, vocab_size: int):
    """(word id, document row) of every document's distinct words in
    first-occurrence order, documents in turn."""
    tokens, rows = token_rows(documents, vocab_size)
    _, first = np.unique(rows * vocab_size + tokens, return_index=True)
    first.sort()
    return tokens[first], rows[first]


def _runs(node_ids, node_ptr, embeddings: EmbeddingMatrix, floor):
    """(a, b, table, ids) per run of whole documents, nodes a..b-1: node k's
    word is row and column ids[k - a] of the float32 cosine table, exact at
    or above `floor` (see `cosine_weights`).  One run over a
    `SimilarityCache` of the words the documents hold, if there are at most
    `_SIM_CACHE_MAX_V` of them; else one run per document, with a table of
    its own distinct words."""
    present = np.bincount(node_ids, minlength=len(embeddings.vectors)) > 0
    if present.sum() <= _SIM_CACHE_MAX_V:
        table = SimilarityCache(embeddings, np.flatnonzero(present), floor).table
        yield 0, node_ids.size, table, (np.cumsum(present) - 1)[node_ids]
        return
    for a, b in zip(node_ptr[:-1].tolist(), node_ptr[1:].tolist()):
        yield a, b, cosine_weights(embeddings.vectors, node_ids[a:b], floor), np.arange(b - a)


def _pairs(pair_ptr, lo: int, hi: int):
    """Node indices (i, j) of pairs lo..hi-1: pair p belongs to the node i
    with pair_ptr[i] <= p < pair_ptr[i + 1], and j = i + 1 + p - pair_ptr[i]."""
    first = np.searchsorted(pair_ptr, lo, "right") - 1
    end = np.searchsorted(pair_ptr, hi)
    counts = (np.minimum(pair_ptr[first + 1: end + 1], hi)
              - np.maximum(pair_ptr[first:end], lo))
    i = np.repeat(np.arange(first, end), counts)
    return i, i + 1 + np.arange(lo, hi) - pair_ptr[i]


@dataclass
class DensityReport:
    mean_nodes: float
    mean_edges: float
    mean_density: float
    densities: np.ndarray


def graph_density_report(store: GraphStore) -> DensityReport:
    """Per-document edge density (edges over possible pairs) plus corpus means."""
    if not len(store.graphs):
        raise ContractError("graph store is empty")
    nodes = np.diff(store.graphs.node_ptr).astype(np.float64)
    edges = np.diff(store.graphs.edge_ptr).astype(np.float64)
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
#
# The payload is the columns of `GraphColumns`, each whole and little-endian:
# every graph's n_nodes (<u4), then every graph's n_edges (<u4), then
# node_ids, src and dst (<u4), then weight (<f4).

_HEADER_FIELDS = {
    "delta": lambda v: is_number(v) and 0.0 <= v <= 1.0,
    "corpus_sha256": lambda v: type(v) is str,
    "embedding_sha256": lambda v: type(v) is str,
    "split_sizes": lambda v: type(v) is list and len(v) == 3 and all(map(is_count, v)),
    "n_graphs": is_count,
}


def save_graph_store(store: GraphStore, path) -> None:
    """Write the store atomically (see `artifact.write_artifact`)."""
    g = store.graphs
    header = {
        "version": 1,
        "delta": store.delta,
        "corpus_sha256": store.corpus_sha256,
        "embedding_sha256": store.embedding_sha256,
        "split_sizes": list(store.split_sizes),
        "n_graphs": len(g),
    }
    with write_artifact(path, _MAGIC, header, "graph cache") as fh:
        for column in (np.diff(g.node_ptr), np.diff(g.edge_ptr), g.node_ids, g.src, g.dst):
            fh.write(column.astype("<u4"))
        fh.write(g.weight.astype("<f4"))


def load_graph_store(path) -> GraphStore:
    with read_artifact(path, _MAGIC, _HEADER_FIELDS, "graph cache") as (header, read):
        if sum(header["split_sizes"]) != header["n_graphs"]:
            raise DataError(f"graph cache split sizes {header['split_sizes']} do not add up "
                            f"to {header['n_graphs']} graphs", path=path)
        n_nodes, n_edges = np.frombuffer(read(8 * header["n_graphs"]), "<u4").reshape(2, -1)
        node_ptr, edge_ptr = offsets(n_nodes), offsets(n_edges)
        node_ids = np.frombuffer(read(4 * int(node_ptr[-1])), "<u4")
        # src and dst apart from the weights, so the float32 bytes are not
        # kept alive by views into one buffer
        src, dst = np.frombuffer(read(8 * int(edge_ptr[-1])), "<u4").reshape(2, -1)
        weight = np.frombuffer(read(4 * int(edge_ptr[-1])), "<f4").astype(np.float64)
    if not ((src < dst).all() and (dst < np.repeat(n_nodes, n_edges)).all()):
        raise DataError("graph cache edge is not (i, j) with i < j < its graph's nodes",
                        path=path)
    graphs = GraphColumns(node_ptr, node_ids, edge_ptr, src, dst, weight)
    return GraphStore(
        delta=header["delta"],
        corpus_sha256=header["corpus_sha256"],
        embedding_sha256=header["embedding_sha256"],
        graphs=graphs,
        split_sizes=tuple(header["split_sizes"]),
    )
