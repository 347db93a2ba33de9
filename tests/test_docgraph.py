"""Document graph construction against a brute-force reference, plus the store file."""
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginopic import docgraph
from ginopic.corpus import build_corpus
from ginopic.docgraph import (
    DocumentGraph,
    GraphColumns,
    GraphStore,
    build_all_graphs,
    build_document_graph,
    graph_density_report,
    load_graph_store,
    save_graph_store,
    validate_delta,
)
from ginopic.embedding import cosine_weights
from ginopic.errors import ConfigError, ContractError, DataError

from conftest import (load_under_limit, make_corpus, make_document, make_embeddings,
                      make_vocabulary)


def brute_force_graph(document, embeddings, delta):
    """Reference construction straight from the definition: distinct words in
    first-occurrence order, an edge wherever the float32-quantized cosine
    clears the threshold, weight equal to that quantized similarity."""
    seen = []
    for t in document.token_ids:
        t = int(t)
        if t not in seen:
            seen.append(t)
    edges = []
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            u = embeddings.vectors[seen[i]].astype(np.float64)
            v = embeddings.vectors[seen[j]].astype(np.float64)
            nu = math.sqrt(float(np.dot(u, u)))
            nv = math.sqrt(float(np.dot(v, v)))
            if nu == 0.0 or nv == 0.0:
                sim = 0.0
            else:
                sim = min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv)))
            w = float(np.float32(sim))
            if w >= delta:
                edges.append((i, j, w))
    return tuple(seen), tuple(edges)


def random_embeddings(v, dim, seed):
    vocab = make_vocabulary([f"w{i:03d}" for i in range(v)])
    gen = np.random.default_rng(seed)
    return make_embeddings(vocab, gen.normal(size=(v, dim)))


COLUMNS = ("node_ptr", "node_ids", "edge_ptr", "src", "dst", "weight")


def assert_same_columns(a, b):
    """Every array of two `GraphColumns` has the same dtype and bytes."""
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (name, x.dtype, x.tobytes()) == (name, y.dtype, y.tobytes())


class TestBuildDocumentGraph:
    def test_matches_brute_force_exactly(self):
        emb = random_embeddings(30, 8, seed=0)
        gen = np.random.default_rng(1)
        for delta in (0.0, 0.2, 0.5, 0.9):
            for _ in range(25):
                doc = make_document(gen.integers(0, 30, size=gen.integers(1, 40)))
                g = build_document_graph(doc, emb, delta)
                nodes, edges = brute_force_graph(doc, emb, delta)
                assert g.node_ids == nodes
                assert g.adjacency == edges

    def test_edge_exactly_at_threshold_is_kept(self):
        vocab = make_vocabulary(["aa", "bb"])
        emb = make_embeddings(vocab, [[1.0, 0.0], [1.0, 1.0]])
        w = float(np.float32(1.0 / math.sqrt(2.0)))
        g = build_document_graph(make_document([0, 1]), emb, delta=w)
        assert g.n_edges == 1
        assert g.adjacency[0] == (0, 1, w)
        # the tiniest increase of delta removes it
        g2 = build_document_graph(make_document([0, 1]), emb,
                                  delta=np.nextafter(w, 1.0))
        assert g2.n_edges == 0

    def test_similarity_quantized_before_comparison(self):
        # pick vectors whose f64 cosine rounds *down* in float32; an edge at
        # delta = f64 value must then be absent because the stored weight
        # is the quantized one
        gen = np.random.default_rng(3)
        for _ in range(200):
            u, v = gen.normal(size=2 * 5).reshape(2, 5)
            c64 = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            c32 = float(np.float32(c64))
            if 0.0 < c32 < c64:  # rounded down
                vocab = make_vocabulary(["aa", "bb"])
                emb = make_embeddings(vocab, np.stack([u, v]))
                g = build_document_graph(make_document([0, 1]), emb, delta=c64)
                assert g.n_edges == 0
                g2 = build_document_graph(make_document([0, 1]), emb, delta=c32)
                assert g2.n_edges == 1 and g2.adjacency[0][2] == c32
                return
        pytest.fail("no downward-rounding pair found")

    def test_weight_rounded_below_delta_is_dropped(self):
        # float32(0.7) < 0.7: a weight quantized to it must not clear delta 0.7
        theta = math.acos(0.7)
        vocab = make_vocabulary(["aa", "bb"])
        emb = make_embeddings(vocab, [[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        w = float(np.float32(0.7))
        assert w < 0.7
        assert build_document_graph(make_document([0, 1]), emb, delta=w).adjacency == \
            ((0, 1, w),)
        assert build_document_graph(make_document([0, 1]), emb, delta=0.7).n_edges == 0
        corpus = make_corpus(vocab, train=[make_document([0, 1])])
        assert build_all_graphs(corpus, emb, delta=0.7).graphs.edge_ptr[-1] == 0

    def test_nodes_in_first_occurrence_order_no_self_loops(self):
        emb = random_embeddings(10, 4, seed=2)
        g = build_document_graph(make_document([7, 3, 7, 1, 3]), emb, delta=0.0)
        assert g.node_ids == (7, 3, 1)
        for i, j, _ in g.adjacency:
            assert i < j

    def test_delta_zero_connects_all_nonnegative_pairs(self):
        vocab = make_vocabulary(["aa", "bb", "cc"])
        emb = make_embeddings(vocab, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        g = build_document_graph(make_document([0, 1, 2]), emb, delta=0.0)
        # (0,1) cos 0 kept at threshold, (0,2) cos -1 dropped, (1,2) cos 0 kept
        assert {(i, j) for i, j, _ in g.adjacency} == {(0, 1), (1, 2)}

    def test_single_word_document(self):
        emb = random_embeddings(5, 3, seed=0)
        g = build_document_graph(make_document([2, 2, 2]), emb, delta=0.5)
        assert g.node_ids == (2,) and g.n_edges == 0

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_token_id_outside_embeddings_rejected(self, bad):
        emb = random_embeddings(5, 3, seed=0)
        with pytest.raises(ContractError, match="5-word vocabulary"):
            build_document_graph(make_document([0, bad, 1]), emb, delta=0.2)

    def test_delta_validation(self):
        emb = random_embeddings(3, 2, seed=0)
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                build_document_graph(make_document([0, 1]), emb, delta=bad)
        assert validate_delta(1.0) == 1.0
        assert validate_delta(0) == 0.0


@given(
    st.integers(0, 2 ** 31 - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=30)
def test_delta_monotonicity(seed, d1, d2):
    """Raising delta only removes edges; survivors keep identical weights."""
    lo, hi = min(d1, d2), max(d1, d2)
    emb = random_embeddings(15, 5, seed=seed)
    gen = np.random.default_rng(seed)
    doc = make_document(gen.integers(0, 15, size=12))
    g_lo = build_document_graph(doc, emb, lo)
    g_hi = build_document_graph(doc, emb, hi)
    lo_edges = {(i, j): w for i, j, w in g_lo.adjacency}
    hi_edges = {(i, j): w for i, j, w in g_hi.adjacency}
    assert set(hi_edges) <= set(lo_edges)
    for k, w in hi_edges.items():
        assert lo_edges[k] == w
        assert w >= hi
    # exact reconstruction: the high-delta graph is the low one filtered
    assert hi_edges == {k: w for k, w in lo_edges.items() if w >= hi}


class TestGraphStore:
    def _setup(self):
        texts = [
            "alpha bravo charlie delta",
            "bravo charlie delta echo",
            "charlie delta echo foxtrot",
            "delta echo foxtrot alpha",
            "echo foxtrot alpha bravo",
        ] * 4
        corpus = build_corpus(texts, seed=0)
        gen = np.random.default_rng(9)
        emb = make_embeddings(corpus.vocabulary,
                              gen.normal(size=(len(corpus.vocabulary), 6)))
        return corpus, emb

    def test_build_covers_all_documents_in_split_order(self):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.2)
        assert len(store) == len(corpus.split.all_documents())
        assert store.split_sizes == corpus.split.sizes
        assert len(store.train_graphs()) == corpus.split.sizes[0]
        assert len(store.validation_graphs()) == corpus.split.sizes[1]
        assert len(store.test_graphs()) == corpus.split.sizes[2]
        for doc, g in zip(corpus.split.all_documents(), store.graphs):
            assert g.node_ids == brute_force_graph(doc, emb, 0.2)[0]

    def test_round_trip_bitwise(self, tmp_path):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.3)
        path = tmp_path / "graphs.bin"
        save_graph_store(store, path)
        loaded = load_graph_store(path)
        assert loaded.delta == store.delta
        assert loaded.corpus_sha256 == store.corpus_sha256
        assert loaded.embedding_sha256 == store.embedding_sha256
        assert loaded.split_sizes == store.split_sizes
        assert_same_columns(loaded.graphs, store.graphs)

    def test_cache_and_no_cache_builds_write_identical_bytes(self, tmp_path, monkeypatch):
        corpus, emb = self._setup()
        with_cache = tmp_path / "cached.bin"
        save_graph_store(build_all_graphs(corpus, emb, delta=0.2), with_cache)
        monkeypatch.setattr(docgraph, "_SIM_CACHE_MAX_V", 0)
        without = tmp_path / "lazy.bin"
        save_graph_store(build_all_graphs(corpus, emb, delta=0.2), without)
        assert with_cache.read_bytes() == without.read_bytes()

    def test_loaded_store_equals_built_one(self, tmp_path):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.1)
        path = tmp_path / "graphs.bin"
        save_graph_store(store, path)
        loaded = load_graph_store(path)
        assert list(loaded.graphs) == list(store.graphs)
        # both sides give plain Python scalars, not numpy ones
        for g in [*loaded.graphs, *store.graphs]:
            assert [tuple(map(type, e)) for e in g.adjacency] == [(int, int, float)] * g.n_edges
            assert all(type(x) is int for x in g.node_ids)
        again = tmp_path / "again.bin"
        save_graph_store(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.3)
        path = tmp_path / "graphs.bin"
        save_graph_store(store, path)
        before = path.read_bytes()
        # the weights are words, so the write fails at the last column, after
        # the header and the other columns have gone out
        graphs = store.graphs
        assert graphs.weight.size
        broken = dataclasses.replace(graphs, weight=np.full(graphs.weight.size, "heavy"))
        bad = GraphStore(delta=0.5, corpus_sha256="x", embedding_sha256="y",
                         graphs=broken, split_sizes=store.split_sizes)
        with pytest.raises(ValueError):
            save_graph_store(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["graphs.bin"]

    def test_unwritable_cache_is_data_error(self, tmp_path):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.3)
        with pytest.raises(DataError, match="cannot write"):
            save_graph_store(store, tmp_path / "missing_dir" / "graphs.bin")

    def test_truncated_and_trailing_cache(self, tmp_path):
        corpus, emb = self._setup()
        path = tmp_path / "graphs.bin"
        store = build_all_graphs(corpus, emb, delta=0.3)
        save_graph_store(store, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-2])
        with pytest.raises(DataError, match="truncated"):
            load_graph_store(path)
        path.write_bytes(blob + b"zz")
        with pytest.raises(DataError, match="trailing"):
            load_graph_store(path)

    @pytest.mark.parametrize("edge", [(0, 7), (1, 0), (1, 1), (2, 3)])
    def test_edge_outside_its_graph_is_data_error(self, tmp_path, edge):
        corpus, emb = self._setup()
        store = build_all_graphs(corpus, emb, delta=0.3)
        bad = DocumentGraph(node_ids=(0, 1, 2), adjacency=((0, 1, 0.5), (*edge, 0.5)))
        path = tmp_path / "graphs.bin"
        save_graph_store(GraphStore(delta=0.3, corpus_sha256="x", embedding_sha256="y",
                                    graphs=GraphColumns.pack([*store.graphs][:-1] + [bad]),
                                    split_sizes=store.split_sizes), path)
        with pytest.raises(DataError, match="i < j"):
            load_graph_store(path)

    @pytest.mark.parametrize("edit", [
        "bad_json", "not_utf8", "not_object", "missing_key", "bad_split_sizes",
        "string_count", "delta_out_of_range", "huge_header_length", "split_sum_mismatch",
    ])
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "graphs.bin"
        write_with_header(path, HEADER_EDITS[edit])
        with pytest.raises(DataError):
            load_graph_store(path)

    def test_density_report_hand_values(self):
        g3 = DocumentGraph(node_ids=(0, 1, 2),
                           adjacency=((0, 1, 0.5), (1, 2, 0.5)))
        g1 = DocumentGraph(node_ids=(4,), adjacency=())
        store = GraphStore(delta=0.0, corpus_sha256="x", embedding_sha256="y",
                           graphs=GraphColumns.pack([g3, g1]), split_sizes=(2, 0, 0))
        report = graph_density_report(store)
        assert report.mean_nodes == 2.0
        assert report.mean_edges == 1.0
        assert report.densities.tolist() == [2.0 / 3.0, 0.0]
        assert report.mean_density == pytest.approx(1.0 / 3.0)

    def test_density_report_empty_store(self):
        store = GraphStore(delta=0.0, corpus_sha256="x", embedding_sha256="y",
                           graphs=GraphColumns.pack([]), split_sizes=(0, 0, 0))
        with pytest.raises(ContractError):
            graph_density_report(store)


GOOD_HEADER = {"corpus_sha256": "x", "delta": 0.3, "embedding_sha256": "y",
               "n_graphs": 0, "split_sizes": [0, 0, 0], "version": 1}


def _json(**edit):
    return json.dumps({**GOOD_HEADER, **edit}).encode()


HEADER_EDITS = {
    "bad_json": b'{"version": 1,',
    "not_utf8": b"\xff\xfe{}",
    "not_object": b"[1, 2, 3]",
    "missing_key": json.dumps({k: v for k, v in GOOD_HEADER.items()
                               if k != "n_graphs"}).encode(),
    "bad_split_sizes": _json(split_sizes=[1, 2]),
    "string_count": _json(n_graphs="3"),
    "delta_out_of_range": _json(delta=2.5),
    "huge_header_length": None,
    "split_sum_mismatch": _json(split_sizes=[1, 0, 0]),
}


def write_with_header(path, head):
    """A graph cache with no graphs whose header bytes are `head`; None
    writes a header length far past the end of the file."""
    if head is None:
        path.write_bytes(docgraph._MAGIC + struct.pack("<Q", 2 ** 62) + b"{}")
    else:
        path.write_bytes(docgraph._MAGIC + struct.pack("<Q", len(head)) + head)


def test_well_formed_header_loads(tmp_path):
    """The malformed-header cases differ from this one only in the edit."""
    path = tmp_path / "graphs.bin"
    write_with_header(path, _json())
    store = load_graph_store(path)
    assert len(store.graphs) == 0 and store.delta == 0.3


# ---------------------------------------------------------------------------
# The columnar store against per-graph references
# ---------------------------------------------------------------------------

def reference_cache_bytes(store):
    """GINOGRAPH2 bytes struct-packed from the per-graph values: after the
    magic, header length and sorted compact JSON header, every graph's
    n_nodes, every graph's n_edges, every node id, then every edge's i, j
    ("<I") and weight ("<f"), each in store order."""
    head = json.dumps({"version": 1, "delta": store.delta,
                       "corpus_sha256": store.corpus_sha256,
                       "embedding_sha256": store.embedding_sha256,
                       "split_sizes": list(store.split_sizes), "n_graphs": len(store)},
                      sort_keys=True, separators=(",", ":")).encode()
    graphs = list(store.graphs)
    ids = [i for g in graphs for i in g.node_ids]
    edges = [e for g in graphs for e in g.adjacency]
    out = [b"GINOGRAPH2\n", struct.pack("<Q", len(head)), head,
           struct.pack(f"<{len(graphs)}I", *(g.n_nodes for g in graphs)),
           struct.pack(f"<{len(graphs)}I", *(g.n_edges for g in graphs)),
           struct.pack(f"<{len(ids)}I", *ids)]
    out.extend(struct.pack(f"<{len(edges)}{code}", *(e[k] for e in edges))
               for k, code in enumerate("IIf"))
    return b"".join(out)


def random_store(seed):
    """Graphs of 1-9 nodes, some edgeless, with float64 weights in [0, 1]
    (not all float32-exact) and one empty split."""
    gen = np.random.default_rng(seed)
    graphs = []
    for _ in range(int(gen.integers(1, 40))):
        n = int(gen.integers(1, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = gen.random(len(pairs)) < gen.choice([0.0, 0.3, 0.9])
        adjacency = tuple((i, j, float(gen.random())) for (i, j), k in zip(pairs, keep) if k)
        ids = tuple(gen.choice(2 ** 32 - 1 if seed % 2 else 50, size=n, replace=False).tolist())
        graphs.append(DocumentGraph(node_ids=ids, adjacency=adjacency))
    cut = int(gen.integers(0, len(graphs) + 1))
    sizes = [(cut, 0, len(graphs) - cut), (0, cut, len(graphs) - cut),
             (cut, len(graphs) - cut, 0)][seed % 3]
    return graphs, GraphStore(delta=0.25, corpus_sha256="c", embedding_sha256="e",
                              graphs=GraphColumns.pack(graphs), split_sizes=sizes)


@pytest.mark.parametrize("seed", range(8))
def test_cache_bytes_equal_per_graph_writer(tmp_path, seed):
    graphs, store = random_store(seed)
    path = tmp_path / "graphs.bin"
    save_graph_store(store, path)
    assert path.read_bytes() == reference_cache_bytes(store)
    loaded = load_graph_store(path)
    assert [g.node_ids for g in loaded.graphs] == [g.node_ids for g in graphs]
    assert [[e[:2] for e in g.adjacency] for g in loaded.graphs] == [
        [e[:2] for e in g.adjacency] for g in graphs]


def test_cache_bytes_cover_edgeless_and_one_node_graphs(tmp_path):
    graphs = [DocumentGraph(node_ids=(7,), adjacency=()),
              DocumentGraph(node_ids=(3, 1, 2), adjacency=()),
              DocumentGraph(node_ids=(0, 4), adjacency=((0, 1, 0.75),))]
    store = GraphStore(delta=0.5, corpus_sha256="c", embedding_sha256="e",
                       graphs=GraphColumns.pack(graphs), split_sizes=(2, 0, 1))
    path = tmp_path / "graphs.bin"
    save_graph_store(store, path)
    assert path.read_bytes() == reference_cache_bytes(store)
    assert list(load_graph_store(path).graphs) == graphs


def test_load_of_save_of_build_round_trips(tmp_path):
    texts = ["alpha bravo charlie delta", "bravo charlie", "delta", "echo foxtrot alpha",
             "golf golf golf", "bravo echo golf alpha delta"] * 3
    corpus = build_corpus(texts, seed=1)
    emb = make_embeddings(corpus.vocabulary,
                          np.random.default_rng(4).normal(size=(len(corpus.vocabulary), 5)))
    store = build_all_graphs(corpus, emb, delta=0.1)
    path = tmp_path / "graphs.bin"
    save_graph_store(store, path)
    loaded = load_graph_store(path)
    assert_same_columns(loaded.graphs, store.graphs)
    assert loaded.delta == store.delta == 0.1
    want = [build_document_graph(d, emb, 0.1) for d in corpus.split.all_documents()]
    assert list(store.graphs) == want
    assert list(loaded.graphs) == want
    assert list(store.test_graphs()) == want[sum(corpus.split.sizes[:2]):]


def test_columns_index_slice_and_index_array():
    graphs, store = random_store(3)
    columns = store.graphs
    assert len(columns) == len(graphs)
    assert list(columns) == graphs
    assert columns[-1] == graphs[-1] and columns[np.int64(0)] == graphs[0]
    with pytest.raises(IndexError):
        columns[len(graphs)]
    for key in (slice(2, 9), slice(None, None, -2), slice(5, 2), [4, 0, 4, 1], np.array([2]),
                np.arange(len(graphs)) % 2 == 0):
        part = columns[key]
        want = [graphs[k] for k in np.arange(len(graphs))[key]]
        assert list(part) == want
        assert part.node_ptr[0] == 0 and part.edge_ptr[0] == 0
        assert_same_columns(part, GraphColumns.pack(want))


def _cache_with_count(tmp_path, name, graph, field):
    """A small cache whose `graph`th graph's n_nodes or n_edges word reads 2**32 - 1."""
    _, store = random_store(0)
    path = tmp_path / f"{name}.bin"
    save_graph_store(store, path)
    blob = bytearray(path.read_bytes())
    g = store.graphs
    at = len(blob) - 4 * (2 * len(g) + int(g.node_ptr[-1]) + 3 * int(g.edge_ptr[-1]))
    at += 4 * (graph + (len(g) if field == "n_edges" else 0))
    blob[at: at + 4] = struct.pack("<I", 2 ** 32 - 1)
    path.write_bytes(bytes(blob))
    return path


def test_huge_per_graph_count_is_data_error_under_memory_limit(tmp_path):
    n_graphs = len(random_store(0)[1])
    paths = [_cache_with_count(tmp_path, f"{field}{graph}", graph, field)
             for field in ("n_nodes", "n_edges") for graph in (0, n_graphs - 1)]
    assert load_under_limit("from ginopic.docgraph import load_graph_store as load",
                            paths) == ["DataError"] * len(paths)


def test_trailing_word_is_data_error(tmp_path):
    _, store = random_store(1)
    path = tmp_path / "graphs.bin"
    save_graph_store(store, path)
    path.write_bytes(path.read_bytes() + struct.pack("<I", 0))
    with pytest.raises(DataError, match="trailing"):
        load_graph_store(path)


def test_loaded_edges_hold_no_weight_bytes(tmp_path):
    """The loaded src and dst share one buffer of 8 bytes per edge; the
    float32 weights are read apart, so they are freed once widened."""
    _, store = random_store(2)
    path = tmp_path / "graphs.bin"
    save_graph_store(store, path)
    loaded = load_graph_store(path).graphs
    n_edges = int(loaded.edge_ptr[-1])
    assert n_edges
    buffers = []
    for column in (loaded.src, loaded.dst):
        while isinstance(column, np.ndarray):
            column = column.base
        buffers.append(column)
    assert buffers[0] is buffers[1]
    assert len(buffers[0]) == 8 * n_edges
    assert loaded.weight.flags.owndata


# ---------------------------------------------------------------------------
# The one-pass build against itself in chunks and runs, and brute force
# ---------------------------------------------------------------------------

ONE_PASS_DOCS = [[3], [5, 5, 5], [7, 2, 7, 9, 2, 0, 9], [0], [1, 4, 6, 8, 9, 2, 3],
                 [4, 4], [8, 1, 8, 0, 5, 5, 3, 6], [], [2, 9]]


def one_pass_corpus():
    """Ten words and documents with one token, one repeated token, repeated
    tokens out of sorted order, no tokens, more distinct words than four, and
    pairs across a boundary of chunks of five."""
    pairs = [len(set(ids)) * (len(set(ids)) - 1) // 2 for ids in ONE_PASS_DOCS]
    ends = np.cumsum(pairs)
    assert any(end - n < at < end for end, n in zip(ends, pairs) for at in range(5, end, 5))
    docs = [make_document(ids) for ids in ONE_PASS_DOCS]
    vocab = make_vocabulary([f"w{i}" for i in range(10)])
    corpus = make_corpus(vocab, train=docs[:5], validation=docs[5:7], test=docs[7:])
    return corpus, make_embeddings(vocab, np.random.default_rng(6).normal(size=(10, 3)))


@pytest.mark.parametrize("chunk", [None, 1, 5])
@pytest.mark.parametrize("max_v", [None, 0, 4])
def test_one_pass_build_equals_default_and_brute_force(monkeypatch, chunk, max_v):
    """Pairs in chunks of one or five, and a table per document, give the
    default build's bytes."""
    corpus, emb = one_pass_corpus()
    want = build_all_graphs(corpus, emb, delta=0.2).graphs
    docs = corpus.split.all_documents()
    assert list(want) == [DocumentGraph(*brute_force_graph(d, emb, 0.2)) for d in docs]
    assert 0 < want.edge_ptr[-1] < want.node_ptr[-1] ** 2
    for name, value in [("_PAIR_CHUNK", chunk), ("_SIM_CACHE_MAX_V", max_v)]:
        if value is not None:
            monkeypatch.setattr(docgraph, name, value)
    assert_same_columns(build_all_graphs(corpus, emb, delta=0.2).graphs, want)


def corpus_of(doc_ids, v, seed=0):
    """A corpus of one train document per id list over a v-word vocabulary,
    with random 4-d embeddings."""
    vocab = make_vocabulary([f"w{i}" for i in range(v)])
    docs = [make_document(ids) for ids in doc_ids]
    corpus = make_corpus(vocab, train=docs)
    return corpus, make_embeddings(vocab, np.random.default_rng(seed).normal(size=(v, 4)))


def spy_tables(monkeypatch):
    """Shapes of the `SimilarityCache` tables and of the per-document tables
    the build makes, as two lists filled while it runs."""
    shared, own = [], []

    class Spy(docgraph.SimilarityCache):
        def __init__(self, embeddings, ids, floor):
            super().__init__(embeddings, ids, floor)
            shared.append(self.table.shape)

    def spy_weights(vectors, ids, floor):
        own.append(len(ids))
        return cosine_weights(vectors, ids, floor)

    monkeypatch.setattr(docgraph, "SimilarityCache", Spy)
    monkeypatch.setattr(docgraph, "cosine_weights", spy_weights)
    return shared, own


def test_table_holds_only_the_words_documents_hold(monkeypatch):
    corpus, emb = corpus_of([[41, 7, 41, 19]], v=50)
    shared, own = spy_tables(monkeypatch)
    store = build_all_graphs(corpus, emb, delta=0.0)
    assert shared == [(3, 3)] and own == []
    doc = corpus.split.train[0]
    assert list(store.graphs) == [DocumentGraph(*brute_force_graph(doc, emb, 0.0))]


def test_few_held_words_of_a_large_vocabulary_share_one_table(monkeypatch):
    monkeypatch.setattr(docgraph, "_SIM_CACHE_MAX_V", 4)
    corpus, emb = corpus_of([[2, 8], [8, 5, 2], [5], [2, 5, 8, 8]], v=10, seed=1)
    shared, own = spy_tables(monkeypatch)
    store = build_all_graphs(corpus, emb, delta=0.1)
    assert shared == [(3, 3)] and own == []
    assert list(store.graphs) == [DocumentGraph(*brute_force_graph(d, emb, 0.1))
                                  for d in corpus.split.train]


@pytest.mark.parametrize("words", [["w0", "w1", "w2"], ["w0", "w1", "w2", "w4", "w3"]],
                         ids=["fewer_rows", "other_words"])
def test_embeddings_of_another_vocabulary_rejected(words):
    corpus, _ = corpus_of([[0, 3, 4]], v=5)
    vocab = make_vocabulary(words)
    emb = make_embeddings(vocab, np.ones((len(words), 4)))
    with pytest.raises(ContractError, match="another vocabulary"):
        build_all_graphs(corpus, emb, delta=0.2)
