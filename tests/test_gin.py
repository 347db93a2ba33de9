"""GIN aggregation hand values, batching, invariances, and 1-WL behavior."""
from collections import Counter

import numpy as np
import pytest

import ginopic.tensor as T
from ginopic.docgraph import DocumentGraph, GraphColumns
from ginopic.errors import ConfigError, ContractError, ShapeError
from ginopic.gin import (
    GinConfig,
    GinStack,
    batch_adjacency,
    gin_stack_forward,
    wl_distinguishability_test,
)
from ginopic.rng import RngStreams

F64 = np.float64


def graph(n, edges, node_ids=None):
    """Shorthand: edges as (i, j) pairs with weight 1, or (i, j, w) triples."""
    adjacency = tuple(
        (e[0], e[1], 1.0 if len(e) == 2 else e[2]) for e in edges
    )
    ids = tuple(range(n)) if node_ids is None else tuple(node_ids)
    return DocumentGraph(node_ids=ids, adjacency=adjacency)


def small_stack(seed=0, tau=8, hidden=16, tau_out=8, layers=2, dtype=None):
    config = GinConfig(tau=tau, hidden=hidden, tau_out=tau_out, layers=layers)
    if dtype is None:
        return GinStack(vocab_size=30, config=config, streams=RngStreams(seed))
    with T.default_dtype(dtype):
        return GinStack(vocab_size=30, config=config, streams=RngStreams(seed))


class TestConfig:
    def test_round_trip(self):
        c = GinConfig(tau=4, hidden=8, tau_out=6, layers=3, mlp_hidden_layers=2,
                      epsilon=0.1)
        assert GinConfig.from_dict(c.to_dict()) == c

    def test_validation(self):
        with pytest.raises(ConfigError):
            GinConfig(tau=0, hidden=1, tau_out=1).validate()
        with pytest.raises(ConfigError):
            GinConfig(tau=1, hidden=1, tau_out=1, layers=1).validate()
        with pytest.raises(ConfigError):
            GinConfig(tau=1, hidden=1, tau_out=1, mlp_hidden_layers=-1).validate()


class TestBatchAdjacency:
    def test_matches_dense_block_diagonal(self):
        g1 = graph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        g2 = graph(2, [(0, 1, 0.75)])
        eps = 0.3
        matrix, ids, segments = batch_adjacency([g1, g2], eps)
        expected = (1.0 + eps) * np.eye(5)
        for i, j, w in [(0, 1, 0.5), (1, 2, 0.25), (3, 4, 0.75)]:
            expected[i, j] = expected[j, i] = w
        assert np.allclose(matrix.mat.toarray(), expected)
        assert ids.tolist() == [0, 1, 2, 0, 1]
        assert segments.tolist() == [0, 0, 0, 1, 1]
        assert ids.dtype == np.int64 and segments.dtype == np.int64

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            batch_adjacency([], 0.0)


def loop_batch_adjacency(graphs, epsilon, dtype=None):
    """The per-entry loop batch_adjacency replaced, kept as its reference."""
    rows, cols, vals = [], [], []
    ids, segments = [], []
    offset = 0
    for b, g in enumerate(graphs):
        n = g.n_nodes
        for i in range(n):
            rows.append(offset + i)
            cols.append(offset + i)
            vals.append(1.0 + epsilon)
        for i, j, w in g.adjacency:
            rows.append(offset + i)
            cols.append(offset + j)
            vals.append(w)
            rows.append(offset + j)
            cols.append(offset + i)
            vals.append(w)
        ids.extend(g.node_ids)
        segments.extend([b] * n)
        offset += n
    matrix = T.SparseMatrix.from_coo(rows, cols, vals, shape=(offset, offset), dtype=dtype)
    return matrix, np.asarray(ids, dtype=np.int64), np.asarray(segments, dtype=np.int64)


def random_graphs(seed, count):
    """Graphs of 1-12 nodes; some edgeless, some with isolated nodes."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(gen.integers(1, 13))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = gen.random(len(pairs)) < gen.choice([0.0, 0.2, 0.7])
        weights = gen.random(len(pairs)).tolist()
        adjacency = tuple((i, j, w) for (i, j), w, k in zip(pairs, weights, keep) if k)
        ids = tuple(gen.choice(500, size=n, replace=False).tolist())
        out.append(DocumentGraph(node_ids=ids, adjacency=adjacency))
    return out


def assert_same_operator(got, want):
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got[0].mat, attr), getattr(want[0].mat, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[0].shape == want[0].shape


class TestBatchAdjacencyMatchesLoop:
    @pytest.mark.parametrize("eps", [0.0, 0.1, -1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csr_bytes_equal(self, eps, dtype, seed):
        graphs = random_graphs(seed, 64)
        assert any(g.n_edges == 0 for g in graphs)
        assert any(g.n_edges and g.n_edges < g.n_nodes - 1 for g in graphs)
        assert_same_operator(batch_adjacency(graphs, eps, dtype),
                             loop_batch_adjacency(graphs, eps, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges_stored_in_reverse_order(self, dtype):
        # not the (src, dst) order the COO's canonical layout relies on, so
        # scipy has to sort the rows; the operator must not change
        graphs = random_graphs(3, 64)
        cols = GraphColumns.pack(graphs)
        at = np.concatenate([np.arange(b - 1, a - 1, -1)
                             for a, b in zip(cols.edge_ptr[:-1], cols.edge_ptr[1:])])
        assert (at != np.arange(at.size)).any()
        rev = GraphColumns(cols.node_ptr, cols.node_ids, cols.edge_ptr, cols.src[at],
                           cols.dst[at], cols.weight[at])
        assert_same_operator(batch_adjacency(rev, 0.1, dtype),
                             loop_batch_adjacency(graphs, 0.1, dtype))

    def test_all_edgeless(self):
        graphs = [graph(3, []), graph(1, []), graph(2, [])]
        got, want = batch_adjacency(graphs, 0.5), loop_batch_adjacency(graphs, 0.5)
        assert got[0].mat.data.tobytes() == want[0].mat.data.tobytes()
        assert got[0].mat.indices.tobytes() == want[0].mat.indices.tobytes()
        assert got[2].tolist() == [0, 0, 0, 1, 2, 2]


def aggregate(h, g, eps):
    """One GIN aggregation, (1 + eps) h_i + sum_j w_ji h_j, over a single graph."""
    return T.spmm(batch_adjacency([g], eps, dtype=h.dtype)[0], h)


class TestLayerHandValues:
    def test_edgeless_identity_mlp_zero_epsilon_is_identity(self):
        g = graph(2, [])
        h = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F64))
        out = aggregate(h, g, 0.0)
        assert np.array_equal(out.data, h.data)

    def test_unit_edge_sums_neighbor(self):
        g = graph(2, [(0, 1, 1.0)])
        h = T.Tensor(np.array([[1.0, 2.0], [10.0, 20.0]], dtype=F64))
        out = aggregate(h, g, 0.0)
        assert out.data.tolist() == [[11.0, 22.0], [11.0, 22.0]]

    def test_edge_weight_scales_contribution(self):
        g = graph(2, [(0, 1, 0.25)])
        h = T.Tensor(np.array([[1.0, 2.0], [10.0, 20.0]], dtype=F64))
        out = aggregate(h, g, 0.0)
        assert out.data[0].tolist() == [1.0 + 2.5, 2.0 + 5.0]

    def test_isolated_node_keeps_scaled_self(self):
        g = graph(1, [])
        h = T.Tensor(np.array([[2.0]], dtype=F64))
        out = aggregate(h, g, 0.5)
        assert out.data.tolist() == [[3.0]]

    def test_epsilon_minus_one_is_pure_neighbor_sum(self):
        # with the self term wiped out, doubling edge weights doubles the output
        h = T.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        g1 = graph(3, [(0, 1, 0.3), (1, 2, 0.4)])
        g2 = graph(3, [(0, 1, 0.6), (1, 2, 0.8)])
        out1 = aggregate(h, g1, -1.0)
        out2 = aggregate(h, g2, -1.0)
        assert np.array_equal(out2.data, 2.0 * out1.data)

    def test_node_count_mismatch(self):
        g = graph(3, [])
        h = T.Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            aggregate(h, g, 0.0)


class TestStack:
    def test_output_shapes(self):
        stack = small_stack(tau=4, hidden=6, tau_out=5)
        graphs = [graph(3, [(0, 1)], node_ids=(2, 7, 9)),
                  graph(2, [], node_ids=(1, 3))]
        h, h_g, segments = stack.forward(graphs, training=False)
        assert h.shape == (5, 5)
        assert h_g.shape == (2, 5)
        assert segments.tolist() == [0, 0, 0, 1, 1]

    def test_readout_is_node_sum(self):
        stack = small_stack()
        graphs = [graph(3, [(0, 1), (1, 2)], node_ids=(2, 7, 9))]
        h, h_g, _ = stack.forward(graphs, training=False)
        assert np.allclose(h_g.data[0], h.data.sum(axis=0), atol=1e-6)

    def test_same_word_same_feature_row(self):
        # two single-node graphs with the same vocabulary id embed identically
        stack = small_stack()
        _, h_g, _ = stack.forward(
            [graph(1, [], node_ids=(5,)), graph(1, [], node_ids=(5,))],
            training=False,
        )
        assert np.array_equal(h_g.data[0], h_g.data[1])

    def test_node_id_out_of_range(self):
        stack = small_stack()
        with pytest.raises(ContractError, match="feature table"):
            stack.forward([graph(1, [], node_ids=(30,))], training=False)

    def test_vocab_size_validated(self):
        with pytest.raises(ConfigError):
            GinStack(0, GinConfig(tau=2, hidden=2, tau_out=2), RngStreams(0))

    def test_parameter_inventory(self):
        stack = small_stack(layers=2)
        names = [n for n, _ in stack.parameters()]
        assert names[0] == "gin.node_table"
        # 2 layers x (2 linears x 2 tensors) + 2 layers x (gamma, beta)
        assert len(names) == 1 + 2 * 4 + 2 * 2
        assert len(set(names)) == len(names)
        buffer_names = [n for n, _ in stack.buffers()]
        assert len(buffer_names) == 4

    def test_same_seed_same_init(self):
        a, b = small_stack(seed=3), small_stack(seed=3)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_single_graph_wrapper_matches_batched(self):
        stack = small_stack()
        g = graph(4, [(0, 1), (2, 3)], node_ids=(1, 4, 6, 8))
        _, h1 = gin_stack_forward(g, stack)
        _, h_batch, _ = stack.forward([g, graph(2, [], node_ids=(0, 2))],
                                      training=False)
        assert h1.shape == (stack.config.tau_out,)
        assert np.allclose(h1.data, h_batch.data[0], atol=1e-6)

    def test_training_mode_updates_bn_buffers(self):
        stack = small_stack()
        before = [buf.copy() for _, buf in stack.buffers()]
        stack.forward([graph(3, [(0, 1)], node_ids=(0, 1, 2))], training=True)
        after = [buf for _, buf in stack.buffers()]
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))


def permute_graph(g, perm):
    """Relabel local node indices by `perm` (new position -> old index)."""
    inv = {old: new for new, old in enumerate(perm)}
    edges = tuple(
        sorted(
            (min(inv[i], inv[j]), max(inv[i], inv[j]), w) for i, j, w in g.adjacency
        )
    )
    return DocumentGraph(
        node_ids=tuple(g.node_ids[old] for old in perm),
        adjacency=edges,
    )


class TestPermutationInvariance:
    def _random_graph(self, gen, n=7):
        ids = gen.choice(30, size=n, replace=False)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if gen.random() < 0.4:
                    edges.append((i, j, float(gen.uniform(0.2, 1.0))))
        return graph(n, edges, node_ids=ids)

    def test_readout_invariant_float32(self):
        stack = small_stack(seed=1)
        gen = np.random.default_rng(0)
        for _ in range(10):
            g = self._random_graph(gen)
            gp = permute_graph(g, list(gen.permutation(g.n_nodes)))
            _, ha = gin_stack_forward(g, stack)
            _, hb = gin_stack_forward(gp, stack)
            assert np.max(np.abs(ha.data - hb.data)) < 1e-5

    def test_readout_invariant_float64(self):
        stack = small_stack(seed=1, dtype=F64)
        gen = np.random.default_rng(0)
        for _ in range(10):
            g = self._random_graph(gen)
            gp = permute_graph(g, list(gen.permutation(g.n_nodes)))
            _, ha = gin_stack_forward(g, stack)
            _, hb = gin_stack_forward(gp, stack)
            assert np.max(np.abs(ha.data - hb.data)) < 1e-10

    def test_batch_order_invariance(self):
        stack = small_stack(seed=2)
        g1 = graph(3, [(0, 1)], node_ids=(0, 1, 2))
        g2 = graph(2, [(0, 1)], node_ids=(3, 4))
        _, fwd, _ = stack.forward([g1, g2], training=False)
        _, rev, _ = stack.forward([g2, g1], training=False)
        assert np.allclose(fwd.data[0], rev.data[1], atol=1e-6)
        assert np.allclose(fwd.data[1], rev.data[0], atol=1e-6)


def wl_indistinguishable(edges_a, n_a, edges_b, n_b, iterations=4):
    """1-WL color refinement on the disjoint union with uniform start colors.

    Returns True when the final color multisets of the two graphs agree,
    i.e. 1-WL cannot tell them apart.
    """
    adj = [[] for _ in range(n_a + n_b)]
    for i, j in edges_a:
        adj[i].append(j)
        adj[j].append(i)
    for i, j in edges_b:
        adj[n_a + i].append(n_a + j)
        adj[n_a + j].append(n_a + i)
    colors = [0] * (n_a + n_b)
    for _ in range(iterations):
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(len(adj))
        ]
        palette = {s: c for c, s in enumerate(sorted(set(signatures)))}
        colors = [palette[s] for s in signatures]
    return Counter(colors[:n_a]) == Counter(colors[n_a:])


TRIANGLE = [(0, 1), (0, 2), (1, 2)]
PATH3 = [(0, 1), (1, 2)]
TWO_TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
HEXAGON = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]


class TestWlBehavior:
    def test_oracle_separates_triangle_from_path(self):
        assert not wl_indistinguishable(TRIANGLE, 3, PATH3, 3)

    def test_oracle_conflates_two_triangles_with_hexagon(self):
        assert wl_indistinguishable(TWO_TRIANGLES, 6, HEXAGON, 6)

    def test_stack_separates_triangle_from_path(self):
        # uniform node features: every node uses the same table row
        ga = graph(3, TRIANGLE, node_ids=(0, 0, 0))
        gb = graph(3, PATH3, node_ids=(0, 0, 0))
        hits = sum(
            wl_distinguishability_test(ga, gb, small_stack(seed=s))
            for s in range(5)
        )
        assert hits >= 4

    def test_stack_conflates_wl_equivalent_pair(self):
        ga = graph(6, TWO_TRIANGLES, node_ids=(0,) * 6)
        gb = graph(6, HEXAGON, node_ids=(0,) * 6)
        for s in range(5):
            assert not wl_distinguishability_test(ga, gb, small_stack(seed=s))


class TestStackGradients:
    def test_node_table_gradient_matches_finite_differences(self):
        stack = small_stack(seed=4, tau=3, hidden=4, tau_out=3, dtype=F64)
        graphs = [graph(3, [(0, 1, 0.5), (1, 2, 0.8)], node_ids=(0, 1, 2)),
                  graph(2, [(0, 1, 0.9)], node_ids=(3, 4))]
        weights = T.Tensor(
            np.random.default_rng(0).normal(size=(2, 3)), dtype=F64
        )

        def f(x):
            stack.node_table = x
            _, h_g, _ = stack.forward(graphs, training=False)
            return T.sum(T.mul(h_g, weights))

        report = T.finite_difference_check(f, stack.node_table, rel_tol=1e-5)
        assert report.passed(1e-5), report.max_rel_err

    def test_mlp_weight_gradient_matches_finite_differences(self):
        stack = small_stack(seed=5, tau=3, hidden=4, tau_out=3, dtype=F64)
        graphs = [graph(3, [(0, 1, 0.5)], node_ids=(0, 1, 2))]
        weights = T.Tensor(np.random.default_rng(1).normal(size=(1, 3)), dtype=F64)
        target = stack.mlps[0].layers[0].weight

        def f(x):
            stack.mlps[0].layers[0].weight = x
            _, h_g, _ = stack.forward(graphs, training=False)
            return T.sum(T.mul(h_g, weights))

        report = T.finite_difference_check(f, target, rel_tol=1e-5)
        assert report.passed(1e-5), report.max_rel_err
