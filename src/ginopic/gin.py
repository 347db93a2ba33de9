"""Graph isomorphism network over document graphs.

Layer rule: h_i' = MLP((1 + epsilon) * h_i + sum_j w_ji * h_j), with epsilon a
fixed scalar (not learned) and the sum running over weighted neighbors; an
isolated node aggregates the empty sum, i.e. keeps (1 + epsilon) times its own
state.  The stack is

    GIN(tau, H) -> BN -> ReLU -> [GIN(H, H) -> BN -> ReLU] x (L-2)
        -> GIN(H, tau_out) -> BN

followed by a sum readout over nodes.  Each GIN's MLP is Linear -> ReLU per
hidden layer and a final Linear; one width `hidden` serves as both the MLP
hidden width and the between-layer dimension H.

Graphs in a minibatch are packed block-diagonally, so batchnorm statistics
pool over every node in the minibatch and the aggregation is one sparse
matmul per layer.  Initial node features come from a learnable table of shape
(vocab_size, tau), init normal(0, 0.02), shared across documents: the same
word always starts from the same feature row.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .docgraph import DocumentGraph, GraphColumns
from .errors import ConfigError, ContractError
from .nn import BatchNorm1d, Mlp
from .rng import RngStreams


@dataclass
class GinConfig:
    tau: int                    # input node-feature dimension
    hidden: int                 # MLP hidden width, also the between-layer width
    tau_out: int                # output node-feature dimension
    layers: int = 2
    mlp_hidden_layers: int = 1
    epsilon: float = 0.0

    def validate(self) -> None:
        if min(self.tau, self.hidden, self.tau_out) < 1:
            raise ConfigError("GIN dimensions must all be >= 1")
        if self.layers < 2:
            raise ConfigError(f"GIN stack needs at least 2 layers, got {self.layers}")
        if self.mlp_hidden_layers < 0:
            raise ConfigError("mlp_hidden_layers must be >= 0")
        if not np.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GinConfig":
        return cls(**d)


def batch_adjacency(graphs, epsilon: float, dtype=None):
    """Block-diagonal (1+eps)I + A over a minibatch of graphs.

    `graphs` is a `GraphColumns` or a list of `DocumentGraph`s, which is
    packed into one.  Returns (matrix, node_ids, segments): the sparse
    aggregation operator, the concatenated vocabulary ids of every node, and
    each node's graph index for the readout.
    """
    if not len(graphs):
        raise ContractError("batch_adjacency: empty graph list")
    if not isinstance(graphs, GraphColumns):
        graphs = GraphColumns.pack(graphs)
    n_nodes = np.diff(graphs.node_ptr)
    offsets = np.repeat(graphs.node_ptr[:-1], np.diff(graphs.edge_ptr))
    i, j = graphs.src + offsets, graphs.dst + offsets
    total = int(graphs.node_ptr[-1])
    diag = np.arange(total)
    # lower triangle, diagonal, upper triangle: with each graph's edges in
    # (src, dst) order, every CSR row comes out sorted and tocsr skips the
    # index sort; edges stored in any other order are sorted by scipy
    rows = np.concatenate([j, diag, i])
    cols = np.concatenate([i, diag, j])
    vals = np.concatenate([graphs.weight, np.full(total, 1.0 + epsilon), graphs.weight])
    ids = graphs.node_ids.astype(np.int64)
    segments = np.repeat(np.arange(len(graphs)), n_nodes)
    matrix = T.SparseMatrix.from_coo(rows, cols, vals, shape=(total, total), dtype=dtype)
    return matrix, ids, segments


class GinStack:
    """The full L-layer network plus the node-feature table and sum readout."""

    def __init__(self, vocab_size: int, config: GinConfig, streams: RngStreams, name: str = "gin"):
        config.validate()
        if vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        self.config = config
        self.name = name
        self.vocab_size = vocab_size
        table = streams.stream(f"init/{name}/node_table").normal(0.0, 0.02, size=(vocab_size, config.tau))
        self.node_table = T.Tensor(table, requires_grad=True, dtype=T.get_default_dtype())
        self.mlps = []
        self.bns = []
        for l in range(config.layers):
            in_dim = config.tau if l == 0 else config.hidden
            out_dim = config.tau_out if l == config.layers - 1 else config.hidden
            dims = [in_dim] + [config.hidden] * config.mlp_hidden_layers + [out_dim]
            rng = streams.stream(f"init/{name}/layer{l}")
            self.mlps.append(Mlp(dims, rng, name=f"{name}.layer{l}.mlp"))
            self.bns.append(BatchNorm1d(out_dim, name=f"{name}.layer{l}.bn"))

    def forward(self, graphs, training: bool):
        """Run the stack over a graph minibatch.

        Returns (node_states, graph_embeddings, segments): final per-node
        states (N_total, tau_out), per-graph sum readout (B, tau_out), and
        each node's graph index.
        """
        matrix, ids, segments = batch_adjacency(
            graphs, self.config.epsilon, dtype=self.node_table.dtype
        )
        if ids.size and ids.max() >= self.vocab_size:
            raise ContractError("graph node id outside the feature table")
        h = T.gather_rows(self.node_table, ids)
        last = len(self.mlps) - 1
        for l, (mlp, bn) in enumerate(zip(self.mlps, self.bns)):
            h = T.spmm(matrix, h)
            h = mlp(h)
            h = bn(h, training)
            if l != last:
                h = T.relu(h)
        h_g = T.segment_sum(h, segments, len(graphs))
        return h, h_g, segments

    def parameters(self):
        out = [(f"{self.name}.node_table", self.node_table)]
        for mlp in self.mlps:
            out.extend(mlp.parameters())
        for bn in self.bns:
            out.extend(bn.parameters())
        return out

    def buffers(self):
        out = []
        for bn in self.bns:
            out.extend(bn.buffers())
        return out


def gin_stack_forward(graph: DocumentGraph, stack: GinStack, training: bool = False):
    """Single-graph convenience wrapper: (node_states, graph_embedding 1-D)."""
    h, h_g, _ = stack.forward([graph], training)
    return h, T.Tensor(h_g.data[0].copy(), dtype=h_g.dtype)


def wl_distinguishability_test(
    graph_a: DocumentGraph, graph_b: DocumentGraph, stack: GinStack, tol: float = 1e-5
) -> bool:
    """True when the stack's readouts of the two graphs differ beyond `tol`.

    Runs in eval mode so the comparison is a deterministic function of the
    stack's (usually freshly initialized) parameters.  Graphs that 1-WL
    cannot distinguish must come out False; 1-WL-distinguishable pairs come
    out True for generic random initializations.
    """
    _, ha = gin_stack_forward(graph_a, stack, training=False)
    _, hb = gin_stack_forward(graph_b, stack, training=False)
    return bool(np.max(np.abs(ha.data - hb.data)) > tol)
