"""Dirichlet-prior variational topic model over graph plus tf-idf inputs.

Per document: the GIN stack embeds the word graph, a learnable projection W
(V x tau_out) maps the graph embedding into vocabulary space, and the encoder
consumes x = CONCAT(W h_G, x_tfidf).  The encoder is

    [Linear(2V, H') -> Softplus -> [Linear(H', H') -> Softplus]^(L'-1) -> Drop(0.2)]

with two heads [Linear(H', K) -> BN] for the posterior mean and log-variance
(log-variance parameterization keeps the variance positive without
constraints).  Sampling is the usual reparameterization z = mu + sigma^(1/2)
* noise and theta = softmax(z); inference uses the posterior mean without
noise.  The decoder is x_hat = softmax(BN(beta^T theta)) with beta a K x V
unconstrained matrix.

The Dirichlet prior Dir(alpha) enters through its Laplace approximation in
softmax space: a Gaussian whose moments are closed-form functions of alpha,
making the KL term analytic.  The reconstruction target is the tf-idf vector,
not raw counts:

    L_RL = - sum_v x_tfidf[v] * ln(x_hat[v] + 1e-10)
    L_KL = 0.5 * sum_k [ s0/s1 + (m1-m0)^2/s1 - 1 + ln(s1/s0) ]

and the loss is the batch mean of their sum.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .artifact import (
    has_fields, is_count, is_int, is_number, read_artifact, write_artifact, write_tsv,
)
from .corpus import Corpus, tfidf_dense
from .docgraph import GraphStore
from .errors import ConfigError, ContractError, DataError, NumericsError
from .gin import GinConfig, GinStack
from .nn import BatchNorm1d, Linear
from .optim import Adam, AdamConfig
from .rng import RngStreams

_MAGIC = b"GINOCKPT1\n"


@dataclass(frozen=True)
class PriorParams:
    """Diagonal Gaussian (mean, variance) approximating Dir(alpha) in softmax space."""

    mu: np.ndarray
    sigma: np.ndarray  # variances

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))


def laplace_prior(alpha) -> PriorParams:
    """Closed-form Laplace moments of a Dirichlet in softmax basis.

    mu_k    = ln a_k - (1/K) sum_i ln a_i
    sigma_k = (1/a_k)(1 - 2/K) + (1/K^2) sum_i (1/a_i)

    Symmetric alpha gives mu = 0.  Requires K >= 2 and alpha > 0 (K = 1
    degenerates to zero variance).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ConfigError(f"alpha must be a vector with K >= 2, got shape {alpha.shape}")
    if np.any(alpha <= 0):
        raise ConfigError("alpha entries must be strictly positive")
    k = alpha.size
    log_a = np.log(alpha)
    mu = log_a - log_a.mean()
    sigma = (1.0 / alpha) * (1.0 - 2.0 / k) + (1.0 / k**2) * np.sum(1.0 / alpha)
    return PriorParams(mu=mu, sigma=sigma)


@dataclass
class TrainConfig:
    topics: int
    gin: GinConfig
    encoder_hidden: int = 100
    encoder_layers: int = 1
    dropout: float = 0.2
    alpha: float | None = None       # None -> symmetric 1/K
    lr: float = 2e-3
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    delta: float | None = None       # provenance echo, set from the graph store

    def validate(self) -> None:
        if self.topics < 2:
            raise ConfigError(f"topics must be >= 2, got {self.topics}")
        if self.encoder_hidden < 1 or self.encoder_layers < 1:
            raise ConfigError("encoder_hidden and encoder_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        self.gin.validate()

    def alpha_vector(self) -> np.ndarray:
        a = (1.0 / self.topics) if self.alpha is None else float(self.alpha)
        return np.full(self.topics, a, dtype=np.float64)

    def to_dict(self) -> dict:
        return {
            "topics": self.topics,
            "gin": self.gin.to_dict(),
            "encoder_hidden": self.encoder_hidden,
            "encoder_layers": self.encoder_layers,
            "dropout": self.dropout,
            "alpha": self.alpha,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "seed": self.seed,
            "delta": self.delta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["gin"] = GinConfig.from_dict(d["gin"])
        return cls(**d)


def combine_inputs(h_g: T.Tensor, x_tfidf: T.Tensor, w: T.Tensor) -> T.Tensor:
    """x = CONCAT(W h_G, x_tfidf): (B, tau_out),(B, V),(V, tau_out) -> (B, 2V)."""
    return T.concat_cols([T.matmul(h_g, T.transpose(w)), x_tfidf])


def reparameterize(mu: T.Tensor, sigma: T.Tensor, noise) -> T.Tensor:
    """z = mu + sigma^(1/2) * noise, with sigma the diagonal variance."""
    if mu.shape != sigma.shape:
        raise ContractError(f"mu shape {mu.shape} != sigma shape {sigma.shape}")
    noise_t = T.Tensor(np.asarray(noise), dtype=mu.dtype)
    if noise_t.shape != mu.shape:
        raise ContractError(f"noise shape {noise_t.shape} != mu shape {mu.shape}")
    return T.add(mu, T.mul(T.sqrt(sigma), noise_t))


def elbo_loss(x_tfidf: T.Tensor, x_hat: T.Tensor, mu: T.Tensor, sigma: T.Tensor,
              prior: PriorParams):
    """Batch-mean reconstruction, KL, and their sum (all scalar Tensors).

    `sigma` is the posterior diagonal variance and must be strictly positive.
    The KL against the diagonal Gaussian prior is closed-form per dimension.
    """
    if x_tfidf.shape != x_hat.shape:
        raise ContractError(f"x_tfidf {x_tfidf.shape} vs x_hat {x_hat.shape}")
    if mu.shape != sigma.shape or mu.ndim != 2:
        raise ContractError(f"mu {mu.shape} vs sigma {sigma.shape}")
    b, k = mu.shape
    if prior.mu.shape != (k,):
        raise ContractError(f"prior has {prior.mu.shape[0]} dims, posterior has {k}")
    dt = mu.dtype

    rl_rows = T.sum(T.mul(x_tfidf, T.log(T.add_scalar(x_hat, 1e-10))), axis=1)
    rl = T.scale(T.mean(rl_rows), -1.0)

    mu1 = T.Tensor(np.broadcast_to(prior.mu.astype(dt), (b, k)).copy(), dtype=dt)
    inv_s1 = T.Tensor(np.broadcast_to((1.0 / prior.sigma).astype(dt), (b, k)).copy(), dtype=dt)
    ln_s1 = T.Tensor(np.broadcast_to(np.log(prior.sigma).astype(dt), (b, k)).copy(), dtype=dt)

    diff = T.add(mu1, T.scale(mu, -1.0))
    quad = T.mul(T.mul(diff, diff), inv_s1)
    ratio = T.mul(sigma, inv_s1)
    logdet = T.add(ln_s1, T.scale(T.log(sigma), -1.0))
    inner = T.add(T.add(ratio, quad), T.add_scalar(logdet, -1.0))
    kl = T.scale(T.mean(T.sum(inner, axis=1)), 0.5)

    total = T.add(rl, kl)
    return rl, kl, total


@dataclass
class ForwardResult:
    reconstruction: T.Tensor
    kl: T.Tensor
    total: T.Tensor
    theta: T.Tensor
    x_hat: T.Tensor
    mu: T.Tensor
    logvar: T.Tensor


class TopicModel:
    """All learnable state: GIN stack, projection, encoder, heads, decoder."""

    def __init__(self, vocab_size: int, config: TrainConfig, vocab_sha256: str = ""):
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.vocab_sha256 = vocab_sha256
        self.trained_epochs = 0
        streams = RngStreams(config.seed)

        dtype = T.get_default_dtype()
        self.gin = GinStack(vocab_size, config.gin, streams)
        proj_rng = streams.stream("init/graph_proj")
        bound = 1.0 / np.sqrt(config.gin.tau_out)
        self.graph_proj = T.Tensor(
            proj_rng.uniform(-bound, bound, size=(vocab_size, config.gin.tau_out)),
            requires_grad=True, dtype=dtype,
        )

        dims = [2 * vocab_size] + [config.encoder_hidden] * config.encoder_layers
        self.encoder_layers = [
            Linear(dims[i], dims[i + 1], streams.stream(f"init/encoder/layer{i}"),
                   name=f"encoder.{i}")
            for i in range(len(dims) - 1)
        ]
        self.head_mu = Linear(config.encoder_hidden, config.topics,
                              streams.stream("init/head_mu"), name="head_mu")
        self.bn_mu = BatchNorm1d(config.topics, name="bn_mu")
        self.head_logvar = Linear(config.encoder_hidden, config.topics,
                                  streams.stream("init/head_logvar"), name="head_logvar")
        self.bn_logvar = BatchNorm1d(config.topics, name="bn_logvar")

        beta_rng = streams.stream("init/beta")
        b_bound = 1.0 / np.sqrt(config.topics)
        self.beta = T.Tensor(
            beta_rng.uniform(-b_bound, b_bound, size=(config.topics, vocab_size)),
            requires_grad=True, dtype=dtype,
        )
        self.bn_out = BatchNorm1d(vocab_size, name="bn_out")

        self.prior = laplace_prior(config.alpha_vector())

    # ------------------------------------------------------------------
    def parameters(self):
        out = self.gin.parameters()
        out.append(("graph_proj", self.graph_proj))
        for layer in self.encoder_layers:
            out.extend(layer.parameters())
        out.extend(self.head_mu.parameters())
        out.extend(self.bn_mu.parameters())
        out.extend(self.head_logvar.parameters())
        out.extend(self.bn_logvar.parameters())
        out.append(("beta", self.beta))
        out.extend(self.bn_out.parameters())
        return out

    def buffers(self):
        out = self.gin.buffers()
        out.extend(self.bn_mu.buffers())
        out.extend(self.bn_logvar.buffers())
        out.extend(self.bn_out.buffers())
        return out

    # ------------------------------------------------------------------
    def encode(self, x: T.Tensor, training: bool, dropout_rng=None):
        """x (B, 2V) -> (mu, logvar), each (B, K)."""
        h = x
        for i, layer in enumerate(self.encoder_layers):
            h = T.softplus(layer(h))
            if not np.all(np.isfinite(h.data)):
                raise NumericsError(f"non-finite activations in encoder layer {i}")
        if training and self.config.dropout > 0.0:
            if dropout_rng is None:
                raise ContractError("training-mode encode needs a dropout rng")
            h = T.dropout(h, self.config.dropout, training, dropout_rng)
        mu = self.bn_mu(self.head_mu(h), training)
        logvar = self.bn_logvar(self.head_logvar(h), training)
        for name, t in (("mu", mu), ("logvar", logvar)):
            if not np.all(np.isfinite(t.data)):
                raise NumericsError(f"non-finite activations in encoder head {name}")
        return mu, logvar

    def decode(self, theta: T.Tensor, training: bool = False) -> T.Tensor:
        """theta (B, K) -> x_hat (B, V), rows on the simplex."""
        return T.softmax(self.bn_out(T.matmul(theta, self.beta), training))

    def encode_batch(self, documents, graphs, training: bool, dropout_rng=None):
        """tf-idf -> GIN -> encoder over a minibatch: (x_tfidf, mu, logvar)."""
        if len(documents) != len(graphs):
            raise ContractError(
                f"{len(documents)} documents but {len(graphs)} graphs in batch"
            )
        dt = self.graph_proj.dtype
        x_tfidf = T.Tensor(tfidf_dense(documents, self.vocab_size, dtype=dt), dtype=dt)
        _, h_g, _ = self.gin.forward(graphs, training)
        x = combine_inputs(h_g, x_tfidf, self.graph_proj)
        mu, logvar = self.encode(x, training, dropout_rng)
        return x_tfidf, mu, logvar

    def forward_batch(self, documents, graphs, training: bool,
                      noise_rng=None, dropout_rng=None) -> ForwardResult:
        x_tfidf, mu, logvar = self.encode_batch(documents, graphs, training, dropout_rng)
        dt = mu.dtype
        sigma = T.exp(logvar)
        if training:
            if noise_rng is None:
                raise ContractError("training-mode forward needs a noise rng")
            noise = noise_rng.standard_normal(mu.shape).astype(dt)
        else:
            noise = np.zeros(mu.shape, dtype=dt)
        z = reparameterize(mu, sigma, noise)
        theta = T.softmax(z)
        x_hat = self.decode(theta, training)
        rl, kl, total = elbo_loss(x_tfidf, x_hat, mu, sigma, self.prior)
        return ForwardResult(rl, kl, total, theta, x_hat, mu, logvar)


@dataclass
class EpochStats:
    epoch: int
    reconstruction: float
    kl: float
    total: float
    seconds: float


@dataclass
class TrainResult:
    model: TopicModel
    history: list = field(default_factory=list)


def train(corpus: Corpus, graphs: GraphStore, config: TrainConfig) -> TrainResult:
    """Train on the corpus's training split; deterministic given (config, seed).

    All randomness (shuffling, dropout masks, sampling noise) comes from
    streams named by epoch and step under config.seed, so two runs with the
    same config produce bit-identical parameters.
    """
    config.validate()
    if graphs.split_sizes != corpus.split.sizes:
        raise ContractError(
            f"graph store split sizes {graphs.split_sizes} != corpus {corpus.split.sizes}"
        )
    if graphs.corpus_sha256 != corpus.sha256:
        raise ContractError("graph store was built from a different corpus")
    config.delta = graphs.delta

    model = TopicModel(len(corpus.vocabulary), config, vocab_sha256=corpus.vocabulary.sha256)
    optimizer = Adam(model.parameters(), AdamConfig(lr=config.lr))
    streams = RngStreams(config.seed)

    train_docs = corpus.split.train
    train_graphs = graphs.train_graphs()
    n = len(train_docs)
    if n == 0:
        raise ContractError("training split is empty")

    history = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        perm = streams.stream(f"train/shuffle/epoch{epoch}").permutation(n)
        rl_sum = kl_sum = 0.0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            docs = [train_docs[i] for i in idx]
            batch_graphs = [train_graphs[i] for i in idx]
            noise_rng = streams.stream(f"train/noise/epoch{epoch}/step{step}")
            drop_rng = streams.stream(f"train/dropout/epoch{epoch}/step{step}")
            with T.Tape() as tape:
                out = model.forward_batch(docs, batch_graphs, True, noise_rng, drop_rng)
                if not np.isfinite(out.total.data):
                    raise NumericsError(
                        f"loss diverged (non-finite) at epoch {epoch} step {step}"
                    )
                T.backward(tape, out.total)
            optimizer.step()
            optimizer.zero_grad()
            rl_sum += out.reconstruction.item() * len(docs)
            kl_sum += out.kl.item() * len(docs)
        history.append(EpochStats(
            epoch=epoch,
            reconstruction=rl_sum / n,
            kl=kl_sum / n,
            total=(rl_sum + kl_sum) / n,
            seconds=time.perf_counter() - t0,
        ))
    model.trained_epochs = config.epochs
    return TrainResult(model=model, history=history)


def save_history(history, path) -> None:
    """Tab-separated epoch log: epoch, L_RL, L_KL, total, wall seconds."""
    write_tsv(path, [("epoch", "reconstruction", "kl", "total", "seconds"),
                     *((h.epoch, f"{h.reconstruction:.6f}", f"{h.kl:.6f}", f"{h.total:.6f}",
                        f"{h.seconds:.3f}") for h in history)], "epoch log")


def infer_theta(model: TopicModel, documents, graphs, batch_size: int = 256) -> np.ndarray:
    """Posterior-mean topic proportions, rows summing to 1; no sampling.

    Runs the encoder only, with the ops of `forward_batch(training=False)`,
    so each row equals its `theta` bit for bit.
    """
    if len(documents) != len(graphs):
        raise ContractError(f"{len(documents)} documents but {len(graphs)} graphs")
    rows = []
    for start in range(0, len(documents), batch_size):
        docs = documents[start:start + batch_size]
        gs = graphs[start:start + batch_size]
        _, mu, logvar = model.encode_batch(docs, gs, training=False)
        z = reparameterize(mu, T.exp(logvar), np.zeros(mu.shape, dtype=mu.dtype))
        rows.append(T.softmax(z).data)
    return np.concatenate(rows, axis=0)


def top_words(beta: np.ndarray, n: int, vocabulary) -> list:
    """Top-n words per topic by beta weight; ties broken toward lower word id."""
    beta = np.asarray(beta)
    if beta.ndim != 2:
        raise ContractError(f"beta must be 2-D, got shape {beta.shape}")
    k, v = beta.shape
    if not 1 <= n <= v:
        raise ContractError(f"n must lie in [1, {v}], got {n}")
    ids = np.arange(v)
    out = []
    for row in beta:
        order = np.lexsort((ids, -row))  # primary: weight desc; secondary: id asc
        out.append([vocabulary.words[i] for i in order[:n]])
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# exactly the keys of GinConfig.to_dict() and TrainConfig.to_dict()
_GIN_FIELDS = {**dict.fromkeys(("tau", "hidden", "tau_out", "layers", "mlp_hidden_layers"),
                               is_int),
               "epsilon": is_number}
_CONFIG_FIELDS = {
    **dict.fromkeys(("topics", "encoder_hidden", "encoder_layers", "batch_size", "epochs",
                     "seed"), is_int),
    **dict.fromkeys(("dropout", "lr"), is_number),
    **dict.fromkeys(("alpha", "delta"), lambda v: v is None or is_number(v)),
    "gin": lambda v: has_fields(v, _GIN_FIELDS),
}
_HEADER_FIELDS = {
    "config": lambda v: has_fields(v, _CONFIG_FIELDS),
    "vocab_size": is_count,
    "vocab_sha256": lambda v: type(v) is str,
    "trained_epochs": is_count,
    # checked entry by entry against the rebuilt model's inventories
    "params": lambda v: type(v) is list,
    "buffers": lambda v: type(v) is list,
}


def save_checkpoint(model: TopicModel, path) -> None:
    """GINOCKPT1: header (config, shapes, vocab hash) + f32 LE payloads,
    written atomically (see `artifact.write_artifact`)."""
    params = model.parameters()
    buffers = model.buffers()
    header = {
        "version": 1,
        "config": model.config.to_dict(),
        "vocab_size": model.vocab_size,
        "vocab_sha256": model.vocab_sha256,
        "trained_epochs": model.trained_epochs,
        "params": [[name, list(t.shape)] for name, t in params],
        "buffers": [[name, list(b.shape)] for name, b in buffers],
    }
    with write_artifact(path, _MAGIC, header, "checkpoint") as fh:
        for _, t in params:
            fh.write(t.data.astype("<f4").tobytes())
        for _, b in buffers:
            fh.write(b.astype("<f4").tobytes())


def _linear_chain(d_in: int, width: int, depth: int, d_out: int) -> int:
    """Weights and biases of the Linear layers d_in -> width (x depth) -> d_out."""
    if depth == 0:
        return d_in * d_out + d_out
    return (d_in + 1) * width + (depth - 1) * (width + 1) * width + (width + 1) * d_out


def _checkpoint_floats(vocab_size: int, config: TrainConfig) -> int:
    """Floats in the payload of a checkpoint with this config: every parameter
    and batchnorm buffer of `TopicModel`, counted without building it (each
    batchnorm holds four vectors: gamma, beta, running mean and variance)."""
    g, v, h, k = config.gin, vocab_size, config.encoder_hidden, config.topics
    gin = (_linear_chain(g.tau, g.hidden, g.mlp_hidden_layers, g.hidden) + 4 * g.hidden
           + (g.layers - 2) * (_linear_chain(g.hidden, g.hidden, g.mlp_hidden_layers, g.hidden)
                               + 4 * g.hidden)
           + _linear_chain(g.hidden, g.hidden, g.mlp_hidden_layers, g.tau_out) + 4 * g.tau_out)
    return (v * g.tau + gin + v * g.tau_out
            + _linear_chain(2 * v, h, config.encoder_layers - 1, h)
            + 2 * (_linear_chain(h, h, 0, k) + 4 * k)
            + k * v + 4 * v)


def load_checkpoint(path, vocabulary=None) -> TopicModel:
    """Rebuild the model and restore parameters and batchnorm buffers exactly.

    When `vocabulary` is given its hash must match the checkpoint's; a model
    cannot be applied to a corpus with a different vocabulary.  The payload
    size the config implies is checked against the file before the model is
    built, so no header can make the loader allocate more than the file holds.
    """
    with read_artifact(path, _MAGIC, _HEADER_FIELDS, "checkpoint") as (header, read):
        if vocabulary is not None and vocabulary.sha256 != header["vocab_sha256"]:
            raise DataError("checkpoint was trained with a different vocabulary", path=path)
        try:
            config = TrainConfig.from_dict(header["config"])
            config.validate()
            # more floats than the file holds fail inside read(), fewer leave
            # trailing bytes: both before the model allocates anything
            blob = read(4 * _checkpoint_floats(header["vocab_size"], config))
            if read():
                raise DataError("trailing bytes after checkpoint payload", path=path)
            model = TopicModel(header["vocab_size"], config, vocab_sha256=header["vocab_sha256"])
        except ConfigError as e:
            raise DataError(f"checkpoint holds an invalid config: {e}", path=path) from e
        model.trained_epochs = header["trained_epochs"]
        params = model.parameters()
        buffers = model.buffers()
        for key, entries in (("params", params), ("buffers", buffers)):
            if [[name, list(x.shape)] for name, x in entries] != header[key]:
                raise DataError(f"checkpoint {key} inventory does not match config", path=path)
        sizes = [x.size for _, x in params + buffers]
        chunks = iter(np.split(np.frombuffer(blob, dtype="<f4"), np.cumsum(sizes)[:-1]))
        for _, t in params:
            t.data = next(chunks).reshape(t.shape).astype(t.dtype)
        for _, b in buffers:
            b[...] = next(chunks).reshape(b.shape)
    return model
