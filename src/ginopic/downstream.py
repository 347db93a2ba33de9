"""Extrinsic evaluation: document classification on topic proportions.

A one-vs-rest linear SVM is trained by plain SGD on the hinge loss with L2
regularization; no external ML dependency.  Per class c the target is +1/-1,
and for sample (x, y) at learning rate eta_e = lr / epoch:

    margin y(w.x + b) <  1:  w <- (1 - eta l2) w + eta y x;  b <- b + eta y
    margin            >= 1:  w <- (1 - eta l2) w

Visiting order reshuffles each epoch from a named stream, so training is
deterministic under (data, config, seed).

Training jumps from one margin violation to the next.  A step that violates
no margin only decays w, so for a window of the next `_WINDOW` samples the
decayed weights come from one `multiply.accumulate` (the same sequence of
rounded products) and their margins from one `vecdot` (the same ddot as
`w @ x`); the first violation in the window is applied and the scan resumes
after it.  Inside a run of consecutive violations, where a window would
advance one step at a time, each step is taken as in the per-sample loop.
Weights and biases are therefore bitwise identical to the per-sample loop's.
The speed depends on the share of steps that violate a margin: the fewer,
the longer the jumps.  On 6-topic proportions an epoch ran about 1.9x
faster than the per-sample loop at a 13% share and about 1.3x at 23%; when
nearly every step violates it runs at about the loop's speed.

The classes' chains share nothing: each draws its visiting order from its
own stream, so `train_classifier` fits them in up to min(classes, usable
CPUs) forked worker processes, each kept on a CPU of its own, and gathers
the results in class order.  On one CPU, or where fork is missing, the same
per-class function runs in process.  Either way the bytes are the same.

Prediction is the argmax class score; with a single class present the
classifier degenerates to always predicting it.  A classifier lives only in
memory: each evaluation run trains a fresh one, and nothing is saved.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .artifact import write_tsv
from .errors import ConfigError, ContractError
from .rng import stream
from .topicmodel import infer_theta

# Steps scanned per window of _sgd_epoch: the margins of up to this many
# pure-decay steps are computed at once.
_WINDOW = 32


@dataclass(frozen=True)
class SvmConfig:
    epochs: int = 100
    lr: float = 0.01
    l2: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError(f"l2 must be non-negative and finite, got {self.l2}")


@dataclass
class LinearClassifier:
    classes: np.ndarray        # (C,) int64 label ids, ascending
    weights: np.ndarray        # (C, K) float64
    biases: np.ndarray         # (C,) float64

    def decision(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 2 or theta.shape[1] != self.weights.shape[1]:
            raise ContractError(
                f"theta shape {theta.shape} incompatible with {self.weights.shape[1]} features"
            )
        return theta @ self.weights.T + self.biases

    def predict(self, theta: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.decision(theta), axis=1)]


def _sgd_epoch(w, b, xo, yo, eta, decay):
    """One epoch over the samples in visiting order (xo, yo); returns (w, b).
    See the module docstring for the jump and why it is exact."""
    n, k = xo.shape
    steps = (eta * yo)[:, None] * xo
    bsteps = (eta * yo).tolist()
    # w lives in chain[0], so a window's accumulate starts from it.  A window
    # writes its decayed weights, margins and violations into buffers made
    # once; hit[m] is a sentinel True, so one argmax finds the first
    # violation or the window's end.  Only the last window, if shorter,
    # needs views of another length.
    chain = np.full((_WINDOW + 1, k), decay)
    chain[0] = w
    w = chain[0]
    ws = np.empty_like(chain)
    margins = np.empty(_WINDOW)
    hit = np.empty(_WINDOW + 1, dtype=bool)
    hit[_WINDOW] = True
    m = _WINDOW
    chain_m, ws_m, margins_m, hit_m = chain, ws, margins, hit[:m]
    s = 0
    in_run = False
    while s < n:
        if in_run:
            in_run = yo[s] * (w @ xo[s] + b) < 1.0
            w *= decay
            if in_run:
                w += steps[s]
                b += bsteps[s]
            s += 1
            continue
        if n - s < m:
            m = n - s
            chain_m, ws_m = chain[: m + 1], ws[: m + 1]
            margins_m, hit_m = margins[:m], hit[:m]
            hit[m] = True
        np.multiply.accumulate(chain_m, axis=0, out=ws_m)
        np.vecdot(ws_m[:m], xo[s: s + m], out=margins_m)
        margins_m += b
        margins_m *= yo[s: s + m]
        np.less(margins_m, 1.0, out=hit_m)
        j = int(hit.argmax())
        if j < m:
            np.add(ws[j + 1], steps[s + j], out=w)
            b += bsteps[s + j]
            s += j + 1
            in_run = j == 0
        else:
            w[:] = ws[m]
            s += m
    return w, b


def _fit_class(x, y, ci, config):
    """Class `ci`'s weights and bias: `config.epochs` epochs of SGD on the
    +1/-1 targets y."""
    n, k = x.shape
    w = np.zeros(k, dtype=np.float64)
    b = 0.0
    for epoch in range(1, config.epochs + 1):
        eta = config.lr / epoch
        order = stream(config.seed, f"svm/class{ci}/epoch{epoch}").permutation(n)
        w, b = _sgd_epoch(w, b, x[order], y[order], eta, 1.0 - eta * config.l2)
    return w, b


def _usable_cpus() -> list:
    """The ids of the CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def _pin_worker(cpus) -> None:
    """Pool initializer: keep this worker on the next CPU id in the queue.

    Left to the scheduler, two workers forked on a 2-vCPU VM were seen to
    share one CPU for their whole life, slower than one process alone."""
    cpu = cpus.get()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def train_classifier(theta: np.ndarray, labels, config: SvmConfig | None = None) -> LinearClassifier:
    """One-vs-rest hinge-loss SGD over the topic proportions."""
    config = config or SvmConfig()
    config.validate()
    x = np.asarray(theta, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2:
        raise ContractError(f"theta must be 2-D, got shape {x.shape}")
    if y_all.shape != (x.shape[0],):
        raise ContractError(f"{x.shape[0]} samples but {y_all.shape[0]} labels")
    if x.shape[0] == 0:
        raise ContractError("cannot train a classifier on an empty set")
    classes = np.unique(y_all)
    n = x.shape[0]
    if n < classes.size:
        raise ContractError(f"{n} samples cannot cover {classes.size} classes")

    # imported here, as scipy is, so that importing the package stays light
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ys = [np.where(y_all == c, 1.0, -1.0) for c in classes]
    args = (repeat(x), ys, range(classes.size), repeat(config))
    cpus = _usable_cpus()[: classes.size]
    if len(cpus) > 1 and "fork" in multiprocessing.get_all_start_methods():
        # forked workers start with numpy and this package imported; spawned
        # ones would import them afresh, at about the cost of one class's fit
        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()
        try:
            for cpu in cpus:
                queue.put(cpu)
            with ProcessPoolExecutor(len(cpus), mp_context=context,
                                     initializer=_pin_worker, initargs=(queue,)) as pool:
                fits = list(pool.map(_fit_class, *args))
        finally:
            queue.close()
    else:
        fits = list(map(_fit_class, *args))
    weights = np.array([w for w, _ in fits], dtype=np.float64)
    biases = np.array([b for _, b in fits], dtype=np.float64)
    return LinearClassifier(classes=classes, weights=weights, biases=biases)


def evaluate_accuracy(classifier: LinearClassifier, theta: np.ndarray, labels) -> float:
    y = np.asarray(labels, dtype=np.int64)
    if y.size == 0:
        raise ContractError("cannot evaluate accuracy on an empty set")
    pred = classifier.predict(theta)
    if pred.shape != y.shape:
        raise ContractError(f"{pred.shape[0]} predictions but {y.shape[0]} labels")
    return float(np.mean(pred == y))


def export_theta(model, corpus, graphs, path) -> None:
    """Tab-separated rows over train+validation+test: index, label (or -1), theta.

    Proportions come from posterior-mean inference, suitable for external 2-D
    projection; no header line.
    """
    labels = corpus.split.documents.labels.tolist()
    theta = infer_theta(model, corpus.split.documents, graphs.graphs)
    write_tsv(path, ((i, label, *(f"{v:.9g}" for v in row))
                     for i, (label, row) in enumerate(zip(labels, theta))), "theta export")
