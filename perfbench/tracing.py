"""Spans and counts around the calls into each ginopic layer.

A traced run replaces each layer's public functions, at every name a
caller looks them up by, with a wrapper that records a span: name, start,
end and parent span.  Counts are read from what the wrapped calls return.
Spans stay in memory until the run ends.  Nothing in the package changes;
`Tracer.uninstall` puts every original back.

A span's self time is its duration minus the time its direct children
cover.  Calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from collections import Counter
from time import perf_counter

# Ops whose forward, backward and call counts are reported per op.
TENSOR_OPS = ("matmul", "spmm", "gather_rows", "segment_sum", "softmax", "softplus",
              "batchnorm_1d", "concat_cols", "transpose", "dropout", "mul", "log")
# Every other differentiable op gets a span too, so that its time is not
# charged to the self time of the layer that called it.
_OTHER_OPS = ("add", "scale", "add_scalar", "exp", "sqrt", "relu", "sum",
              "log_softmax", "concat_rows")
STAGES = ("preprocess", "build_graphs", "train", "eval_topics", "classify")


# ---------------------------------------------------------------------------
# Count hooks: (tracer, bound arguments, result) -> None
# ---------------------------------------------------------------------------

def _corpus_tokens(tr, args, corpus):
    tr.counts["corpus.tokens"] += sum(len(d) for d in corpus.split.all_documents())


def _similarity_pairs(tr, args, _):
    v = args["self"].table.shape[0]
    tr.counts["embedding.similarity_pairs"] += v * (v - 1) // 2


def _graph_counts(tr, args, store):
    for g in store.graphs:
        tr.counts["docgraph.pairs_tested"] += g.n_nodes * (g.n_nodes - 1) // 2
        tr.counts["docgraph.edges_kept"] += g.n_edges


def _cache_bytes(tr, args, _):
    tr.counts["docgraph.cache_bytes"] += os.path.getsize(args["path"])


def _batch_nnz(tr, args, result):
    tr.counts["gin.batch_nnz"] += result[0].mat.nnz


def _forward_batch(tr, args, _):
    if args["training"]:
        tr.counts["topicmodel.train_steps"] += 1
        tr.counts["topicmodel.train_docs"] += len(args["documents"])


def _infer_docs(tr, args, theta):
    tr.counts["topicmodel.infer_docs"] += theta.shape[0]


def _cooccurrence(tr, args, stats):
    tr.counts["metrics.windows"] += stats.n_windows
    tr.counts["metrics.pair_increments"] += sum(stats.pair_counts.values())
    tr.counts["metrics.pairs_distinct"] += len(stats.pair_counts)
    tr.counts[f"metrics.pairs_distinct.window{stats.window_size}"] += len(stats.pair_counts)


def _sgd_updates(tr, args, clf):
    from ginopic.downstream import SvmConfig

    epochs = (args.get("config") or SvmConfig()).epochs
    tr.counts["downstream.sgd_updates"] += clf.classes.size * epochs * len(args["labels"])


def _scored_pair(tr, args, _):
    a, b = args["a"], args["b"]
    if a != b:
        tr.scored_pairs.add((id(args["stats"]), min(a, b), max(a, b)))


# (span name, module, attribute path, count hook); a name wraps every target
# listed under it, and a target missing from the package is reported, not fatal
TARGETS = [
    ("corpus.build", "ginopic.corpus", "build_corpus", _corpus_tokens),
    ("corpus.save", "ginopic.corpus", "Corpus.save", None),
    ("corpus.load", "ginopic.corpus", "load_corpus", None),
    ("corpus.tfidf_dense", "ginopic.corpus", "tfidf_dense", None),
    ("embedding.load", "ginopic.embedding", "load_embeddings", None),
    ("embedding.similarity_cache", "ginopic.embedding", "SimilarityCache.__init__",
     _similarity_pairs),
    ("docgraph.build", "ginopic.docgraph", "build_all_graphs", _graph_counts),
    ("docgraph.save", "ginopic.docgraph", "save_graph_store", _cache_bytes),
    ("docgraph.load", "ginopic.docgraph", "load_graph_store", None),
    ("gin.batch_adjacency", "ginopic.gin", "batch_adjacency", _batch_nnz),
    ("gin.forward", "ginopic.gin", "GinStack.forward", None),
    ("tensor.backward", "ginopic.tensor", "backward", None),
    ("optim.step", "ginopic.optim", "Adam.step", None),
    ("topicmodel.train", "ginopic.topicmodel", "train", None),
    ("topicmodel.forward_batch", "ginopic.topicmodel", "TopicModel.forward_batch",
     _forward_batch),
    ("topicmodel.infer_theta", "ginopic.topicmodel", "infer_theta", _infer_docs),
    ("topicmodel.save_checkpoint", "ginopic.topicmodel", "save_checkpoint", None),
    ("topicmodel.load_checkpoint", "ginopic.topicmodel", "load_checkpoint", None),
    ("metrics.cooccurrence", "ginopic.metrics", "build_cooccurrence", _cooccurrence),
    ("metrics.score", "ginopic.metrics", "npmi", None),
    ("metrics.score", "ginopic.metrics", "cv", None),
    ("metrics.npmi_pair", "ginopic.metrics", "npmi_pair", _scored_pair),
    ("metrics.diversity", "ginopic.metrics", "irbo", None),
    ("metrics.diversity", "ginopic.metrics", "wi_c", None),
    ("metrics.diversity", "ginopic.metrics", "wi_m", None),
    ("downstream.fit", "ginopic.downstream", "train_classifier", _sgd_updates),
] + [(f"tensor.{op}.fwd", "ginopic.tensor", op, None) for op in TENSOR_OPS + _OTHER_OPS]


class Tracer:
    """Records spans and counts while installed; `uninstall` restores the package."""

    def __init__(self):
        self.spans = []          # (span id, parent id or -1, name, start, end)
        self.counts = Counter()
        self.scored_pairs = set()
        self.missing = []        # targets the package no longer has
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, name, fn, hook):
        tracer = self
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each name it is bound to inside the package."""
        # import every module first: one imported later would bind a wrapper
        # by name and keep it after `uninstall`
        package = importlib.import_module("ginopic")
        modules = [package] + [importlib.import_module(f"ginopic.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)
                               if not info.name.startswith("_")]
        for name, module_name, path, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrapper(name, fn, hook)
            if outer:  # a method: every caller looks it up on the class
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        self._wrap_tape_record()

    def _wrap_tape_record(self) -> None:
        from ginopic.tensor import Tape

        tracer = self
        original = Tape.__dict__["record"]

        @functools.wraps(original)
        def record(tape, op, output, inputs, backward_fn):
            tracer.counts["tensor.tape_records"] += 1
            span = f"tensor.{op}.bwd"

            def timed_backward(g):
                return tracer.call(span, backward_fn, (g,), {})

            return original(tape, op, output, inputs, timed_backward)

        self._set(Tape, "record", record)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------
    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls).

        Inclusive time counts only the outermost of nested same-name spans.
        """
        names = [s[2] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl, own, calls = Counter(), Counter(), Counter()
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            own[name] += dur - child_time[sid]
            calls[name] += 1
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][1]
            if p < 0:
                incl[name] += dur
        return incl, own, calls

    def write_spans(self, path) -> None:
        """One span per line: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


_UNITS = {
    "topicmodel.train_docs_per_s": "docs/s",
    "downstream.updates_per_s": "updates/s",
    "metrics.npmi": "score",
    "downstream.accuracy": "fraction",
}


def layer_unit(name: str) -> str:
    """The unit of one per-layer metric."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, failed_commands: int, npmi: float, accuracy: float) -> dict:
    """The declared per-layer metrics, name -> value.

    `npmi` and `accuracy` are what eval-topics and classify printed.
    """
    incl, own, calls = tracer.totals()
    c = tracer.counts
    m = {
        "corpus.build_s": incl["corpus.build"],
        "corpus.tokens": c["corpus.tokens"],
        "corpus.save_s": incl["corpus.save"],
        "corpus.load_s": incl["corpus.load"],
        "corpus.load_calls": calls["corpus.load"],
        "corpus.tfidf_dense_s": incl["corpus.tfidf_dense"],
        "embedding.load_s": incl["embedding.load"],
        "embedding.load_calls": calls["embedding.load"],
        "embedding.similarity_cache_s": incl["embedding.similarity_cache"],
        "embedding.similarity_pairs": c["embedding.similarity_pairs"],
        "docgraph.build_s": own["docgraph.build"],
        "docgraph.pairs_tested": c["docgraph.pairs_tested"],
        "docgraph.edges_kept": c["docgraph.edges_kept"],
        "docgraph.edge_yield": _ratio(c["docgraph.edges_kept"], c["docgraph.pairs_tested"]),
        "docgraph.save_s": incl["docgraph.save"],
        "docgraph.load_s": incl["docgraph.load"],
        "docgraph.load_calls": calls["docgraph.load"],
        "docgraph.cache_bytes": c["docgraph.cache_bytes"],
        "gin.batch_adjacency_s": incl["gin.batch_adjacency"],
        "gin.batch_adjacency_calls": calls["gin.batch_adjacency"],
        "gin.batch_nnz": c["gin.batch_nnz"],
        "gin.forward_s": own["gin.forward"],
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_s"] = incl[f"tensor.{op}.fwd"]
        m[f"tensor.{op}.bwd_s"] = incl[f"tensor.{op}.bwd"]
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}.fwd"]
    updates = c["downstream.sgd_updates"]
    m.update({
        "tensor.backward_s": incl["tensor.backward"],
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.tape_records": c["tensor.tape_records"],
        "optim.step_s": incl["optim.step"],
        "optim.step_calls": calls["optim.step"],
        "topicmodel.train_s": incl["topicmodel.train"],
        "topicmodel.forward_batch_s": own["topicmodel.forward_batch"],
        "topicmodel.train_steps": c["topicmodel.train_steps"],
        "topicmodel.train_docs_per_s": _ratio(c["topicmodel.train_docs"],
                                              incl["topicmodel.train"]),
        "topicmodel.infer_theta_s": incl["topicmodel.infer_theta"],
        "topicmodel.infer_docs": c["topicmodel.infer_docs"],
        "topicmodel.save_checkpoint_s": incl["topicmodel.save_checkpoint"],
        "topicmodel.load_checkpoint_s": incl["topicmodel.load_checkpoint"],
        "metrics.cooccurrence_s": incl["metrics.cooccurrence"],
        "metrics.cooccurrence_calls": calls["metrics.cooccurrence"],
        "metrics.windows": c["metrics.windows"],
        "metrics.pair_increments": c["metrics.pair_increments"],
        "metrics.pairs_distinct": c["metrics.pairs_distinct"],
        "metrics.pairs_scored": len(tracer.scored_pairs),
        "metrics.pair_yield": _ratio(len(tracer.scored_pairs), c["metrics.pairs_distinct"]),
        "metrics.score_s": incl["metrics.score"],
        "metrics.diversity_s": incl["metrics.diversity"],
        "metrics.npmi": npmi,
        "downstream.fit_s": incl["downstream.fit"],
        "downstream.fit_calls": calls["downstream.fit"],
        "downstream.sgd_updates": updates,
        "downstream.updates_per_s": _ratio(updates, incl["downstream.fit"]),
        "downstream.accuracy": accuracy,
    })
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"]
    m["cli.failed_commands"] = failed_commands
    return m
