"""Command-line interface: preprocess -> build-graphs -> train -> evaluate.

Every option can also come from a `key = value` config file (one section per
subcommand, section name = command name); precedence is flag > config file >
built-in default.  Each training run writes a self-contained directory with
the fully resolved config, the checkpoint, the epoch log, and the top-word
lists, so a run can be reproduced from its own artifacts.

Exit codes: 0 success; 2 configuration or contract errors (also argparse
usage errors); 3 data/I-O errors; 4 numeric divergence.  stdout carries data
tables only; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import logging
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .artifact import atomic_write, read_text, write_tsv
from .corpus import (
    PreprocessOptions,
    Vocabulary,
    build_corpus,
    load_corpus,
    load_labels,
    load_texts,
    save_vocabulary,
)
from .docgraph import (
    build_all_graphs,
    graph_density_report,
    load_graph_store,
    save_graph_store,
    validate_delta,
)
from .downstream import SvmConfig, evaluate_accuracy, export_theta, train_classifier
from .embedding import load_embeddings
from .errors import ConfigError, ContractError, DataError, GinopicError, NumericsError, ShapeError
from .gin import GinConfig
from .metrics import (
    build_cooccurrence,
    evaluate_topics,
    load_topics,
    npmi,
    save_topics,
    token_documents,
    validate_persistence,
    write_metrics_report,
)
from .presets import get_preset
from .topicmodel import (
    TrainConfig,
    infer_theta,
    load_checkpoint,
    save_checkpoint,
    save_history,
    top_words,
    train,
)

log = logging.getLogger("ginopic")


# ---------------------------------------------------------------------------
# Option plumbing: flag > config file > default
# ---------------------------------------------------------------------------

def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> tuple:
    try:
        return tuple(float(x) for x in raw.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}") from e


@dataclass(frozen=True)
class Opt:
    flag: str
    conv: object = str          # str -> value; _bool means store_true flag
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _add_opts(parser: argparse.ArgumentParser, opts) -> None:
    for o in opts:
        if o.conv is _bool:
            parser.add_argument(o.flag, dest=o.dest, action="store_const", const=True,
                                default=None, help=o.help)
        else:
            parser.add_argument(o.flag, dest=o.dest, type=str, default=None, help=o.help)


def _resolve(args, opts, section: str, config: configparser.ConfigParser | None):
    """Merge CLI values, config-file values, and defaults into a namespace."""
    out = argparse.Namespace()
    for o in opts:
        raw = getattr(args, o.dest)
        if raw is None and config is not None and config.has_option(section, o.dest):
            raw = config.get(section, o.dest)
        if raw is None:
            value = o.default
        elif isinstance(raw, str):
            try:
                value = o.conv(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"bad value for {o.flag}: {raw!r}") from e
        else:
            value = raw
        if value is None and o.required:
            raise ConfigError(
                f"missing required option {o.flag} (see `ginopic {section} --help`)"
            )
        setattr(out, o.dest, value)
    return out


def _load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with read_text(path, "config file") as fh:
            parser.read_file(fh)
    except configparser.Error as e:
        raise ConfigError(f"malformed config file {path}: {e}") from e
    return parser


def _write_config_ini(path, section: str, values: dict) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser[section] = {
        k: ("" if v is None else str(v)) for k, v in sorted(values.items())
    }
    with atomic_write(path, "run config") as fh:
        parser.write(fh)


def _emit(*cells) -> None:
    print("\t".join(str(c) for c in cells))


# ---------------------------------------------------------------------------
# Option tables
# ---------------------------------------------------------------------------

_PREPROCESS_OPTS = [
    Opt("--input", str, required=True, help="raw text, one document per line"),
    Opt("--labels", str, help="labels aligned with --input, one per line"),
    Opt("--stopwords", str, help="stopword list, one word per line"),
    Opt("--max-vocab", int, 2000, help="keep the most frequent N words"),
    Opt("--min-word-len", int, 3, help="drop shorter words"),
    Opt("--min-doc-len", int, 3, help="drop shorter documents"),
    Opt("--no-lemmatize", _bool, False, help="skip lemmatization"),
    Opt("--ratios", _floats, (0.70, 0.15, 0.15), help="train,validation,test fractions"),
    Opt("--seed", int, 0, help="split shuffling seed"),
    Opt("--out", str, required=True, help="corpus cache file to write"),
]

_BUILD_GRAPHS_OPTS = [
    Opt("--corpus", str, required=True, help="corpus cache from `preprocess`"),
    Opt("--embeddings", str, required=True, help="word embeddings (UTF-8 text)"),
    Opt("--delta", float, help="similarity threshold in [0, 1]"),
    Opt("--preset", str, "custom", help="dataset preset supplying delta (20ng|bbc|ss|bio|so|custom)"),
    Opt("--seed", int, 0, help="seed for out-of-vocabulary embedding fill"),
    Opt("--out", str, required=True, help="graph store file to write (replaced, never read)"),
]

_TRAIN_OPTS = [
    Opt("--corpus", str, required=True),
    Opt("--graphs", str, help="graph cache (required unless --delta-sweep)"),
    Opt("--embeddings", str, help="embeddings (delta-sweep mode only)"),
    Opt("--preset", str, "custom", help="dataset preset for network dimensions"),
    Opt("--topics", int, help="topic count K (default: the corpus label count)"),
    Opt("--tau", int, help="input node-feature dim"),
    Opt("--hidden", int, help="GIN MLP hidden width"),
    Opt("--tau-out", int, help="output node-feature dim"),
    Opt("--gin-layers", int, help="number of GIN layers (>= 2)"),
    Opt("--mlp-hidden-layers", int, help="hidden layers per GIN MLP"),
    Opt("--epsilon", float, 0.0, help="GIN self-loop weight offset"),
    Opt("--encoder-hidden", int, 100),
    Opt("--encoder-layers", int, 1),
    Opt("--dropout", float, 0.2),
    Opt("--alpha", float, help="Dirichlet concentration (default 1/K)"),
    Opt("--lr", float, 2e-3),
    Opt("--batch-size", int, 64),
    Opt("--epochs", int, 50),
    Opt("--seed", int, 0),
    Opt("--seeds", int, help="train N runs with seeds seed..seed+N-1"),
    Opt("--topic-counts", str, help="comma list of topic counts, `gold` = label count"),
    Opt("--delta-sweep", _floats, help="comma list of deltas; rebuilds graphs per delta"),
    Opt("--out", str, required=True, help="run directory"),
]

_EVAL_OPTS = [
    Opt("--model", str, help="checkpoint to score (needs --corpus for words)"),
    Opt("--topics-file", str, help="pre-extracted topics, one per line"),
    Opt("--corpus", str, help="reference corpus for coherence"),
    Opt("--embeddings", str, help="embeddings for wi_c / wi_m"),
    Opt("--top-n", int, 10, help="words per topic when reading a model"),
    Opt("--rbo-p", float, 0.9, help="rank-biased overlap persistence"),
    Opt("--seed", int, 0, help="seed for out-of-vocabulary embedding fill"),
    Opt("--out", str, help="report prefix; writes <out>.tsv and <out>.json"),
]

_CLASSIFY_OPTS = [
    Opt("--model", str, required=True),
    Opt("--corpus", str, required=True),
    Opt("--graphs", str, required=True),
    Opt("--runs", int, 5, help="SVM repetitions with seeds seed..seed+runs-1"),
    Opt("--svm-epochs", int, 100),
    Opt("--svm-lr", float, 0.01),
    Opt("--svm-l2", float, 1e-4),
    Opt("--seed", int, 0),
    Opt("--out", str, help="accuracy table file (TSV)"),
]

_EXPORT_OPTS = [
    Opt("--model", str, required=True),
    Opt("--corpus", str, required=True),
    Opt("--graphs", str, help="graph cache (required for --what theta)"),
    Opt("--what", str, required=True, help="theta | beta | topics | vocab"),
    Opt("--top-n", int, 10, help="words per topic for --what topics"),
    Opt("--out", str, required=True),
]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_preprocess(o) -> int:
    texts = load_texts(o.input)
    labels = load_labels(o.labels) if o.labels else None
    stopwords = None
    if o.stopwords:
        with read_text(o.stopwords, "stopword file") as fh:
            stopwords = frozenset(w.strip() for w in fh if w.strip())
    options = PreprocessOptions(
        max_vocab=o.max_vocab,
        min_word_len=o.min_word_len,
        min_doc_len=o.min_doc_len,
        lemmatize=not o.no_lemmatize,
        stopwords=stopwords,
    )
    corpus = build_corpus(texts, labels, options, ratios=o.ratios, seed=o.seed)
    corpus.save(o.out)
    log.info("corpus written to %s", o.out)
    kept = len(corpus.split.documents)
    _emit("documents_in", len(texts))
    _emit("documents_kept", kept)
    _emit("documents_dropped", len(texts) - kept)
    _emit("vocabulary", len(corpus.vocabulary))
    for name, size in zip(("train", "validation", "test"), corpus.split.sizes):
        _emit(name, size)
    _emit("k_gold", corpus.split.k_gold if corpus.split.k_gold is not None else "-")
    _emit("sha256", corpus.sha256)
    return 0


def _cmd_build_graphs(o) -> int:
    corpus = load_corpus(o.corpus)
    delta = o.delta
    if delta is None:
        preset = get_preset(o.preset)
        if preset is None:
            raise ConfigError("--delta is required (or choose a dataset --preset)")
        delta = preset.delta
    delta = validate_delta(delta)
    embeddings = load_embeddings(o.embeddings, corpus.vocabulary, seed=o.seed)
    if embeddings.oov_count:
        log.warning("%d of %d vocabulary words had no pretrained vector",
                    embeddings.oov_count, len(corpus.vocabulary))
    t0 = time.perf_counter()
    store = build_all_graphs(corpus, embeddings, delta)
    save_graph_store(store, o.out)
    seconds = time.perf_counter() - t0
    log.info("graph store written to %s", o.out)
    report = graph_density_report(store)
    _emit("delta", f"{delta:g}")
    _emit("graphs", len(store))
    _emit("mean_nodes", f"{report.mean_nodes:.3f}")
    _emit("mean_edges", f"{report.mean_edges:.3f}")
    _emit("mean_density", f"{report.mean_density:.6f}")
    _emit("seconds", f"{seconds:.3f}")
    return 0


def _gin_config_from(o) -> GinConfig:
    preset = get_preset(o.preset)

    def pick(value, preset_value, flag):
        if value is not None:
            return value
        if preset_value is not None:
            return preset_value
        raise ConfigError(f"{flag} is required with --preset custom")

    return GinConfig(
        tau=pick(o.tau, preset.tau if preset else None, "--tau"),
        hidden=pick(o.hidden, preset.mlp_hidden_dim if preset else None, "--hidden"),
        tau_out=pick(o.tau_out, preset.tau_out if preset else None, "--tau-out"),
        layers=pick(o.gin_layers, preset.gin_layers if preset else 2, "--gin-layers"),
        mlp_hidden_layers=pick(
            o.mlp_hidden_layers, preset.mlp_hidden_layers if preset else 1,
            "--mlp-hidden-layers"),
        epsilon=o.epsilon,
    )


def _train_config_from(o, topics: int, seed: int) -> TrainConfig:
    """The run's config, validated, so a batch with a rejected setting fails
    before its first run starts and leaves no run directory behind."""
    config = TrainConfig(
        topics=topics,
        gin=_gin_config_from(o),
        encoder_hidden=o.encoder_hidden,
        encoder_layers=o.encoder_layers,
        dropout=o.dropout,
        alpha=o.alpha,
        lr=o.lr,
        batch_size=o.batch_size,
        epochs=o.epochs,
        seed=seed,
    )
    config.validate()
    return config


def _load_graphs(path, corpus):
    """The graph store at `path`, checked against `corpus`: one built from
    another corpus, or with a node id outside its vocabulary, is a DataError
    naming the file."""
    store = load_graph_store(path)
    if store.corpus_sha256 != corpus.sha256 or store.split_sizes != corpus.split.sizes:
        raise DataError("graph store was built from a different corpus", path=path)
    ids = store.graphs.node_ids
    if ids.size and ids.max() >= len(corpus.vocabulary):
        raise DataError("graph node id outside the corpus vocabulary", path=path)
    return store


def _resolve_topics(o, corpus) -> int:
    if o.topics is not None:
        return o.topics
    if corpus.split.k_gold is not None:
        log.info("using the corpus label count as topic count: %d", corpus.split.k_gold)
        return corpus.split.k_gold
    raise ConfigError("--topics is required for an unlabeled corpus")


def _run_one_training(corpus, store, config: TrainConfig, out_dir, paths: dict):
    """Train once and write the run directory; returns (topics, seconds, final
    epoch stats)."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create run directory: {e}", path=out_dir) from e
    t0 = time.perf_counter()
    result = train(corpus, store, config)
    seconds = time.perf_counter() - t0
    topics = top_words(result.model.beta.data, min(10, len(corpus.vocabulary)),
                       corpus.vocabulary)
    save_checkpoint(result.model, os.path.join(out_dir, "model.ckpt"))
    save_history(result.history, os.path.join(out_dir, "epochs.tsv"))
    save_topics(topics, os.path.join(out_dir, "topics.txt"))
    config = result.model.config  # with the store's delta
    echo = {k: v for k, v in config.to_dict().items() if k != "gin"}
    echo.update({f"gin_{k}": v for k, v in config.gin.to_dict().items()})
    echo.update(paths)
    _write_config_ini(os.path.join(out_dir, "config.ini"), "train", echo)
    final = result.history[-1]
    log.info("run %s: final loss %.4f (%.1fs)", out_dir, final.total, seconds)
    return topics, seconds, final


def _reference_stats(corpus):
    """Window-10 co-occurrence over the train split: the npmi reference of a
    batch, built once per invocation since every run shares the split."""
    return build_cooccurrence(token_documents(corpus.split.train, corpus.vocabulary))


def _train_npmi(topics, stats) -> float:
    return float(np.mean([npmi(t, stats) for t in topics]))


def _topic_counts(o, corpus) -> list:
    counts = []
    for item in o.topic_counts.split(","):
        item = item.strip()
        if item == "gold":
            if corpus.split.k_gold is None:
                raise ConfigError("`gold` topic count needs a labeled corpus")
            counts.append(corpus.split.k_gold)
        elif item:
            try:
                counts.append(int(item))
            except ValueError as e:
                raise ConfigError(f"bad topic count {item!r}") from e
    if not counts:
        raise ConfigError("--topic-counts is empty")
    _check_distinct("--topic-counts", counts)
    return counts


def _check_distinct(flag, keys: list) -> None:
    """A batch whose runs would share a run directory is a ConfigError."""
    repeats = [key for i, key in enumerate(keys) if key in keys[:i]]
    if repeats:
        raise ConfigError(f"{flag} lists {repeats[0]} more than once")


def _sweep_runs(corpus, embeddings, deltas, config):
    """One delta-sweep run per delta, all with `config`; each graph store is
    built only when its run comes up, so one store at a time is held."""
    for delta in deltas:
        t0 = time.perf_counter()
        store = build_all_graphs(corpus, embeddings, delta)
        build_s = time.perf_counter() - t0
        cells = (f"{graph_density_report(store).mean_edges:.3f}", f"{build_s:.3f}")
        yield f"{delta:g}", f"delta{delta:g}", config, store, cells


def _cmd_train(o) -> int:
    # a batch option with an option that batch would ignore
    for a, b in (("--delta-sweep", "--graphs"), ("--delta-sweep", "--seeds"),
                 ("--delta-sweep", "--topic-counts"), ("--topic-counts", "--seeds"),
                 ("--topic-counts", "--topics")):
        if all(getattr(o, Opt(flag).dest) is not None for flag in (a, b)):
            raise ConfigError(f"{a} and {b} cannot be combined")
    corpus = load_corpus(o.corpus)
    paths = {"corpus_path": o.corpus, "graphs_path": o.graphs or ""}

    # a batch is (key columns, table file, runs): each run is (key,
    # subdirectory, config, graph store, cells between key and final_loss)
    if o.delta_sweep:
        if not o.embeddings:
            raise ConfigError("--delta-sweep needs --embeddings to rebuild graphs")
        deltas = [validate_delta(d) for d in o.delta_sweep]
        _check_distinct("--delta-sweep", [f"{d:g}" for d in deltas])
        embeddings = load_embeddings(o.embeddings, corpus.vocabulary, seed=o.seed)
        head, table = ("delta", "mean_edges", "build_seconds"), "sweep.tsv"
        config = _train_config_from(o, _resolve_topics(o, corpus), o.seed)
        runs = _sweep_runs(corpus, embeddings, deltas, config)
    else:
        if not o.graphs:
            raise ConfigError("--graphs is required (or use --delta-sweep with --embeddings)")
        store = _load_graphs(o.graphs, corpus)
        if o.topic_counts:
            head, table = ("topics",), "aggregate.tsv"
            runs = [(str(k), f"K{k}", _train_config_from(o, k, o.seed), store, ())
                    for k in _topic_counts(o, corpus)]
        else:
            topics_k = _resolve_topics(o, corpus)
            n_seeds = 1 if o.seeds is None else o.seeds
            if n_seeds < 1:
                raise ConfigError(f"--seeds must be >= 1, got {n_seeds}")
            if n_seeds == 1:
                config = _train_config_from(o, topics_k, o.seed)
                _, secs, final = _run_one_training(corpus, store, config, o.out, paths)
                _emit("topics", "seed", "final_loss", "train_seconds")
                _emit(topics_k, o.seed, f"{final.total:.6f}", f"{secs:.3f}")
                return 0
            head, table = ("seed",), "aggregate.tsv"
            runs = [(str(s), f"seed{s}", _train_config_from(o, topics_k, s), store, ())
                    for s in range(o.seed, o.seed + n_seeds)]

    stats = _reference_stats(corpus)
    rows = [head + ("final_loss", "train_seconds", "npmi")]
    _emit(*rows[0])
    for key, subdir, config, store, cells in runs:
        topics, secs, final = _run_one_training(corpus, store, config,
                                                os.path.join(o.out, subdir), paths)
        rows.append((key, *cells, f"{final.total:.6f}", f"{secs:.3f}",
                     f"{_train_npmi(topics, stats):.6f}"))
        _emit(*rows[-1])
    if head == ("seed",):  # only a seed batch averages its runs
        rows.append(("mean", "", "", f"{np.mean([float(r[-1]) for r in rows[1:]]):.6f}"))
        _emit(*rows[-1])
    write_tsv(os.path.join(o.out, table), rows, "batch table")
    return 0


def _cmd_eval_topics(o) -> int:
    if bool(o.model) == bool(o.topics_file):
        raise ConfigError("give exactly one of --model or --topics-file")
    if o.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {o.top_n}")
    validate_persistence(o.rbo_p)
    corpus = load_corpus(o.corpus) if o.corpus else None
    if o.model:
        if corpus is None:
            raise ConfigError("--model needs --corpus to map word ids to words")
        model = load_checkpoint(o.model, vocabulary=corpus.vocabulary)
        topics = top_words(model.beta.data, min(o.top_n, len(corpus.vocabulary)),
                           corpus.vocabulary)
    else:
        topics = load_topics(o.topics_file)
        if corpus is not None and len(topics[0]) < 2:
            raise DataError(f"topics file: coherence needs >= 2 words per topic, "
                            f"got {len(topics[0])}", path=o.topics_file)

    embeddings = None
    if o.embeddings:  # aligned to the topic words, the only rows wi_c and wi_m read
        words = sorted({w for t in topics for w in t})
        vocab = Vocabulary(words=words, doc_frequency=np.zeros(len(words), dtype=np.int64))
        embeddings = load_embeddings(o.embeddings, vocab, seed=o.seed)
    reference = (token_documents(corpus.split.train, corpus.vocabulary)
                 if corpus is not None else None)
    metrics = evaluate_topics(topics, reference, embeddings, o.rbo_p)

    for key in sorted(k for k, v in metrics.items() if isinstance(v, float)):
        _emit(key, f"{metrics[key]:.9g}")
    if o.out:
        write_metrics_report(metrics, f"{o.out}.tsv", f"{o.out}.json")
        log.info("report written to %s.tsv and %s.json", o.out, o.out)
    return 0


def _cmd_classify(o) -> int:
    if o.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {o.runs}")
    svm = SvmConfig(epochs=o.svm_epochs, lr=o.svm_lr, l2=o.svm_l2, seed=o.seed)
    svm.validate()
    corpus = load_corpus(o.corpus)
    if (corpus.split.documents.labels < 0).any():
        raise ConfigError("classification needs a labeled corpus")
    for name in ("train", "test"):
        if not getattr(corpus.split, name):
            raise ContractError(f"{name} split is empty")
    store = _load_graphs(o.graphs, corpus)
    model = load_checkpoint(o.model, vocabulary=corpus.vocabulary)

    theta_train = infer_theta(model, corpus.split.train, store.train_graphs())
    theta_test = infer_theta(model, corpus.split.test, store.test_graphs())
    y_train, y_test = corpus.split.train.labels, corpus.split.test.labels

    rows = [("run", "seed", "accuracy")]
    _emit(*rows[0])
    accuracies = []
    for r in range(o.runs):
        classifier = train_classifier(theta_train, y_train, replace(svm, seed=o.seed + r))
        accuracies.append(evaluate_accuracy(classifier, theta_test, y_test))
        rows.append((r, o.seed + r, f"{accuracies[-1]:.6f}"))
        _emit(*rows[-1])
    rows.append(("mean", "", f"{float(np.mean(accuracies)):.6f}"))
    _emit(*rows[-1])
    if o.out:
        write_tsv(o.out, rows, "accuracy table")
    return 0


def _cmd_export(o) -> int:
    if o.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {o.top_n}")
    corpus = load_corpus(o.corpus)
    model = load_checkpoint(o.model, vocabulary=corpus.vocabulary)
    if o.what == "theta":
        if not o.graphs:
            raise ConfigError("--what theta needs --graphs")
        export_theta(model, corpus, _load_graphs(o.graphs, corpus), o.out)
    elif o.what == "beta":
        write_tsv(o.out, ((k, *(f"{v:.9g}" for v in row))
                          for k, row in enumerate(model.beta.data)), "beta export")
    elif o.what == "topics":
        topics = top_words(model.beta.data, min(o.top_n, len(corpus.vocabulary)),
                           corpus.vocabulary)
        save_topics(topics, o.out)
    elif o.what == "vocab":
        save_vocabulary(corpus.vocabulary, o.out)
    else:
        raise ConfigError(f"--what must be theta|beta|topics|vocab, got {o.what!r}")
    log.info("%s written to %s", o.what, o.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "preprocess": (_PREPROCESS_OPTS, _cmd_preprocess, "tokenize, build vocabulary, split, tf-idf"),
    "build-graphs": (_BUILD_GRAPHS_OPTS, _cmd_build_graphs, "construct word-similarity document graphs"),
    "train": (_TRAIN_OPTS, _cmd_train, "train the topic model"),
    "eval-topics": (_EVAL_OPTS, _cmd_eval_topics, "coherence and diversity metrics"),
    "classify": (_CLASSIFY_OPTS, _cmd_classify, "document classification on topic proportions"),
    "export": (_EXPORT_OPTS, _cmd_export, "write theta / beta / topics / vocabulary files"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginopic",
        description="Graph-augmented neural topic modeling",
    )
    parser.add_argument("--verbose", action="store_true", help="debug-level diagnostics")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (opts, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None,
                         help=f"INI file; values read from its [{name}] section")
        _add_opts(cmd, opts)
    return parser


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc starts both low and raises them as large blocks are
    freed.  Training frees and reallocates its arrays every step, and in a
    fresh process glibc keeps trimming the top of the heap and faulting it
    back in: one desk training epoch took about 82,000 minor page faults
    instead of 14,000.  32 MiB is the ceiling of glibc's own dynamic mmap
    threshold on 64-bit, and the trim threshold is twice it, glibc's own
    ratio.  Setting either one turns off glibc's adjustment of both, so
    setting one alone made more faults, not fewer (about 148,000 for the
    mmap threshold, 350,000 for the trim threshold).  Only the CLI sets
    them: a library caller keeps its process's allocator settings.  Where
    `mallopt` is missing (a libc other than glibc) nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_heap()
    args = build_parser().parse_args(argv)
    # a dedicated handler rather than basicConfig: repeated in-process calls
    # must each bind to the current sys.stderr, and basicConfig is a no-op
    # once any other handler exists
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    old_level = root.level
    root.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        if not args.command:
            build_parser().print_usage(sys.stderr)
            return 2
        opts, fn, _ = _COMMANDS[args.command]
        try:
            config = _load_config(args.config) if args.config else None
            resolved = _resolve(args, opts, args.command, config)
            return fn(resolved)
        except (ConfigError, ShapeError, ContractError) as e:
            log.error("%s", e)
            return 2
        except DataError as e:
            log.error("%s", e)
            return 3
        except NumericsError as e:
            log.error("%s", e)
            return 4
        except GinopicError as e:  # any future subclass defaults to config-class failure
            log.error("%s", e)
            return 2
    finally:
        root.removeHandler(handler)
        root.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())
