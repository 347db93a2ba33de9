"""Executable acceptance checks for the whole toolkit.

Nine checks, one test each, covering gradient correctness, graph
construction, GIN expressiveness, the prior and KL math, the metric oracles,
synthetic topic recovery, desk-scale coherence, the extrinsic classification
pipeline, and determinism/persistence.  Every test prints a single
`[acceptance N] label: PASS|FAIL (...)` line (run with `pytest -s` to see
them) and then asserts the same condition.

The desk-scale coherence check generates its own labeled corpus by default;
point GINOPIC_DESK_CORPUS / GINOPIC_DESK_LABELS / GINOPIC_DESK_EMBEDDINGS at
a real dataset (raw text, one document per line; aligned labels; embedding
file) to run it on user-supplied data instead.
"""
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import ginopic.tensor as T
from ginopic.corpus import (
    CorpusColumns,
    PreprocessOptions,
    build_corpus,
    load_labels,
    load_texts,
)
from ginopic.docgraph import build_all_graphs, build_document_graph
from ginopic.downstream import SvmConfig, evaluate_accuracy, train_classifier
from ginopic.embedding import EmbeddingMatrix, load_embeddings
from ginopic.gin import GinConfig, gin_stack_forward, wl_distinguishability_test
from ginopic.metrics import build_cooccurrence, irbo, npmi, rbo, token_documents
from ginopic.rng import stream
from ginopic.synthetic import (
    block_embeddings,
    block_topic_corpus,
    desk_embeddings,
    greedy_block_match,
    labeled_text_corpus,
    probe_documents,
)
from ginopic.topicmodel import (
    PriorParams,
    TopicModel,
    TrainConfig,
    elbo_loss,
    infer_theta,
    laplace_prior,
    load_checkpoint,
    save_checkpoint,
    top_words,
    train,
)

from conftest import make_document
from test_docgraph import brute_force_graph, random_embeddings
from test_gin import HEXAGON, PATH3, TRIANGLE, TWO_TRIANGLES, graph, permute_graph, small_stack
from test_metrics import brute_force_stats


def report(n: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _weighted(out: T.Tensor, key: str) -> T.Tensor:
    w = stream(2, f"acceptance/fd/{key}").normal(size=out.shape)
    return T.sum(T.mul(out, T.Tensor(w, dtype=np.float64)))


def _op_cases():
    """One finite-difference case per autodiff op, all float64."""
    gen = stream(2, "acceptance/fd/inputs")

    def x(shape, low=-1.0, high=1.0):
        return T.Tensor(gen.uniform(low, high, size=shape), dtype=np.float64)

    c34 = T.Tensor(gen.normal(size=(3, 4)), dtype=np.float64)
    c42 = T.Tensor(gen.normal(size=(4, 2)), dtype=np.float64)
    sparse = T.SparseMatrix.from_coo(
        rows=[0, 0, 1, 2, 4], cols=[1, 3, 0, 2, 3],
        values=[0.7, -1.2, 0.5, 2.0, -0.4], shape=(5, 4), dtype=np.float64,
    )
    gamma = T.Tensor(gen.uniform(0.5, 1.5, size=(4,)), dtype=np.float64)
    beta = T.Tensor(gen.normal(size=(4,)), dtype=np.float64)
    # drawn apart from `gen`, and the linear cases come last, so that no
    # other case's inputs move
    b2 = T.Tensor(stream(2, "acceptance/fd/linear").normal(size=(2,)), dtype=np.float64)

    def bn_train(v, g=gamma, b=beta):
        rm = np.zeros(4, dtype=np.float64)
        rv = np.ones(4, dtype=np.float64)
        return T.batchnorm_1d(v, g, b, rm, rv, 0.1, 1e-5, True)

    eval_mean = gen.normal(size=4)
    eval_var = gen.uniform(0.5, 2.0, size=4)

    cases = {
        "matmul": (lambda v: _weighted(T.matmul(v, c42), "matmul"), x((3, 4))),
        "transpose": (lambda v: _weighted(T.transpose(v), "transpose"), x((3, 4))),
        "add": (lambda v: _weighted(T.add(v, c34), "add"), x((3, 4))),
        "mul": (lambda v: _weighted(T.mul(v, c34), "mul"), x((3, 4))),
        "scale": (lambda v: _weighted(T.scale(v, 1.7), "scale"), x((3, 4))),
        "add_scalar": (lambda v: _weighted(T.add_scalar(v, 0.9), "add_scalar"), x((3, 4))),
        "log": (lambda v: _weighted(T.log(v), "log"), x((3, 4), 0.5, 1.5)),
        "exp": (lambda v: _weighted(T.exp(v), "exp"), x((3, 4))),
        "sqrt": (lambda v: _weighted(T.sqrt(v), "sqrt"), x((3, 4), 0.5, 1.5)),
        "relu": (lambda v: _weighted(T.relu(v), "relu"),
                 T.Tensor(gen.uniform(0.2, 1.2, size=(3, 4))
                          * gen.choice([-1.0, 1.0], size=(3, 4)), dtype=np.float64)),
        "softplus": (lambda v: _weighted(T.softplus(v), "softplus"), x((3, 4))),
        "softmax": (lambda v: _weighted(T.softmax(v), "softmax"), x((3, 4))),
        "log_softmax": (lambda v: _weighted(T.log_softmax(v), "log_softmax"), x((3, 4))),
        "sum": (lambda v: T.sum(v), x((3, 4))),
        "sum_axis0": (lambda v: _weighted(T.sum(v, axis=0), "sum_axis0"), x((3, 4))),
        "sum_axis1": (lambda v: _weighted(T.sum(v, axis=1), "sum_axis1"), x((3, 4))),
        "mean": (lambda v: T.mean(v), x((3, 4))),
        "concat_rows": (lambda v: _weighted(T.concat_rows([v, c34]), "concat_rows"),
                        x((2, 4))),
        "concat_cols": (lambda v: _weighted(T.concat_cols([v, c34]), "concat_cols"),
                        x((3, 2))),
        "gather_rows": (lambda v: _weighted(T.gather_rows(v, [0, 2, 2, 1]), "gather_rows"),
                        x((3, 4))),
        "segment_sum": (lambda v: _weighted(T.segment_sum(v, [0, 0, 1, 2, 2], 4),
                                            "segment_sum"), x((5, 3))),
        "spmm": (lambda v: _weighted(T.spmm(sparse, v), "spmm"), x((4, 3))),
        "dropout": (lambda v: _weighted(
            T.dropout(v, 0.3, True, stream(3, "acceptance/fd/dropout")), "dropout"),
            x((3, 4))),
        "batchnorm_train_x": (lambda v: _weighted(bn_train(v), "bn_x"), x((6, 4))),
        "batchnorm_train_gamma": (
            lambda v: _weighted(bn_train(x_bn_fixed, v, beta), "bn_gamma"),
            T.Tensor(gen.uniform(0.5, 1.5, size=(4,)), dtype=np.float64)),
        "batchnorm_eval": (lambda v: _weighted(
            T.batchnorm_1d(v, gamma, beta, eval_mean, eval_var, 0.1, 1e-5, False),
            "bn_eval"), x((6, 4))),
        "linear_x": (lambda v: _weighted(T.linear(v, c42, b2), "linear_x"), x((3, 4))),
        "linear_w": (lambda v: _weighted(T.linear(c34, v, b2), "linear_w"), x((4, 2))),
        "linear_b": (lambda v: _weighted(T.linear(c34, c42, v), "linear_b"), x((2,))),
    }
    return cases


x_bn_fixed = None  # set in the test; gamma case normalizes a fixed batch


def test_1_gradient_correctness():
    global x_bn_fixed
    t0 = time.perf_counter()
    gen = stream(2, "acceptance/fd/bnbatch")
    x_bn_fixed = T.Tensor(gen.normal(size=(6, 4)), dtype=np.float64)

    worst_op, worst_op_err = "", 0.0
    for name, (f, x0) in _op_cases().items():
        rep = T.finite_difference_check(f, x0)
        if rep.max_rel_err > worst_op_err:
            worst_op, worst_op_err = name, rep.max_rel_err

    # end to end: graph -> GIN -> encoder -> decoder -> loss on 5 documents,
    # training mode with the noise and dropout streams rebuilt per evaluation
    corpus = block_topic_corpus(seed=1, n_docs=5, n_topics=2, words_per_topic=4,
                                doc_len=(4, 8))
    emb = block_embeddings(corpus.vocabulary, 2, 4, within=0.8)
    store = build_all_graphs(corpus, emb, delta=0.3)
    docs, graphs = corpus.split.train, store.train_graphs()
    config = TrainConfig(topics=2, gin=GinConfig(tau=3, hidden=4, tau_out=3),
                         encoder_hidden=5, epochs=1, batch_size=5, seed=7)
    with T.default_dtype(np.float64):
        model = TopicModel(len(corpus.vocabulary), config)

        def loss(_):
            out = model.forward_batch(docs, graphs, training=True,
                                      noise_rng=stream(5, "acceptance/fd/noise"),
                                      dropout_rng=stream(6, "acceptance/fd/drop"))
            return out.total

        worst_e2e = 0.0
        for _, p in model.parameters():
            worst_e2e = max(worst_e2e, T.finite_difference_check(loss, p).max_rel_err)

    elapsed = time.perf_counter() - t0
    ok = worst_op_err < 1e-5 and worst_e2e < 1e-4 and elapsed < 60
    assert report(1, "gradient correctness", ok,
                  f"worst op rel err {worst_op_err:.2e} [{worst_op}], "
                  f"end-to-end {worst_e2e:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. document graph construction
# ---------------------------------------------------------------------------

def test_2_graph_construction():
    t0 = time.perf_counter()
    emb = random_embeddings(40, 12, seed=3)
    gen = np.random.default_rng(202)
    exact = 0
    docs = []
    for _ in range(1000):
        doc = make_document(gen.integers(0, 40, size=int(gen.integers(2, 26))))
        docs.append(doc)
        delta = float(gen.random())
        got = build_document_graph(doc, emb, delta)
        exact += int((got.node_ids, got.adjacency) == brute_force_graph(doc, emb, delta))

    monotone = True
    for doc in docs[:200]:
        lo, hi = sorted(gen.random(2))
        g_lo = build_document_graph(doc, emb, lo)
        g_hi = build_document_graph(doc, emb, hi)
        kept = tuple(e for e in g_lo.adjacency if e[2] >= hi)
        monotone &= g_hi.adjacency == kept

    elapsed = time.perf_counter() - t0
    ok = exact == 1000 and monotone and elapsed < 60
    assert report(2, "graph construction vs brute force", ok,
                  f"{exact}/1000 exact, monotone={monotone}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. GIN expressiveness
# ---------------------------------------------------------------------------

def test_3_gin_expressiveness():
    t0 = time.perf_counter()
    gen = np.random.default_rng(17)
    stack = small_stack(0)
    max_diff = 0.0
    for _ in range(10):
        n = int(gen.integers(3, 9))
        edges = [(i, j, float(gen.uniform(0.3, 1.0)))
                 for i in range(n) for j in range(i + 1, n) if gen.random() < 0.5]
        g = graph(n, edges, node_ids=tuple(int(v) for v in gen.integers(0, 30, size=n)))
        _, h = gin_stack_forward(g, stack, training=False)
        _, hp = gin_stack_forward(permute_graph(g, gen.permutation(n)), stack,
                                  training=False)
        max_diff = max(max_diff, float(np.max(np.abs(h.data - hp.data))))

    tri = graph(3, TRIANGLE, node_ids=(0,) * 3)
    path = graph(3, PATH3, node_ids=(0,) * 3)
    two_cycles = graph(6, TWO_TRIANGLES, node_ids=(0,) * 6)
    hexagon = graph(6, HEXAGON, node_ids=(0,) * 6)
    separated = sum(wl_distinguishability_test(tri, path, small_stack(seed))
                    for seed in range(20))
    conflated = sum(not wl_distinguishability_test(two_cycles, hexagon, small_stack(seed))
                    for seed in range(20))

    elapsed = time.perf_counter() - t0
    ok = max_diff < 1e-5 and separated >= 19 and conflated == 20 and elapsed < 60
    assert report(3, "GIN expressiveness", ok,
                  f"perm inv max diff {max_diff:.1e}, triangle/path separated "
                  f"{separated}/20, cycle pair conflated {conflated}/20, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. prior and KL math
# ---------------------------------------------------------------------------

def _kl_closed_form(mu_q, var_q, mu_p, var_p) -> float:
    x = T.zeros((1, 1), dtype=np.float64)
    x_hat = T.ones((1, 1), dtype=np.float64)
    mu = T.Tensor(mu_q[None, :], dtype=np.float64)
    sigma = T.Tensor(var_q[None, :], dtype=np.float64)
    _, kl, _ = elbo_loss(x, x_hat, mu, sigma, PriorParams(mu=mu_p, sigma=var_p))
    return float(kl.data)


def _kl_monte_carlo(mu_q, var_q, mu_p, var_p, gen, n=200_000) -> float:
    eps = gen.standard_normal((n, mu_q.size))
    eps = np.concatenate([eps, -eps])  # antithetic pairs halve the variance
    z = mu_q + np.sqrt(var_q) * eps
    lq = -0.5 * (np.log(2 * np.pi * var_q) + (z - mu_q) ** 2 / var_q).sum(axis=1)
    lp = -0.5 * (np.log(2 * np.pi * var_p) + (z - mu_p) ** 2 / var_p).sum(axis=1)
    return float(np.mean(lq - lp))


def test_4_prior_and_kl():
    t0 = time.perf_counter()
    flat = laplace_prior(np.array([1.0, 1.0]))
    hands = (
        np.array_equal(flat.mu, [0.0, 0.0])
        and np.allclose(flat.sigma, [0.5, 0.5], rtol=0, atol=1e-15)
        and np.array_equal(laplace_prior(np.full(4, 2.0)).mu, np.zeros(4))
        and np.allclose(laplace_prior(np.full(4, 2.0)).sigma, 0.375, rtol=0, atol=1e-15)
    )

    gen = stream(0, "acceptance/kl")
    worst = 0.0
    for _ in range(100):
        k = int(gen.integers(2, 9))
        mu_q, mu_p = gen.normal(size=k), gen.normal(size=k)
        var_q = np.exp(gen.uniform(-1.0, 1.0, size=k))
        var_p = np.exp(gen.uniform(-1.0, 1.0, size=k))
        exact = _kl_closed_form(mu_q, var_q, mu_p, var_p)
        estimate = _kl_monte_carlo(mu_q, var_q, mu_p, var_p, gen)
        worst = max(worst, abs(estimate - exact) / exact)

    elapsed = time.perf_counter() - t0
    ok = hands and worst < 0.01 and elapsed < 60
    assert report(4, "prior moments and KL", ok,
                  f"hand values {'ok' if hands else 'WRONG'}, worst MC deviation "
                  f"{worst:.3%} over 100 pairs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. metric oracles
# ---------------------------------------------------------------------------

def test_5_metric_oracles():
    t0 = time.perf_counter()
    corpora = [
        ["aa bb cc aa dd".split(), "bb bb".split(), ["ee"], [], "aa cc aa cc dd".split()],
        [["xx", "yy"] * 6, ["zz"] * 3, "xx zz yy".split()],
    ]
    oracle_ok = True
    for docs in corpora:
        for ws in (2, 5, 10):
            stats = build_cooccurrence(docs, ws)
            n_win, words, pairs = brute_force_stats(docs, ws)
            oracle_ok &= (stats.n_windows == n_win and stats.word_counts == words
                          and stats.pair_counts == pairs)

    # limit cases: perfect association, never-together, absent pair
    always = build_cooccurrence([["aa", "bb"], ["cc", "dd"]], 10)
    never = build_cooccurrence([["aa", "cc"], ["bb", "dd"]] * 5, 10)
    high = npmi(["aa", "bb"], always)
    low = npmi(["aa", "bb"], never)
    absent = npmi(["aa", "qq"], always)
    independent = build_cooccurrence(
        [["aa", "bb"], ["aa", "xx"], ["bb", "yy"], ["uu", "vv"]], 10)
    near_zero = npmi(["aa", "bb"], independent)
    limits_ok = (high > 0.99 and -1.0 <= low < -0.9 and absent == -1.0
                 and abs(near_zero) < 0.05)

    irbo_ok = (irbo([["aa", "bb", "cc"], ["aa", "bb", "cc"]]) == 0.0
               and irbo([["aa", "bb"], ["cc", "dd"]]) == 1.0)
    shared_top = rbo(["aa", "bb", "xx"], ["aa", "bb", "yy"], p=0.9)
    shared_bottom = rbo(["xx", "bb", "aa"], ["yy", "bb", "aa"], p=0.9)
    hand = rbo(["xx", "yy"], ["yy", "xx"], p=0.9)
    rbo_ok = shared_top > shared_bottom and abs(hand - 9.0 / 19.0) < 1e-6

    elapsed = time.perf_counter() - t0
    ok = oracle_ok and limits_ok and irbo_ok and rbo_ok and elapsed < 60
    assert report(5, "metric oracles", ok,
                  f"cooccurrence oracle={oracle_ok}, npmi limits ({high:.3f}, "
                  f"{low:.3f}, {absent:.0f}, {near_zero:.3f}), irbo endpoints={irbo_ok}, "
                  f"rbo hand {hand:.10f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 & 8 share one synthetic recovery study (five trained models)
# ---------------------------------------------------------------------------

N_TOPICS, WORDS_PER_TOPIC = 3, 10


def _recovery_config(seed: int) -> TrainConfig:
    return TrainConfig(topics=N_TOPICS, gin=GinConfig(tau=16, hidden=16, tau_out=16),
                       encoder_hidden=64, epochs=50, batch_size=32, lr=0.02, seed=seed)


@pytest.fixture(scope="session")
def recovery():
    t0 = time.perf_counter()
    corpus = block_topic_corpus(seed=0, n_docs=1000, n_topics=N_TOPICS,
                                words_per_topic=WORDS_PER_TOPIC, alpha=0.1)
    emb = block_embeddings(corpus.vocabulary, N_TOPICS, WORDS_PER_TOPIC, within=0.9)
    store = build_all_graphs(corpus, emb, delta=0.5)

    probes = CorpusColumns.pack(probe_documents(N_TOPICS, WORDS_PER_TOPIC),
                                corpus.split.train.idf)
    probe_graphs = [build_document_graph(d, emb, 0.5) for d in probes]
    probe_labels = probes.labels

    runs = []
    for seed in range(5):
        model = train(corpus, store, _recovery_config(seed)).model
        topics = top_words(model.beta.data, 10, corpus.vocabulary)
        mapping, purity = greedy_block_match(topics, N_TOPICS, WORDS_PER_TOPIC,
                                             corpus.vocabulary)
        theta = infer_theta(model, probes, probe_graphs)
        pred = np.array([mapping[int(t)] for t in np.argmax(theta, axis=1)])
        runs.append(SimpleNamespace(
            seed=seed, model=model, purity=purity,
            probe_accuracy=float(np.mean(pred == probe_labels)),
        ))
    return SimpleNamespace(corpus=corpus, store=store, runs=runs,
                           seconds=time.perf_counter() - t0)


def test_6_synthetic_topic_recovery(recovery):
    t0 = time.perf_counter()
    passing = sum(r.purity >= 0.8 and r.probe_accuracy >= 0.9 for r in recovery.runs)
    elapsed = recovery.seconds + (time.perf_counter() - t0)
    ok = passing >= 4 and elapsed < 300
    detail = ", ".join(f"seed{r.seed} purity={r.purity:.2f} probe={r.probe_accuracy:.2f}"
                       for r in recovery.runs)
    assert report(6, "synthetic topic recovery", ok,
                  f"{passing}/5 seeds pass; {detail}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. desk-scale directional coherence
# ---------------------------------------------------------------------------

def _desk_data():
    corpus_path = os.environ.get("GINOPIC_DESK_CORPUS")
    if corpus_path:
        labels_path = os.environ.get("GINOPIC_DESK_LABELS")
        emb_path = os.environ.get("GINOPIC_DESK_EMBEDDINGS")
        if not labels_path or not emb_path:
            pytest.fail("GINOPIC_DESK_CORPUS also needs GINOPIC_DESK_LABELS "
                        "and GINOPIC_DESK_EMBEDDINGS")
        corpus = build_corpus(load_texts(corpus_path), load_labels(labels_path),
                              PreprocessOptions())
        embeddings = load_embeddings(emb_path, corpus.vocabulary, seed=0)
        return corpus, embeddings, corpus_path
    texts, labels, word_classes = labeled_text_corpus(seed=0)
    corpus = build_corpus(texts, labels, PreprocessOptions())
    embeddings = desk_embeddings(corpus.vocabulary, word_classes,
                                 corpus.split.k_gold, within=0.6)
    return corpus, embeddings, "generated"


def _shuffled_npmi(topics, stats, seed: int, reps: int = 20) -> float:
    """Same words, randomly regrouped into equally sized lists."""
    words = [w for t in topics for w in t]
    k, n = len(topics), len(topics[0])
    values = []
    for r in range(reps):
        perm = stream(seed, f"acceptance/shuffle/{r}").permutation(len(words))
        regrouped = [[words[perm[i * n + j]] for j in range(n)] for i in range(k)]
        values.append(float(np.mean([npmi(t, stats) for t in regrouped])))
    return float(np.mean(values))


def test_7_desk_scale_coherence():
    t0 = time.perf_counter()
    corpus, embeddings, source = _desk_data()
    n_docs = len(corpus.split.all_documents())
    assert n_docs >= 2000, f"desk corpus must have >= 2000 documents, got {n_docs}"
    assert corpus.split.k_gold is not None, "desk corpus must be labeled"

    store = build_all_graphs(corpus, embeddings, delta=0.4)
    stats = build_cooccurrence(token_documents(corpus.split.train, corpus.vocabulary))

    margins = []
    per_seed = []
    for seed in range(3):
        config = TrainConfig(topics=corpus.split.k_gold,
                             gin=GinConfig(tau=32, hidden=32, tau_out=32),
                             encoder_hidden=100, epochs=50, batch_size=64,
                             lr=0.02, seed=seed)
        model = train(corpus, store, config).model
        topics = top_words(model.beta.data, 10, corpus.vocabulary)
        trained = float(np.mean([npmi(t, stats) for t in topics]))
        shuffled = _shuffled_npmi(topics, stats, seed)
        margins.append(trained - shuffled)
        per_seed.append(f"seed{seed} {trained:.3f} vs {shuffled:.3f}")

    mean_margin = float(np.mean(margins))
    elapsed = time.perf_counter() - t0
    ok = mean_margin >= 0.05 and elapsed < 1800
    assert report(7, "desk-scale coherence", ok,
                  f"{source}, {n_docs} docs, K={corpus.split.k_gold}; npmi margin "
                  f"{mean_margin:.3f} over shuffled baseline ({'; '.join(per_seed)}); "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. extrinsic classification pipeline
# ---------------------------------------------------------------------------

def test_8_extrinsic_pipeline(recovery):
    t0 = time.perf_counter()
    corpus, store = recovery.corpus, recovery.store
    model = recovery.runs[0].model
    theta_train = infer_theta(model, corpus.split.train, store.train_graphs())
    theta_test = infer_theta(model, corpus.split.test, store.test_graphs())
    y_train = np.array([d.label for d in corpus.split.train])
    y_test = np.array([d.label for d in corpus.split.test])

    clf = train_classifier(theta_train, y_train)
    accuracy = evaluate_accuracy(clf, theta_test, y_test)

    # random-label control: chance accuracy for the mean over label
    # permutations (single permutations are high-variance because the
    # classifier maps whole theta clusters to arbitrary classes)
    control = []
    for rep in range(30):
        perm = stream(rep, "acceptance/label-perm").permutation(len(y_train))
        control_clf = train_classifier(theta_train, y_train[perm], SvmConfig(seed=rep))
        control.append(evaluate_accuracy(control_clf, theta_test, y_test))
    chance = 1.0 / N_TOPICS
    control_mean = float(np.mean(control))

    elapsed = time.perf_counter() - t0
    ok = accuracy >= 0.9 and abs(control_mean - chance) <= 0.1
    assert report(8, "extrinsic classification", ok,
                  f"held-out accuracy {accuracy:.3f}, control {control_mean:.3f} "
                  f"vs chance {chance:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism and persistence
# ---------------------------------------------------------------------------

def test_9_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    corpus = block_topic_corpus(seed=3, n_docs=200, n_topics=2, words_per_topic=8,
                                doc_len=(10, 30))
    emb = block_embeddings(corpus.vocabulary, 2, 8, within=0.9)
    store = build_all_graphs(corpus, emb, delta=0.5)

    def config():
        return TrainConfig(topics=2, gin=GinConfig(tau=8, hidden=8, tau_out=8),
                           encoder_hidden=16, epochs=5, batch_size=32, lr=5e-3,
                           seed=11)

    model_a = train(corpus, store, config()).model
    model_b = train(corpus, store, config()).model
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model_a, path_a)
    save_checkpoint(model_b, path_b)
    bitwise = path_a.read_bytes() == path_b.read_bytes()

    loaded = load_checkpoint(path_a, vocabulary=corpus.vocabulary)
    theta_direct = infer_theta(model_a, corpus.split.test, store.test_graphs())
    theta_loaded = infer_theta(loaded, corpus.split.test, store.test_graphs())
    round_trip = np.array_equal(theta_direct, theta_loaded)

    # sweep over continuous-similarity embeddings so the threshold actually
    # prunes (block embeddings only realize two similarity values)
    v = len(corpus.vocabulary)
    sweep_emb = EmbeddingMatrix(
        vectors=stream(4, "acceptance/sweep-emb").normal(size=(v, 12)),
        oov_mask=np.zeros(v, dtype=bool), vocabulary=corpus.vocabulary,
    )
    edge_counts = []
    for delta in (0.1, 0.3, 0.5):
        t_build = time.perf_counter()
        sweep_store = build_all_graphs(corpus, sweep_emb, delta)
        build_s = time.perf_counter() - t_build
        edges = sum(g.n_edges for g in sweep_store.graphs)
        t_train = time.perf_counter()
        sweep_config = config()
        sweep_config.epochs = 2
        train(corpus, sweep_store, sweep_config)
        train_s = time.perf_counter() - t_train
        edge_counts.append(edges)
        print(f"[acceptance 9] delta={delta:g}: {edges} edges, "
              f"build {build_s:.2f}s, train {train_s:.2f}s")
    monotone = all(a >= b for a, b in zip(edge_counts, edge_counts[1:]))
    pruned = edge_counts[0] > edge_counts[-1]

    elapsed = time.perf_counter() - t0
    ok = bitwise and round_trip and monotone and pruned
    assert report(9, "determinism and persistence", ok,
                  f"bitwise={bitwise}, load round trip={round_trip}, edge counts "
                  f"{edge_counts} monotone={monotone}, {elapsed:.0f}s")
