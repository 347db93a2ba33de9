"""Tests of the benchmark itself, on tiny versions of its workloads."""
import dataclasses
import json
import os
import signal
import time

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _tiny_inputs(name, seed, directory):
    return workloads.generate(workloads.tiny(workloads.WORKLOADS[name]), seed, directory)


def _traced_run(name, directory):
    """Per-layer metrics, raw counts and output directory of one tiny traced round."""
    workload = workloads.tiny(workloads.WORKLOADS[name])
    inputs = workloads.generate(workload, 1, os.path.join(directory, "inputs"))
    out = os.path.join(directory, "out")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_stages(workload, inputs, out, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result.failed_commands == 0
    assert tracer.missing == []
    npmi, accuracy = run.check_quality(run.Checks(), [result])
    metrics = tracing.layer_metrics(tracer, result.failed_commands, npmi, accuracy)
    return metrics, tracer.counts, out


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    return {name: _traced_run(name, str(tmp_path_factory.mktemp(name)))
            for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced_tiny(traced_runs):
    return {name: metrics for name, (metrics, _, _) in traced_runs.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_bytes(name, tmp_path):
    a = workloads.input_digests(_tiny_inputs(name, 5, tmp_path / "a"))
    b = workloads.input_digests(_tiny_inputs(name, 5, tmp_path / "b"))
    c = workloads.input_digests(_tiny_inputs(name, 6, tmp_path / "c"))
    assert a == b
    assert a != c


def test_every_per_layer_metric_is_nonzero_somewhere(traced_tiny):
    declared = [m["name"] for m in _benchmark()["per_layer"]]
    # a failure counter, zero by design on a healthy run
    always_zero = {"cli.failed_commands"}
    zero = [name for name in declared if name not in always_zero
            and not any(metrics[name] for metrics in traced_tiny.values())]
    assert zero == []


def test_counts_repeat_across_traced_runs(traced_tiny, tmp_path):
    again, _, _ = _traced_run("desk", str(tmp_path))
    counts = [m["name"] for m in _benchmark()["per_layer"] if m["unit"] != "s"
              and not m["name"].endswith("_per_s")]
    assert {k: again[k] for k in counts} == {k: traced_tiny["desk"][k] for k in counts}


def test_edge_oracle_catches_one_wrong_weight(tmp_path):
    from ginopic.corpus import load_corpus
    from ginopic.docgraph import load_graph_store

    workload = workloads.tiny(workloads.WORKLOADS["desk"])
    inputs = workloads.generate(workload, 2, str(tmp_path / "inputs"))
    out = str(tmp_path / "out")
    result = run.run_stages(workload, inputs, out)
    assert result.failed_commands == 0
    corpus = load_corpus(os.path.join(out, "corpus.bin"))
    store = load_graph_store(os.path.join(out, "graphs.bin"))
    docs = corpus.split.all_documents()
    words = corpus.vocabulary.words
    by_word = run.read_vectors(inputs["embeddings.txt"], words)
    vectors = {i: by_word[w] for i, w in enumerate(words)}
    indices = run.sample_indices(len(docs), len(docs))
    assert run.oracle_mismatches(docs, store.graphs, vectors, float(run.DELTA), indices) == []

    k = next(i for i, g in enumerate(store.graphs) if g.n_edges)
    g = store.graphs[k]
    i, j, w = g.adjacency[0]
    planted = list(store.graphs)
    planted[k] = dataclasses.replace(g, adjacency=((i, j, w + 2.0 ** -20),) + g.adjacency[1:])
    assert run.oracle_mismatches(docs, planted, vectors, float(run.DELTA), indices) == [k]


def test_traced_counts_match_a_direct_computation(traced_runs):
    # the counting path behind the ROADMAP cross-check of the desk workload
    from ginopic.corpus import load_corpus
    from ginopic.docgraph import load_graph_store
    from ginopic.metrics import build_cooccurrence, token_documents

    metrics, counts, out = traced_runs["desk"]
    corpus = load_corpus(os.path.join(out, "corpus.bin"))
    tokens = list(token_documents(corpus.split.train, corpus.vocabulary))
    for window in (10, 110):
        want = len(build_cooccurrence(tokens, window).pair_counts)
        assert counts[f"metrics.pairs_distinct.window{window}"] == want > 0
    graphs = load_graph_store(os.path.join(out, "graphs.bin")).graphs
    assert metrics["docgraph.pairs_tested"] == sum(
        len(g.node_ids) * (len(g.node_ids) - 1) // 2 for g in graphs)
    assert metrics["docgraph.edges_kept"] == sum(len(g.adjacency) for g in graphs) > 0


def test_a_failing_stage_is_reported_not_a_crash(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "DELTA", "1.5")   # build-graphs rejects a delta outside [0, 1]
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = workloads.tiny(workloads.WORKLOADS["desk"])
    inputs = workloads.generate(workload, 3, str(tmp_path / "inputs"))
    checks = run.Checks()
    metrics = run.end_to_end(workload, 3, 0.0, inputs, str(tmp_path), checks)
    run.report(checks, metrics, {})
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_speed_probe_samples_while_on_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe.on():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert run.at_reference_speed(2.0, 2 * run.PROBE_REFERENCE_S) == 1.0


def test_declared_metrics_match_what_the_runs_report(traced_tiny):
    bench = _benchmark()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = traced_tiny["desk"]
    assert list(declared) == list(reported)
    assert declared == {name: tracing.layer_unit(name) for name in reported}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]


def _benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
