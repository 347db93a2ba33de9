"""End-to-end command-line pipeline, option plumbing, and exit codes.

All invocations go through `ginopic.cli.main` in process; stdout is the data
channel and is parsed, stderr carries logging.
"""
import configparser
import dataclasses
import json
import os
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

from ginopic import cli, corpus as corpus_module, topicmodel
from ginopic.cli import main
from ginopic.corpus import load_corpus
from ginopic.docgraph import GraphColumns, load_graph_store, save_graph_store
from ginopic.rng import stream

from conftest import rewrite_header

FRUIT = "apple banana cherry melon grape mango plum kiwi".split()
AUTO = "engine wheel brake piston clutch sedan truck motor".split()

TRAIN_DIMS = ["--tau", "4", "--hidden", "8", "--tau-out", "4",
              "--encoder-hidden", "8", "--batch-size", "16"]


def run(capsys, args):
    """Drain stale captured output, invoke the CLI, return (rc, out, err)."""
    capsys.readouterr()
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_bad_header_cache(path):
    head = b'{"version": 1, "delta": '
    path.write_bytes(b"GINOGRAPH2\n" + struct.pack("<Q", len(head)) + head)


def write_ginograph1_cache(path, graphs):
    """The graph cache at `graphs` rewritten in the GINOGRAPH1 layout that
    earlier versions wrote: the same header, then per graph n_nodes, its
    node ids, n_edges and one "<IIf" record per edge."""
    blob = open(graphs, "rb").read()
    at = len(b"GINOGRAPH2\n")
    head_end = at + 8 + struct.unpack("<Q", blob[at: at + 8])[0]
    body = b"".join(struct.pack(f"<I{g.n_nodes}II", g.n_nodes, *g.node_ids, g.n_edges)
                    + b"".join(struct.pack("<IIf", *edge) for edge in g.adjacency)
                    for g in load_graph_store(graphs).graphs)
    path.write_bytes(b"GINOGRAPH1\n" + blob[at:head_end] + body)


def assert_one_line_error(err: str) -> None:
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("ERROR")] == [
        err.strip().splitlines()[-1]]


def run_fresh(probe: str, cwd=None) -> None:
    """Run `probe` in a fresh interpreter that imports this package; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def parse_table(out: str) -> dict:
    rows = [line.split("\t") for line in out.strip().split("\n") if line]
    return {r[0]: r[1:] for r in rows}


def write_inputs(root):
    gen = np.random.default_rng(7)
    texts, labels = [], []
    for i in range(60):
        pool, label = (FRUIT, "fruit") if i % 2 == 0 else (AUTO, "auto")
        words = [pool[j] for j in gen.integers(0, len(pool), size=8)]
        texts.append(" ".join(words))
        labels.append(label)
    (root / "raw.txt").write_text("\n".join(texts) + "\n")
    (root / "labels.txt").write_text("\n".join(labels) + "\n")
    lines = []
    for k, words in enumerate((FRUIT, AUTO)):
        anchor = np.zeros(8)
        anchor[k] = 1.0
        for w in words:
            vec = anchor + 0.05 * stream(11, f"cli/emb/{w}").standard_normal(8)
            lines.append(w + " " + " ".join(f"{v:.6f}" for v in vec))
    (root / "emb.txt").write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_inputs(root)
    corpus = str(root / "corpus.bin")
    graphs = str(root / "graphs.bin")
    run_dir = str(root / "run")
    rc = main(["preprocess", "--input", str(root / "raw.txt"),
               "--labels", str(root / "labels.txt"), "--out", corpus])
    assert rc == 0
    rc = main(["build-graphs", "--corpus", corpus, "--embeddings",
               str(root / "emb.txt"), "--delta", "0.5", "--out", graphs])
    assert rc == 0
    rc = main(["train", "--corpus", corpus, "--graphs", graphs, "--topics", "2",
               "--epochs", "2", "--seed", "0", "--out", run_dir] + TRAIN_DIMS)
    assert rc == 0
    return types.SimpleNamespace(
        root=root, corpus=corpus, graphs=graphs, run=run_dir,
        emb=str(root / "emb.txt"), model=os.path.join(run_dir, "model.ckpt"),
    )


class TestPreprocess:
    def test_reports_and_determinism(self, pipeline, capsys, tmp_path):
        args = ["preprocess", "--input", str(pipeline.root / "raw.txt"),
                "--labels", str(pipeline.root / "labels.txt")]
        rc, out, _ = run(capsys, args + ["--out", str(tmp_path / "a.bin")])
        assert rc == 0
        first = parse_table(out)
        assert first["documents_in"] == ["60"]
        assert first["documents_kept"] == ["60"]
        assert first["vocabulary"] == ["16"]
        assert first["train"] == ["42"]
        assert first["validation"] == ["9"]
        assert first["test"] == ["9"]
        assert first["k_gold"] == ["2"]
        rc, out, _ = run(capsys, args + ["--out", str(tmp_path / "b.bin")])
        assert rc == 0
        assert parse_table(out)["sha256"] == first["sha256"]
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_max_vocab_flag(self, pipeline, capsys, tmp_path):
        rc, out, _ = run(capsys, ["preprocess", "--input",
                                  str(pipeline.root / "raw.txt"), "--max-vocab", "5",
                                  "--out", str(tmp_path / "c.bin")])
        assert rc == 0
        assert parse_table(out)["vocabulary"] == ["5"]

    def test_config_file_and_flag_precedence(self, pipeline, capsys, tmp_path):
        ini = tmp_path / "pre.ini"
        ini.write_text("[preprocess]\nmax_vocab = 5\n")
        rc, out, _ = run(capsys, ["preprocess", "--config", str(ini),
                                  "--input", str(pipeline.root / "raw.txt"),
                                  "--out", str(tmp_path / "d.bin")])
        assert rc == 0
        assert parse_table(out)["vocabulary"] == ["5"]
        rc, out, _ = run(capsys, ["preprocess", "--config", str(ini),
                                  "--max-vocab", "8",
                                  "--input", str(pipeline.root / "raw.txt"),
                                  "--out", str(tmp_path / "e.bin")])
        assert rc == 0
        assert parse_table(out)["vocabulary"] == ["8"]

    def test_config_file_boolean(self, pipeline, capsys, tmp_path):
        args = ["preprocess", "--input", str(pipeline.root / "raw.txt"),
                "--labels", str(pipeline.root / "labels.txt")]

        def corpus_bytes(name, extra):
            assert run(capsys, args + extra + ["--out", str(tmp_path / name)])[0] == 0
            return (tmp_path / name).read_bytes()

        def ini(value):
            (tmp_path / f"{value}.ini").write_text(f"[preprocess]\nno_lemmatize = {value}\n")
            return ["--config", str(tmp_path / f"{value}.ini")]

        default = corpus_bytes("default.bin", [])
        flag = corpus_bytes("flag.bin", ["--no-lemmatize"])
        assert flag != default
        assert corpus_bytes("yes.bin", ini("yes")) == flag
        assert corpus_bytes("off.bin", ini("off")) == default
        rc, _, err = run(capsys, args + ini("maybe") + ["--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "expected a boolean" in err
        assert_one_line_error(err)

    def test_config_values_are_literal(self, pipeline, capsys, tmp_path):
        out = tmp_path / "50%corpus.bin"
        ini = tmp_path / "pre.ini"
        ini.write_text(f"[preprocess]\nout = {out}\n")
        rc, _, err = run(capsys, ["preprocess", "--config", str(ini),
                                  "--input", str(pipeline.root / "raw.txt")])
        assert rc == 0, err
        assert len(load_corpus(out).vocabulary) == 16

    def test_stopwords_file(self, pipeline, capsys, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("apple\n\n banana \n")
        rc, out, _ = run(capsys, ["preprocess", "--input", str(pipeline.root / "raw.txt"),
                                  "--stopwords", str(stop), "--out", str(tmp_path / "s.bin")])
        assert rc == 0
        assert parse_table(out)["vocabulary"] == ["14"]
        vocabulary = load_corpus(tmp_path / "s.bin").vocabulary
        assert "apple" not in vocabulary and "banana" not in vocabulary

    def test_missing_required_option(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["preprocess", "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "--input" in err

    def test_missing_input_file(self, capsys, tmp_path):
        rc, _, _ = run(capsys, ["preprocess", "--input", str(tmp_path / "absent.txt"),
                                "--out", str(tmp_path / "x.bin")])
        assert rc == 3

    def test_bad_int_value(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["preprocess", "--input", "whatever",
                                  "--max-vocab", "abc",
                                  "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "--max-vocab" in err


class TestBuildGraphs:
    def test_report(self, pipeline, capsys, tmp_path):
        rc, out, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                  "--embeddings", pipeline.emb, "--delta", "0.5",
                                  "--out", str(tmp_path / "g.bin")])
        assert rc == 0
        report = parse_table(out)
        assert report["delta"] == ["0.5"]
        assert report["graphs"] == ["60"]
        assert float(report["mean_nodes"][0]) > 1
        assert float(report["mean_density"][0]) > 0

    def test_delta_out_of_range(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                "--embeddings", pipeline.emb, "--delta", "1.5",
                                "--out", str(tmp_path / "g.bin")])
        assert rc == 2

    def test_delta_defaults_require_preset(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                "--embeddings", pipeline.emb,
                                "--out", str(tmp_path / "g.bin")])
        assert rc == 2

    def test_malformed_embedding_cache_exit_code(self, pipeline, tmp_path, capsys):
        """Embeddings are read as text only: a file in the binary embedding
        cache layout earlier versions wrote (GINOEMB1) is malformed input."""
        vocabulary = load_corpus(pipeline.corpus).vocabulary
        v, dim = len(vocabulary), 8
        head = json.dumps({"dim": dim, "seed": 0, "v": v, "version": 1,
                           "vocab_sha256": vocabulary.sha256},
                          sort_keys=True, separators=(",", ":")).encode()
        vectors = stream(3, "cli/old-cache").standard_normal((v, dim)).astype("<f4")
        cache = tmp_path / "emb.bin"
        cache.write_bytes(b"GINOEMB1\n" + struct.pack("<Q", len(head)) + head
                          + vectors.tobytes() + bytes((v + 7) // 8))
        for args in (["build-graphs", "--corpus", pipeline.corpus, "--delta", "0.5",
                      "--out", str(tmp_path / "g.bin")],
                     ["eval-topics", "--model", pipeline.model, "--corpus", pipeline.corpus]):
            rc, _, err = run(capsys, args + ["--embeddings", str(cache)])
            assert rc == 3
            assert_one_line_error(err)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
    def test_non_finite_embedding_exit_code(self, pipeline, tmp_path, capsys, value):
        lines = open(pipeline.emb, encoding="utf-8").read().splitlines()
        word, _, *rest = lines[1].split()
        bad = tmp_path / "emb.txt"
        bad.write_text("\n".join([lines[0], " ".join([word, value, *rest]), *lines[2:]]) + "\n",
                       encoding="utf-8")
        out = tmp_path / "g.bin"
        rc, _, err = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                  "--embeddings", str(bad), "--delta", "0.5",
                                  "--out", str(out)])
        assert rc == 3
        assert_one_line_error(err)
        assert "line 2: non-finite component" in err
        assert not out.exists()

    def test_malformed_cache_header_rebuilt(self, pipeline, tmp_path, capsys):
        out = tmp_path / "g.bin"
        write_bad_header_cache(out)
        rc, _, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                "--embeddings", pipeline.emb, "--delta", "0.5",
                                "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == open(pipeline.graphs, "rb").read()
        assert len(load_graph_store(out)) == 60

    def test_ginograph1_cache_is_bad_magic_and_rebuilt(self, pipeline, tmp_path, capsys):
        old = tmp_path / "old.bin"
        write_ginograph1_cache(old, pipeline.graphs)
        model = ["--model", pipeline.model, "--corpus", pipeline.corpus]
        for args in (["train", "--corpus", pipeline.corpus, "--topics", "2", "--epochs", "1",
                      "--out", str(tmp_path / "r")] + TRAIN_DIMS,
                     ["classify", *model, "--runs", "1", "--out", str(tmp_path / "acc.tsv")],
                     ["export", *model, "--what", "theta", "--out", str(tmp_path / "t.tsv")]):
            rc, _, err = run(capsys, args + ["--graphs", str(old)])
            assert rc == 3, args[0]
            assert "bad magic" in err
            assert_one_line_error(err)
        rc, _, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                "--embeddings", pipeline.emb, "--delta", "0.5",
                                "--out", str(old)])
        assert rc == 0
        assert old.read_bytes() == open(pipeline.graphs, "rb").read()

    @pytest.mark.parametrize("existing", ["flipped_last_byte", "garbage", "other_delta"])
    def test_existing_out_is_rebuilt(self, pipeline, tmp_path, capsys, existing):
        """`--out` is never read: whatever is there is replaced by a fresh build."""
        out = tmp_path / "g.bin"
        args = ["build-graphs", "--corpus", pipeline.corpus, "--embeddings", pipeline.emb,
                "--out", str(out)]
        want = open(pipeline.graphs, "rb").read()
        if existing == "flipped_last_byte":  # the last weight's top byte; header intact
            out.write_bytes(want[:-1] + bytes([want[-1] ^ 1]))
        elif existing == "garbage":
            out.write_bytes(b"garbage")
        else:
            assert run(capsys, args + ["--delta", "0.3"])[0] == 0
            assert load_graph_store(out).delta == 0.3
        rc, _, err = run(capsys, args + ["--delta", "0.5"])
        assert rc == 0
        assert "WARNING" not in err
        assert out.read_bytes() == want

    def test_missing_corpus_file(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["build-graphs", "--corpus", str(tmp_path / "no.bin"),
                                "--embeddings", pipeline.emb, "--delta", "0.5",
                                "--out", str(tmp_path / "g.bin")])
        assert rc == 3


class TestTrain:
    def test_run_directory_contents(self, pipeline):
        for name in ("model.ckpt", "epochs.tsv", "topics.txt", "config.ini"):
            assert os.path.exists(os.path.join(pipeline.run, name))
        lines = open(os.path.join(pipeline.run, "epochs.tsv")).read().strip().split("\n")
        assert lines[0].split("\t") == ["epoch", "reconstruction", "kl", "total", "seconds"]
        assert len(lines) == 3
        config = open(os.path.join(pipeline.run, "config.ini")).read()
        assert "topics = 2" in config
        assert "gin_tau = 4" in config
        assert "delta = 0.5" in config

    def test_same_seed_bitwise_checkpoint(self, pipeline, tmp_path, capsys):
        args = ["train", "--corpus", pipeline.corpus, "--graphs", pipeline.graphs,
                "--topics", "2", "--epochs", "2", "--seed", "0"] + TRAIN_DIMS
        rc, _, _ = run(capsys, args + ["--out", str(tmp_path / "r1")])
        assert rc == 0
        rc, _, _ = run(capsys, args + ["--out", str(tmp_path / "r2")])
        assert rc == 0
        a = (tmp_path / "r1" / "model.ckpt").read_bytes()
        assert a == (tmp_path / "r2" / "model.ckpt").read_bytes()
        assert a == open(pipeline.model, "rb").read()

    def test_seeds_batch(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "multi"
        rc, out, _ = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--topics", "2",
                                  "--epochs", "1", "--seeds", "2",
                                  "--out", str(out_dir)] + TRAIN_DIMS)
        assert rc == 0
        report = parse_table(out)
        assert "mean" in report
        for seed in (0, 1):
            assert (out_dir / f"seed{seed}" / "model.ckpt").exists()
        agg = (out_dir / "aggregate.tsv").read_text().strip().split("\n")
        assert agg[0].split("\t") == ["seed", "final_loss", "train_seconds", "npmi"]
        assert len(agg) == 4 and agg[-1].startswith("mean")

    def test_topic_counts_batch(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "bycount"
        rc, _, _ = run(capsys, ["train", "--corpus", pipeline.corpus,
                                "--graphs", pipeline.graphs, "--epochs", "1",
                                "--topic-counts", "3,gold",
                                "--out", str(out_dir)] + TRAIN_DIMS)
        assert rc == 0
        assert (out_dir / "K3" / "topics.txt").exists()
        assert (out_dir / "K2" / "topics.txt").exists()
        assert len((out_dir / "K3" / "topics.txt").read_text().strip().split("\n")) == 3
        agg = (out_dir / "aggregate.tsv").read_text().strip().split("\n")
        assert agg[0].split("\t") == ["topics", "final_loss", "train_seconds", "npmi"]
        assert [r.split("\t")[0] for r in agg[1:]] == ["3", "2"]

    def test_topic_counts_need_no_label_count(self, pipeline, tmp_path, capsys):
        corpus, graphs = str(tmp_path / "nolabel.bin"), str(tmp_path / "graphs.bin")
        assert main(["preprocess", "--input", str(pipeline.root / "raw.txt"),
                     "--out", corpus]) == 0
        assert main(["build-graphs", "--corpus", corpus, "--embeddings", pipeline.emb,
                     "--delta", "0.5", "--out", graphs]) == 0
        rc, out, _ = run(capsys, ["train", "--corpus", corpus, "--graphs", graphs,
                                  "--epochs", "1", "--topic-counts", "2,3",
                                  "--out", str(tmp_path / "bycount")] + TRAIN_DIMS)
        assert rc == 0
        assert list(parse_table(out)) == ["topics", "2", "3"]

    def test_delta_sweep(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        rc, out, _ = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--embeddings", pipeline.emb, "--topics", "2",
                                  "--epochs", "1", "--delta-sweep", "0.3,0.6",
                                  "--out", str(out_dir)] + TRAIN_DIMS)
        assert rc == 0
        sweep = (out_dir / "sweep.tsv").read_text().strip().split("\n")
        assert sweep[0].split("\t") == ["delta", "mean_edges", "build_seconds",
                                        "final_loss", "train_seconds", "npmi"]
        assert out.strip().split("\n") == sweep
        rows = [line.split("\t") for line in sweep[1:]]
        assert all(len(r) == 6 for r in rows)
        assert [r[0] for r in rows] == ["0.3", "0.6"]
        # lower threshold admits at least as many edges
        assert float(rows[0][1]) >= float(rows[1][1])
        for d in ("0.3", "0.6"):
            assert (out_dir / f"delta{d}" / "model.ckpt").exists()

    @pytest.mark.parametrize("batch", [["--seeds", "2", "--topics", "2"],
                                       ["--topic-counts", "3,gold"]],
                             ids=["seeds", "topic_counts"])
    def test_batch_builds_reference_stats_once(self, pipeline, tmp_path, capsys,
                                               monkeypatch, batch):
        calls = []
        build = cli.build_cooccurrence

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_cooccurrence", counting)
        rc, out, _ = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--epochs", "1",
                                  "--out", str(tmp_path / "batch")] + batch + TRAIN_DIMS)
        assert rc == 0
        assert len(calls) == 1
        assert len((tmp_path / "batch" / "aggregate.tsv").read_text().split("\n")) >= 3

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_nonpositive_seeds_rejected(self, pipeline, tmp_path, capsys, seeds):
        rc, _, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--topics", "2",
                                  "--epochs", "1", "--seeds", seeds,
                                  "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 2
        assert f"--seeds must be >= 1, got {seeds}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("options", [
        ["--delta-sweep", "0.3,0.5", "--graphs", "GRAPHS"],
        ["--delta-sweep", "0.3,0.5", "--seeds", "3"],
        ["--delta-sweep", "0.3,0.5", "--topic-counts", "2,3"],
        ["--topic-counts", "2,3", "--seeds", "3"],
        ["--topic-counts", "2,3", "--topics", "5"],
    ], ids=["sweep_graphs", "sweep_seeds", "sweep_topic_counts", "topic_counts_seeds",
            "topic_counts_topics"])
    def test_conflicting_batch_options_fail_before_any_run(self, pipeline, tmp_path, capsys,
                                                           options):
        """A batch option with an option the batch would ignore is refused,
        and no run directory is made."""
        out = tmp_path / "batch"
        options = [pipeline.graphs if o == "GRAPHS" else o for o in options]
        rc, stdout, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                       "--embeddings", pipeline.emb, "--epochs", "1",
                                       *options, "--out", str(out)] + TRAIN_DIMS)
        assert rc == 2
        assert_one_line_error(err)
        assert f"{options[0]} and {options[2]} cannot be combined" in err
        assert stdout == ""
        assert not out.exists()

    def test_delta_sweep_needs_embeddings(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["train", "--corpus", pipeline.corpus, "--topics", "2",
                                "--epochs", "1", "--delta-sweep", "0.3",
                                "--out", str(tmp_path / "s")] + TRAIN_DIMS)
        assert rc == 2

    def test_graphs_required_without_sweep(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["train", "--corpus", pipeline.corpus, "--topics", "2",
                                "--epochs", "1",
                                "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 2

    def test_malformed_graph_cache_header_exit_code(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        write_bad_header_cache(bad)
        rc, _, err = run(capsys, ["train", "--corpus", pipeline.corpus, "--graphs", str(bad),
                                  "--topics", "2", "--epochs", "1",
                                  "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["edge_outside_graph", "split_sum"])
    def test_inconsistent_graph_cache_exit_code(self, pipeline, tmp_path, capsys, fault):
        store = load_graph_store(pipeline.graphs)
        if fault == "edge_outside_graph":
            graphs = list(store.graphs)
            g = graphs[0]
            graphs[0] = dataclasses.replace(g, adjacency=g.adjacency + ((0, g.n_nodes + 5, 0.9),))
            store.graphs = GraphColumns.pack(graphs)
        else:
            store.split_sizes = (store.split_sizes[0] + 1,) + store.split_sizes[1:]
        bad = tmp_path / "bad.bin"
        save_graph_store(store, bad)
        rc, _, err = run(capsys, ["train", "--corpus", pipeline.corpus, "--graphs", str(bad),
                                  "--topics", "2", "--epochs", "1",
                                  "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 3
        assert "Traceback" not in err

    def test_corpus_header_without_v_exit_code(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "corpus.bin"
        bad.write_bytes(open(pipeline.corpus, "rb").read())
        rewrite_header(bad, corpus_module._MAGIC,
                       lambda h: {k: v for k, v in h.items() if k != "v"})
        rc, _, err = run(capsys, ["train", "--corpus", str(bad), "--graphs", pipeline.graphs,
                                  "--topics", "2", "--epochs", "1",
                                  "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 3
        assert "Traceback" not in err

    def test_run_directory_under_a_file_exit_code(self, pipeline, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        rc, _, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--topics", "2",
                                  "--epochs", "1",
                                  "--out", str(tmp_path / "plain" / "sub")] + TRAIN_DIMS)
        assert rc == 3
        assert_one_line_error(err)

    def test_percent_sign_in_path_reaches_config_ini(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "50%corpus.bin"
        corpus.write_bytes(open(pipeline.corpus, "rb").read())
        run_dir = tmp_path / "run"
        rc, _, err = run(capsys, ["train", "--corpus", str(corpus), "--graphs", pipeline.graphs,
                                  "--topics", "2", "--epochs", "1", "--out", str(run_dir)]
                         + TRAIN_DIMS)
        assert rc == 0, err
        echo = configparser.ConfigParser(interpolation=None)
        echo.read(run_dir / "config.ini")
        assert echo["train"]["corpus_path"] == str(corpus)

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--dropout", "1.5"),
                                            ("--epsilon", "nan")])
    def test_rejected_setting_creates_no_run_directory(self, pipeline, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "r"
        rc, _, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--topics", "2",
                                  "--epochs", "1", flag, value, "--out", str(out)]
                         + TRAIN_DIMS)
        assert rc == 2
        assert_one_line_error(err)
        assert not out.exists()

    def test_bad_topic_count_fails_before_any_run(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bycount"
        rc, stdout, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                       "--graphs", pipeline.graphs, "--epochs", "1",
                                       "--topic-counts", "3,1", "--out", str(out)]
                              + TRAIN_DIMS)
        assert rc == 2
        assert_one_line_error(err)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("batch, repeat", [
        (["--topics", "2", "--delta-sweep", "0.3,0.30"], "--delta-sweep lists 0.3"),
        (["--graphs", "GRAPHS", "--topic-counts", "3,gold,3"], "--topic-counts lists 3"),
        (["--graphs", "GRAPHS", "--topic-counts", "2,3,gold"], "--topic-counts lists 2"),
    ], ids=["delta", "topic_count", "gold_resolves_to_a_listed_count"])
    def test_repeated_batch_entry_fails_before_any_run(self, pipeline, tmp_path, capsys,
                                                       batch, repeat):
        """Two runs of a batch that would share one run directory are refused."""
        out = tmp_path / "batch"
        batch = [pipeline.graphs if b == "GRAPHS" else b for b in batch]
        rc, stdout, err = run(capsys, ["train", "--corpus", pipeline.corpus,
                                       "--embeddings", pipeline.emb, "--epochs", "1",
                                       *batch, "--out", str(out)] + TRAIN_DIMS)
        assert rc == 2
        assert_one_line_error(err)
        assert f"{repeat} more than once" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["train", "--corpus", pipeline.corpus,
                                "--graphs", pipeline.graphs, "--topics", "2",
                                "--lr", "1e14", "--epochs", "1",
                                "--out", str(tmp_path / "r")] + TRAIN_DIMS)
        assert rc == 4


class TestEvalTopics:
    def test_model_metrics_and_report(self, pipeline, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        rc, out, _ = run(capsys, ["eval-topics", "--model", pipeline.model,
                                  "--corpus", pipeline.corpus,
                                  "--embeddings", pipeline.emb, "--out", prefix])
        assert rc == 0
        report = parse_table(out)
        for key in ("npmi", "cv", "irbo", "wi_c", "wi_m"):
            assert key in report
        assert -1.0 <= float(report["npmi"][0]) <= 1.0
        assert 0.0 <= float(report["irbo"][0]) <= 1.0
        tsv = open(prefix + ".tsv").read()
        assert "npmi\t" in tsv
        full = json.load(open(prefix + ".json"))
        assert len(full["npmi_per_topic"]) == 2

    def test_topics_file_without_corpus(self, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text("apple banana cherry\nengine wheel brake\n")
        rc, out, _ = run(capsys, ["eval-topics", "--topics-file", str(topics)])
        assert rc == 0
        report = parse_table(out)
        assert set(report) == {"irbo"}
        assert float(report["irbo"][0]) == 1.0

    def test_topics_file_with_embeddings_only(self, pipeline, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text("apple banana cherry\nengine wheel brake\n")
        rc, out, _ = run(capsys, ["eval-topics", "--topics-file", str(topics),
                                  "--embeddings", pipeline.emb])
        assert rc == 0
        assert set(parse_table(out)) == {"irbo", "wi_c", "wi_m"}

    @pytest.mark.parametrize("text, fault", [
        ("apple banana cherry\n", "need >= 2 topics"),
        ("apple banana cherry\nengine wheel\n", "ragged"),
        ("apple banana apple\nengine wheel brake\n", "repeated"),
    ], ids=["one_topic", "ragged", "repeated_word"])
    def test_malformed_topics_file_exit_code(self, tmp_path, capsys, text, fault):
        topics = tmp_path / "topics.txt"
        topics.write_text(text)
        rc, out, err = run(capsys, ["eval-topics", "--topics-file", str(topics)])
        assert rc == 3
        assert out == ""
        assert_one_line_error(err)
        assert fault in err and str(topics) in err

    def test_embeddings_align_to_topic_words_with_and_without_corpus(self, pipeline,
                                                                      tmp_path, capsys):
        """A topic word that neither the corpus nor the embedding file holds
        gets the same out-of-vocabulary vector with and without --corpus."""
        topics = tmp_path / "topics.txt"
        topics.write_text("apple zzzqq\nengine brake\n")
        args = ["eval-topics", "--topics-file", str(topics), "--embeddings", pipeline.emb]
        rc, alone, _ = run(capsys, args)
        assert rc == 0
        rc, with_corpus, _ = run(capsys, args + ["--corpus", pipeline.corpus])
        assert rc == 0
        alone, with_corpus = parse_table(alone), parse_table(with_corpus)
        assert set(alone) == {"irbo", "wi_c", "wi_m"}
        assert {k: with_corpus[k] for k in alone} == alone

    def test_embeddings_sharing_no_topic_word_exit_code(self, pipeline, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text("alpha beta\ngamma zeta\n")
        rc, out, err = run(capsys, ["eval-topics", "--topics-file", str(topics),
                                    "--corpus", pipeline.corpus, "--embeddings", pipeline.emb])
        assert rc == 3
        assert out == ""
        assert_one_line_error(err)
        assert "shares no words" in err and pipeline.emb in err

    def test_needs_some_source(self, capsys):
        rc, _, _ = run(capsys, ["eval-topics"])
        assert rc == 2

    def test_model_and_topics_file_together_exit_code(self, pipeline, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text("alpha beta gamma\ndelta epsilon zeta\n")
        rc, out, err = run(capsys, ["eval-topics", "--model", pipeline.model,
                                    "--topics-file", str(topics), "--corpus", pipeline.corpus])
        assert rc == 2
        assert out == ""
        assert_one_line_error(err)
        assert "--model or --topics-file" in err

    def test_model_needs_corpus(self, pipeline, capsys):
        rc, _, _ = run(capsys, ["eval-topics", "--model", pipeline.model])
        assert rc == 2

    def test_one_word_topics_file_with_corpus_exit_code(self, pipeline, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text("alpha\nbeta\n")
        rc, out, err = run(capsys, ["eval-topics", "--topics-file", str(topics),
                                    "--corpus", pipeline.corpus])
        assert rc == 3
        assert out == ""
        assert_one_line_error(err)
        assert ">= 2 words per topic" in err and str(topics) in err
        # without a corpus no coherence is computed, and one-word topics still load
        rc, out, _ = run(capsys, ["eval-topics", "--topics-file", str(topics)])
        assert rc == 0
        assert set(parse_table(out)) == {"irbo"}

    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "vocab_size"},
        lambda h: {**h, "config": {**h["config"], "momentum": 0.9}},
        b'{"version": 1,',
    ], ids=["missing_vocab_size", "config_unknown_key", "bad_json"])
    def test_malformed_checkpoint_exit_code(self, pipeline, tmp_path, capsys, edit):
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(open(pipeline.model, "rb").read())
        rewrite_header(bad, topicmodel._MAGIC, edit)
        rc, _, err = run(capsys, ["eval-topics", "--model", str(bad),
                                  "--corpus", pipeline.corpus])
        assert rc == 3
        assert_one_line_error(err)


class TestClassify:
    def test_accuracy_table(self, pipeline, tmp_path, capsys):
        out_file = str(tmp_path / "acc.tsv")
        rc, out, _ = run(capsys, ["classify", "--model", pipeline.model,
                                  "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--runs", "2",
                                  "--svm-epochs", "25", "--out", out_file])
        assert rc == 0
        report = parse_table(out)
        assert report["run"] == ["seed", "accuracy"]
        accs = [float(report[str(r)][1]) for r in range(2)]
        assert all(0.0 <= a <= 1.0 for a in accs)
        assert float(report["mean"][1]) == pytest.approx(np.mean(accs), abs=1e-6)
        lines = open(out_file).read().strip().split("\n")
        assert len(lines) == 4

    def test_out_in_missing_directory_exit_code(self, pipeline, tmp_path, capsys):
        rc, _, err = run(capsys, ["classify", "--model", pipeline.model,
                                  "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--runs", "1",
                                  "--svm-epochs", "2",
                                  "--out", str(tmp_path / "missing" / "acc.tsv")])
        assert rc == 3
        assert_one_line_error(err)
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("bad", [
        ["--runs", "0"], ["--svm-epochs", "0"], ["--svm-lr", "0"], ["--svm-lr", "-0.1"],
        ["--svm-l2", "-0.5"],
    ], ids=["runs", "svm_epochs", "svm_lr_zero", "svm_lr_negative", "svm_l2"])
    def test_bad_settings_fail_before_inference(self, pipeline, capsys, monkeypatch, bad):
        def no_inference(*args, **kwargs):
            raise AssertionError("infer_theta ran before the settings were checked")

        monkeypatch.setattr(cli, "infer_theta", no_inference)
        rc, _, err = run(capsys, ["classify", "--model", pipeline.model,
                                  "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, *bad])
        assert rc == 2
        assert_one_line_error(err)

    def test_unlabeled_corpus_rejected(self, pipeline, tmp_path, capsys):
        corpus = str(tmp_path / "nolabel.bin")
        rc, _, _ = run(capsys, ["preprocess", "--input",
                                str(pipeline.root / "raw.txt"), "--out", corpus])
        assert rc == 0
        rc, _, _ = run(capsys, ["classify", "--model", pipeline.model,
                                "--corpus", corpus, "--graphs", pipeline.graphs])
        assert rc == 2

    def test_empty_test_split_exit_code(self, pipeline, tmp_path, capsys):
        # 6 documents: the default ratios floor validation and test to 0
        for name in ("raw.txt", "labels.txt"):
            head = (pipeline.root / name).read_text().split("\n")[:6]
            (tmp_path / name).write_text("\n".join(head) + "\n")
        corpus, graphs = str(tmp_path / "six.bin"), str(tmp_path / "six_graphs.bin")
        assert main(["preprocess", "--input", str(tmp_path / "raw.txt"),
                     "--labels", str(tmp_path / "labels.txt"), "--out", corpus]) == 0
        assert len(load_corpus(corpus).split.test) == 0
        assert main(["build-graphs", "--corpus", corpus, "--embeddings", pipeline.emb,
                     "--delta", "0.5", "--out", graphs]) == 0
        assert main(["train", "--corpus", corpus, "--graphs", graphs, "--topics", "2",
                     "--epochs", "1", "--out", str(tmp_path / "run")] + TRAIN_DIMS) == 0
        rc, out, err = run(capsys, ["classify", "--model", str(tmp_path / "run" / "model.ckpt"),
                                    "--corpus", corpus, "--graphs", graphs])
        assert rc == 2
        assert out == ""
        assert_one_line_error(err)
        assert "test split is empty" in err

    def test_empty_train_split_fails_before_loading(self, pipeline, tmp_path, capsys):
        corpus = str(tmp_path / "no_train.bin")
        assert main(["preprocess", "--input", str(pipeline.root / "raw.txt"),
                     "--labels", str(pipeline.root / "labels.txt"),
                     "--ratios", "0,0.5,0.5", "--out", corpus]) == 0
        rc, _, err = run(capsys, ["classify", "--model", str(tmp_path / "absent.ckpt"),
                                  "--corpus", corpus, "--graphs", str(tmp_path / "absent.bin")])
        assert rc == 2
        assert_one_line_error(err)
        assert "train split is empty" in err


class TestExport:
    def test_theta(self, pipeline, tmp_path, capsys):
        out = tmp_path / "theta.tsv"
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus,
                                "--graphs", pipeline.graphs,
                                "--what", "theta", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 60
        row = lines[0].split("\t")
        assert len(row) == 4  # index, label, two topic proportions
        assert float(row[2]) + float(row[3]) == pytest.approx(1.0, abs=1e-5)

    def test_theta_needs_graphs(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus,
                                "--what", "theta", "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_beta(self, pipeline, tmp_path, capsys):
        out = tmp_path / "beta.tsv"
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus,
                                "--what", "beta", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == 1 + 16

    def test_topics_and_vocab(self, pipeline, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus, "--what", "topics",
                                "--top-n", "5", "--out", str(topics)])
        assert rc == 0
        rows = topics.read_text().strip().split("\n")
        assert len(rows) == 2 and all(len(r.split()) == 5 for r in rows)
        vocab = tmp_path / "vocab.txt"
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus, "--what", "vocab",
                                "--out", str(vocab)])
        assert rc == 0
        words = vocab.read_text().strip().split("\n")
        assert len(words) == 16
        assert set(words) == set(FRUIT) | set(AUTO)

    @pytest.mark.parametrize("what", ["theta", "beta", "topics", "vocab"])
    def test_out_in_missing_directory_exit_code(self, pipeline, tmp_path, capsys, what):
        rc, _, err = run(capsys, ["export", "--model", pipeline.model,
                                  "--corpus", pipeline.corpus,
                                  "--graphs", pipeline.graphs, "--what", what,
                                  "--out", str(tmp_path / "missing" / "out.tsv")])
        assert rc == 3
        assert_one_line_error(err)

    def test_unknown_what(self, pipeline, tmp_path, capsys):
        rc, _, _ = run(capsys, ["export", "--model", pipeline.model,
                                "--corpus", pipeline.corpus, "--what", "nonsense",
                                "--out", str(tmp_path / "x")])
        assert rc == 2


class TestBadSettingsFailBeforeLoading:
    @pytest.mark.parametrize("command, bad, message", [
        ("eval-topics", ["--rbo-p", "2"], "p must lie in (0, 1), got 2.0"),
        ("eval-topics", ["--rbo-p", "nan"], "p must lie in (0, 1), got nan"),
        ("eval-topics", ["--top-n", "0"], "--top-n must be >= 1, got 0"),
        ("export", ["--top-n", "0"], "--top-n must be >= 1, got 0"),
    ], ids=["eval_rbo_p", "eval_rbo_p_nan", "eval_top_n", "export_top_n"])
    def test_exit_code_before_any_file_loads(self, pipeline, tmp_path, capsys, monkeypatch,
                                             command, bad, message):
        def no_load(*args, **kwargs):
            raise AssertionError("a file loaded before the settings were checked")

        for loader in ("load_corpus", "load_checkpoint", "load_embeddings", "load_topics"):
            monkeypatch.setattr(cli, loader, no_load)
        extra = (["--embeddings", pipeline.emb] if command == "eval-topics"
                 else ["--what", "topics", "--out", str(tmp_path / "topics.txt")])
        rc, out, err = run(capsys, [command, "--model", pipeline.model,
                                    "--corpus", pipeline.corpus, *extra, *bad])
        assert rc == 2
        assert out == ""
        assert_one_line_error(err)
        assert message in err


class TestForeignGraphStore:
    """A graph store that does not belong to --corpus is inconsistent data:
    every command that reads --graphs exits 3 and names the file."""

    @pytest.fixture(scope="class")
    def stores(self, pipeline, tmp_path_factory):
        root = tmp_path_factory.mktemp("foreign")
        for name in ("raw.txt", "labels.txt"):
            half = (pipeline.root / name).read_text().split("\n")[:30]
            (root / name).write_text("\n".join(half) + "\n")
        assert main(["preprocess", "--input", str(root / "raw.txt"),
                     "--labels", str(root / "labels.txt"),
                     "--out", str(root / "half.bin")]) == 0
        assert main(["build-graphs", "--corpus", str(root / "half.bin"),
                     "--embeddings", pipeline.emb, "--delta", "0.5",
                     "--out", str(root / "another_corpus.bin")]) == 0
        store = load_graph_store(pipeline.graphs)
        node_ids = store.graphs.node_ids.copy()
        node_ids[0] = len(load_corpus(pipeline.corpus).vocabulary)
        store.graphs = dataclasses.replace(store.graphs, node_ids=node_ids)
        save_graph_store(store, root / "node_id_is_v.bin")
        return root

    @pytest.mark.parametrize("store", ["another_corpus", "node_id_is_v"])
    @pytest.mark.parametrize("command", ["train", "classify", "export"])
    def test_exit_code_names_the_file(self, pipeline, stores, tmp_path, capsys,
                                      command, store):
        graphs = str(stores / f"{store}.bin")
        argv = {
            "train": ["train", "--corpus", pipeline.corpus, "--graphs", graphs,
                      "--topics", "2", "--epochs", "1", "--out", str(tmp_path / "r")]
                     + TRAIN_DIMS,
            "classify": ["classify", "--model", pipeline.model, "--corpus", pipeline.corpus,
                         "--graphs", graphs],
            "export": ["export", "--model", pipeline.model, "--corpus", pipeline.corpus,
                       "--graphs", graphs, "--what", "theta", "--out", str(tmp_path / "t")],
        }[command]
        rc, out, err = run(capsys, argv)
        assert rc == 3
        assert out == ""
        assert graphs in err
        assert_one_line_error(err)


class TestNonFiniteSettings:
    @pytest.mark.parametrize("command,flag,value,named", [
        ("classify", "--svm-lr", "nan", "lr"),
        ("classify", "--svm-lr", "inf", "lr"),
        ("classify", "--svm-l2", "inf", "l2"),
        ("preprocess", "--ratios", "nan,0,1", "split ratios"),
        ("preprocess", "--ratios", "0.7,nan,0.3", "split ratios"),
        ("train", "--lr", "nan", "lr"),
        ("train", "--alpha", "nan", "alpha"),
        ("train", "--epsilon", "nan", "epsilon"),
    ])
    def test_exit_code_names_the_setting(self, pipeline, tmp_path, capsys,
                                         command, flag, value, named):
        base = {
            "preprocess": ["--input", str(pipeline.root / "raw.txt"),
                           "--labels", str(pipeline.root / "labels.txt")],
            "train": ["--corpus", pipeline.corpus, "--graphs", pipeline.graphs,
                      "--topics", "2", "--epochs", "1", *TRAIN_DIMS],
            "classify": ["--model", pipeline.model, "--corpus", pipeline.corpus,
                         "--graphs", pipeline.graphs, "--runs", "1", "--svm-epochs", "2"],
        }[command]
        rc, stdout, err = run(capsys, [command, *base, flag, value,
                                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert stdout == ""
        assert_one_line_error(err)
        assert named in err.splitlines()[-1]


class TestTextInputs:
    @pytest.mark.parametrize("option", ["--input", "--labels", "--stopwords", "--topics-file",
                                        "--config", "--embeddings"])
    def test_non_utf8_file_exit_code(self, pipeline, tmp_path, capsys, option):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9 apple banana\n".encode("latin-1"))
        raw, out = str(pipeline.root / "raw.txt"), str(tmp_path / "out.bin")
        args = {
            "--input": ["preprocess", "--input", str(bad), "--out", out],
            "--labels": ["preprocess", "--input", raw, "--labels", str(bad), "--out", out],
            "--stopwords": ["preprocess", "--input", raw, "--stopwords", str(bad),
                            "--out", out],
            "--topics-file": ["eval-topics", "--topics-file", str(bad)],
            "--config": ["preprocess", "--config", str(bad), "--input", raw, "--out", out],
            "--embeddings": ["build-graphs", "--corpus", pipeline.corpus,
                             "--embeddings", str(bad), "--delta", "0.5", "--out", out],
        }[option]
        rc, _, err = run(capsys, args)
        assert rc == 3
        assert_one_line_error(err)
        assert "not UTF-8" in err
        assert {"--input": "corpus file", "--labels": "label file",
                "--stopwords": "stopword file", "--topics-file": "topics file",
                "--config": "config file", "--embeddings": "embedding file"}[option] in err
        assert not os.path.exists(out)


class TestEntryPoint:
    def test_no_command_prints_usage(self, capsys):
        rc, out, err = run(capsys, [])
        assert rc == 2
        assert "usage" in err
        assert out == ""

    def test_stdout_carries_only_tables(self, pipeline, tmp_path, capsys):
        rc, out, _ = run(capsys, ["build-graphs", "--corpus", pipeline.corpus,
                                  "--embeddings", pipeline.emb, "--delta", "0.5",
                                  "--out", str(tmp_path / "g.bin")])
        assert rc == 0
        for line in out.strip().split("\n"):
            assert "\t" in line

    def test_sets_glibc_heap_thresholds(self, capsys, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        rc, _, _ = run(capsys, [])
        assert rc == 2
        # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("lookup_error", [AttributeError, OSError])
    def test_runs_without_mallopt(self, capsys, monkeypatch, tmp_path, lookup_error):
        def no_libc(name):
            raise lookup_error("mallopt")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        topics = tmp_path / "topics.txt"
        topics.write_text("apple banana cherry\nengine wheel brake\n")
        rc, out, _ = run(capsys, ["eval-topics", "--topics-file", str(topics)])
        assert rc == 0
        assert set(parse_table(out)) == {"irbo"}

    def test_import_leaves_the_allocator_alone(self):
        # a fresh interpreter, so that the import is a first import
        probe = (
            "import ctypes\n"
            "calls = []\n"
            "real = ctypes.CDLL\n"
            "def record(name, *args, **kwargs):\n"
            "    calls.append(name)\n"
            "    return real(name, *args, **kwargs)\n"
            "ctypes.CDLL = record\n"
            "import ginopic.cli\n"
            "assert None not in calls, calls\n"
            "assert ginopic.cli.main([]) == 2\n"
            "assert None in calls, calls\n"
        )
        run_fresh(probe)

    def test_import_loads_no_scipy(self):
        probe = (
            "import sys\n"
            "import ginopic\n"
            "import ginopic.cli\n"
            "lazy = ('scipy', 'multiprocessing', 'concurrent')\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] in lazy]\n"
            "assert not loaded, loaded\n"
        )
        run_fresh(probe)

    def test_preprocess_and_build_graphs_load_no_scipy(self, tmp_path):
        write_inputs(tmp_path)
        probe = (
            "import sys\n"
            "from ginopic import cli\n"
            "assert cli.main(['preprocess', '--input', 'raw.txt', '--labels', 'labels.txt',\n"
            "                 '--out', 'corpus.bin']) == 0\n"
            "assert cli.main(['build-graphs', '--corpus', 'corpus.bin',\n"
            "                 '--embeddings', 'emb.txt', '--delta', '0.5',\n"
            "                 '--out', 'graphs.bin']) == 0\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded, loaded\n"
        )
        run_fresh(probe, cwd=tmp_path)
        assert (tmp_path / "graphs.bin").exists()

    def test_errors_go_to_stderr_not_stdout(self, capsys, tmp_path):
        rc, out, err = run(capsys, ["preprocess",
                                    "--input", str(tmp_path / "absent.txt"),
                                    "--out", str(tmp_path / "x.bin")])
        assert rc == 3
        assert out == ""
        assert "absent" in err
