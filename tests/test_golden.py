"""Golden digests: the CLI pipeline's outputs, byte for byte.

A fresh interpreter with one OpenBLAS thread runs preprocess -> build-graphs
-> train -> eval-topics -> classify on a 300-document `labeled_text_corpus`
with `desk_embeddings`, and the sha256 of each output is compared with the
committed table `golden_digests.json`.  `corpus.bin` and `graphs.bin` are
exact by construction and are checked everywhere.  The other four pass
through BLAS kernels, so their digests are keyed by numpy version, BLAS name
and version, and machine (architecture plus the CPU kernel set OpenBLAS
picked at run time), and are checked only where the key matches.

A change that moves a digest on purpose rewrites the table in the same
change, and says which digest moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
EXACT = ("corpus.bin", "graphs.bin")
KEYED = ("model.ckpt", "topics.txt", "topic_metrics.json", "accuracy.tsv")
OUTPUTS = {"corpus.bin": "corpus.bin", "graphs.bin": "graphs.bin",
           "model.ckpt": "run/model.ckpt", "topics.txt": "run/topics.txt",
           "topic_metrics.json": "topic_metrics.json", "accuracy.tsv": "accuracy.tsv"}
STAGES = (
    ["preprocess", "--input", "docs.txt", "--labels", "labels.txt", "--out", "corpus.bin"],
    ["build-graphs", "--corpus", "corpus.bin", "--embeddings", "emb.txt",
     "--delta", "0.4", "--out", "graphs.bin"],
    ["train", "--corpus", "corpus.bin", "--graphs", "graphs.bin", "--tau", "16",
     "--hidden", "16", "--tau-out", "16", "--epochs", "2", "--out", "run"],
    ["eval-topics", "--model", "run/model.ckpt", "--corpus", "corpus.bin",
     "--embeddings", "emb.txt", "--out", "topic_metrics"],
    ["classify", "--model", "run/model.ckpt", "--corpus", "corpus.bin",
     "--graphs", "graphs.bin", "--runs", "2", "--svm-epochs", "10", "--out", "accuracy.tsv"],
)


def run_pipeline(work) -> dict:
    """Write the inputs to `work`, run every stage there, and return the
    sha256 of each output.  Runs in the child process."""
    from ginopic.cli import main
    from ginopic.corpus import Vocabulary
    from ginopic.synthetic import desk_embeddings, labeled_text_corpus

    os.chdir(work)
    texts, labels, word_classes = labeled_text_corpus(seed=0, n_docs=300)
    words = list(word_classes)
    vocab = Vocabulary(words=words, doc_frequency=np.zeros(len(words), dtype=np.int64))
    vectors = desk_embeddings(vocab, word_classes, 6).vectors
    with open("docs.txt", "w") as fh:
        fh.writelines(t + "\n" for t in texts)
    with open("labels.txt", "w") as fh:
        fh.writelines(lab + "\n" for lab in labels)
    with open("emb.txt", "w") as fh:
        fh.writelines(w + " " + " ".join(map(str, row.tolist())) + "\n"
                      for w, row in zip(words, vectors))
    for argv in STAGES:
        if main(argv) != 0:
            raise SystemExit(f"`ginopic {argv[0]}` failed")
    digests = {}
    for name, path in OUTPUTS.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def fresh_digests(work) -> dict:
    """`run_pipeline(work)` in a fresh interpreter with one OpenBLAS thread."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", str(work)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _openblas_core():
    """The CPU kernel set numpy's OpenBLAS chose at run time, or None where
    it cannot be asked (another BLAS, or no bundled library)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def platform_key() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "machine": f"{platform.machine()} {_openblas_core()}"}


def test_pipeline_outputs_match_golden_digests(tmp_path):
    with open(TABLE) as fh:
        table = json.load(fh)
    got = fresh_digests(tmp_path)
    assert {n: got[n] for n in EXACT} == table["exact"]
    key = platform_key()
    keyed = [entry["digests"] for entry in table["keyed"] if entry["key"] == key]
    if not keyed:
        warnings.warn(f"golden digests: no table entry for {key}; only "
                      f"{', '.join(EXACT)} were checked")
        return
    assert {n: got[n] for n in KEYED} == keyed[0]


def regenerate() -> None:
    """Rewrite the exact digests and this platform's keyed entry of the table."""
    with open(TABLE) as fh:
        table = json.load(fh)
    with tempfile.TemporaryDirectory() as work:
        got = fresh_digests(work)
    key = platform_key()
    table["exact"] = {n: got[n] for n in EXACT}
    table["keyed"] = [e for e in table["keyed"] if e["key"] != key]
    table["keyed"].append({"key": key, "digests": {n: got[n] for n in KEYED}})
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=2)
        fh.write("\n")
    print(f"wrote {TABLE} for {key}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_pipeline(sys.argv[2])))
    else:
        regenerate()
