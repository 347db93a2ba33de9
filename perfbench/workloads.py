"""Benchmark workloads: the input files each one feeds the pipeline.

Every workload is raw labeled text plus a text embedding file, generated
from the workload seed alone.  The program under test only ever sees these
files.  Each workload stresses different layers (see `why`), and
`input_digests.json` pins the sha256 of every generated file for a range of
seeds, so a change to the generators cannot quietly change a workload.

Run as a script to (re)write the digest table, or to write one workload's
inputs (the benchmark does this in a child process, so that generating them
does not count towards the peak memory of the process that runs the stages):

    python3 perfbench/workloads.py --record-digests 0-31
    python3 perfbench/workloads.py --generate desk --seed 0 --out DIR [--tiny]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "input_digests.json")
INPUT_FILES = ("docs.txt", "labels.txt", "embeddings.txt")


@dataclass(frozen=True)
class Workload:
    """One workload: its name, why it is in the benchmark, and its generator arguments."""

    name: str
    why: str
    corpus: dict = field(default_factory=dict)   # labeled_text_corpus keyword arguments


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk",
            why="the ROADMAP's pinned 2400-doc workload: dense class-block graphs "
                "put most graph-edge, graph-cache, GIN-aggregation and co-occurrence work here",
        ),
        Workload(
            name="short_many",
            why="9600 tiny docs: per-op autodiff overhead (105 training steps), "
                "per-document Python overhead and the SVM (1.2M SGD updates per fit) dominate",
            corpus={"n_docs": 9600, "doc_len": (6, 14)},
        ),
    )
}

N_CLASSES = 6          # labeled_text_corpus default; the pipeline trains K = 6 topics
DESK_WITHIN = 0.6      # within-class cosine of desk_embeddings


def tiny(workload: Workload) -> Workload:
    """The same workload shape at a size the benchmark's tests can afford."""
    corpus = dict(workload.corpus, n_docs=96, class_words=20, shared_words=60)
    return replace(workload, corpus=corpus)


def generate(workload: Workload, seed: int, out_dir) -> dict:
    """Write docs.txt, labels.txt and embeddings.txt; return their paths.

    The embeddings are `desk_embeddings` over the whole generator word pool:
    cosine 0.6 within a class and 0 for every other pair of words.
    """
    from ginopic.corpus import Vocabulary
    from ginopic.synthetic import desk_embeddings, labeled_text_corpus

    os.makedirs(out_dir, exist_ok=True)
    texts, labels, word_classes = labeled_text_corpus(
        seed=seed, n_classes=N_CLASSES, **workload.corpus)
    words = list(word_classes)
    vocab = Vocabulary(words=words, doc_frequency=np.zeros(len(words), dtype=np.int64))
    vectors = desk_embeddings(vocab, word_classes, N_CLASSES, within=DESK_WITHIN).vectors

    paths = input_paths(out_dir)
    with open(paths["docs.txt"], "w", encoding="utf-8") as fh:
        fh.writelines(t + "\n" for t in texts)
    with open(paths["labels.txt"], "w", encoding="utf-8") as fh:
        fh.writelines(lab + "\n" for lab in labels)
    with open(paths["embeddings.txt"], "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            # str() of the float64 widening is exact, so the float32 round-trips
            fh.write(word + " " + " ".join(map(str, row.tolist())) + "\n")
    return paths


def input_paths(directory) -> dict:
    return {name: os.path.join(directory, name) for name in INPUT_FILES}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def input_digests(paths: dict) -> dict:
    return {name: file_sha256(path) for name, path in sorted(paths.items())}


def recorded_digests(workload: str, seed) -> dict | None:
    """The pinned digests of one (workload, seed), or None if none are recorded.

    The "tiny" entry of each workload pins its tiny version at seed 0, so
    seeds outside the recorded range are covered by a proxy.
    """
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def tiny_digests(workload: Workload, directory) -> dict:
    return input_digests(generate(tiny(workload), 0, directory))


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    import sys
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record-digests", metavar="LO-HI",
                      help="seed range whose input digests to write")
    mode.add_argument("--generate", choices=sorted(WORKLOADS),
                      help="write this workload's inputs to --out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="directory for --generate")
    parser.add_argument("--tiny", action="store_true", help="generate the tiny version")
    args = parser.parse_args(argv)
    if args.generate:
        if not args.out:
            parser.error("--generate needs --out")
        workload = WORKLOADS[args.generate]
        generate(tiny(workload) if args.tiny else workload, args.seed, args.out)
        return 0
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            table[name]["tiny"] = tiny_digests(workload, tmp)
            for seed in _seed_range(args.record_digests):
                table[name][str(seed)] = input_digests(generate(workload, seed, tmp))
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
