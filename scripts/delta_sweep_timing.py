"""Edge-count and wall-time profile of the similarity threshold delta.

For each delta, builds the full graph store over a synthetic corpus with
continuous-similarity embeddings, trains briefly, and reports edges kept
plus build and train times.  Raising delta must never add edges; this is
the same invariant the test suite checks, exposed here as a profile.

Usage:
    python3 scripts/delta_sweep_timing.py [--deltas 0.1,0.3,0.5,0.7] [--n-docs 200]
"""
import argparse
import sys
import time

import numpy as np

from ginopic.docgraph import build_all_graphs
from ginopic.embedding import EmbeddingMatrix
from ginopic.gin import GinConfig
from ginopic.rng import stream
from ginopic.synthetic import block_topic_corpus
from ginopic.topicmodel import TrainConfig, train


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deltas", default="0.1,0.3,0.5,0.7",
                        help="comma-separated thresholds, each in [0, 1]")
    parser.add_argument("--n-docs", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--dim", type=int, default=12, help="embedding dimension")
    args = parser.parse_args(argv)
    deltas = [float(d) for d in args.deltas.split(",")]

    corpus = block_topic_corpus(seed=3, n_docs=args.n_docs, n_topics=2,
                                words_per_topic=8, doc_len=(10, 30))
    v = len(corpus.vocabulary)
    embeddings = EmbeddingMatrix(
        vectors=stream(4, "sweep/embeddings").normal(size=(v, args.dim)),
        oov_mask=np.zeros(v, dtype=bool), vocabulary=corpus.vocabulary,
    )

    print("delta\tedges\tbuild_seconds\ttrain_seconds")
    previous = None
    for delta in deltas:
        t0 = time.perf_counter()
        store = build_all_graphs(corpus, embeddings, delta)
        build_s = time.perf_counter() - t0
        edges = int(store.graphs.edge_ptr[-1])

        config = TrainConfig(topics=2, gin=GinConfig(tau=8, hidden=8, tau_out=8),
                             encoder_hidden=16, epochs=args.epochs, batch_size=32,
                             lr=5e-3, seed=11)
        t0 = time.perf_counter()
        train(corpus, store, config)
        train_s = time.perf_counter() - t0

        print(f"{delta:g}\t{edges}\t{build_s:.3f}\t{train_s:.3f}")
        if previous is not None and edges > previous:
            print(f"edge count rose from {previous} to {edges} as delta increased",
                  file=sys.stderr)
            return 1
        previous = edges
    return 0


if __name__ == "__main__":
    sys.exit(main())
