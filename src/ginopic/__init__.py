"""Graph-augmented neural topic modeling.

Documents become word-similarity graphs, a graph isomorphism network embeds
them, and a Dirichlet-prior variational autoencoder turns the embeddings plus
tf-idf vectors into topic distributions.  Everything numeric runs on the
package's own reverse-mode autodiff over numpy arrays.
"""
from .corpus import (
    Corpus,
    CorpusColumns,
    CorpusSplit,
    Document,
    PreprocessOptions,
    Vocabulary,
    build_corpus,
    load_corpus,
    save_corpus,
)
from .docgraph import (
    DocumentGraph,
    GraphStore,
    build_all_graphs,
    build_document_graph,
    graph_density_report,
    load_graph_store,
    save_graph_store,
)
from .downstream import (
    LinearClassifier,
    SvmConfig,
    evaluate_accuracy,
    export_theta,
    train_classifier,
)
from .embedding import EmbeddingMatrix, cosine_similarity, load_embeddings
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    GinopicError,
    NumericsError,
    ShapeError,
)
from .gin import GinConfig, GinStack, gin_stack_forward
from .metrics import (
    build_cooccurrence,
    cv,
    evaluate_topics,
    irbo,
    npmi,
    rbo,
    wi_c,
    wi_m,
)
from .presets import PRESETS, Preset, get_preset
from .topicmodel import (
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

__version__ = "0.1.0"
