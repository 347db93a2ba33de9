"""The shared artifact container: every binary format fails closed on damage,
and no module but `artifact.py` opens a file, to read or to write."""
import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ginopic
from ginopic import corpus as corpus_module, docgraph
from ginopic.corpus import build_corpus, load_corpus, save_corpus
from ginopic.docgraph import build_all_graphs, load_graph_store, save_graph_store
from ginopic.errors import DataError
from ginopic.gin import GinConfig
from ginopic.topicmodel import TopicModel, TrainConfig, load_checkpoint, save_checkpoint

from conftest import load_under_limit, make_embeddings, rewrite_header

TEXTS = ["apple banana cherry apple", "banana cherry melon", "engine wheel brake",
         "wheel brake motor engine", "apple melon cherry", "motor engine wheel"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """format -> (file bytes, loader) for one tiny file of each binary format."""
    root = tmp_path_factory.mktemp("artifacts")
    corpus = build_corpus(TEXTS, labels=["f", "f", "a", "a", "f", "a"], seed=0)
    vocab = corpus.vocabulary
    gen = np.random.default_rng(0)
    embeddings = make_embeddings(vocab, gen.standard_normal((len(vocab), 3)))
    config = TrainConfig(topics=2, gin=GinConfig(tau=2, hidden=2, tau_out=2),
                         encoder_hidden=2, epochs=1)
    writers = {
        "GINOCORP2": (lambda p: save_corpus(corpus, p), load_corpus),
        "GINOGRAPH2": (lambda p: save_graph_store(build_all_graphs(corpus, embeddings, 0.0), p),
                       load_graph_store),
        "GINOCKPT1": (lambda p: save_checkpoint(TopicModel(len(vocab), config), p),
                      load_checkpoint),
    }
    out = {}
    for name, (write, load) in writers.items():
        path = root / f"{name}.bin"
        write(path)
        load(path)  # the undamaged file loads
        out[name] = (path.read_bytes(), load, root / f"{name}.damaged")
    return out


FORMATS = ["GINOCORP2", "GINOGRAPH2", "GINOCKPT1"]


def test_formats_are_every_magic_in_the_package():
    """FORMATS, which the damage tests below cover, names exactly the
    `_MAGIC` constants of the package's modules."""
    modules = [importlib.import_module(f"ginopic.{info.name}")
               for info in pkgutil.iter_modules(ginopic.__path__) if info.name != "__main__"]
    magics = {vars(m)["_MAGIC"].rstrip(b"\n").decode() for m in modules if "_MAGIC" in vars(m)}
    assert magics == set(FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_truncation_is_data_error(artifacts, fmt, data):
    blob, load, path = artifacts[fmt]
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(DataError):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_bit_flip_loads_or_is_data_error(artifacts, fmt, data):
    blob, load, path = artifacts[fmt]
    damaged = bytearray(blob)
    damaged[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= 1 << data.draw(
        st.integers(0, 7), label="bit")
    path.write_bytes(bytes(damaged))
    try:
        load(path)
    except DataError:
        pass


HUGE = 10 ** 9


def _huge(key, index=None):
    """Set header field `key` (or item `index` of the list there) to HUGE."""
    return lambda h: {**h, key: HUGE if index is None else
                      [HUGE if i == index else v for i, v in enumerate(h[key])]}


# format -> (source defining `load(path)`, magic, edits): one edit per integer
# header field (the checkpoint's are in test_topicmodel.py)
HUGE_HEADER_EDITS = {
    "GINOCORP2": ("from ginopic.corpus import load_corpus as load", corpus_module._MAGIC,
                  {key: _huge(key) for key in ("v", "n_train", "n_validation", "n_test",
                                               "seed")}),
    "GINOGRAPH2": ("from ginopic.docgraph import load_graph_store as load", docgraph._MAGIC,
                   {"n_graphs": _huge("n_graphs"),
                    **{f"split_sizes{i}": _huge("split_sizes", i) for i in range(3)},
                    "n_graphs_and_split_sizes": lambda h: {**h, "n_graphs": HUGE,
                                                           "split_sizes": [HUGE, 0, 0]}}),
}


@pytest.mark.parametrize("fmt", sorted(HUGE_HEADER_EDITS))
def test_huge_header_field_is_data_error_under_memory_limit(artifacts, fmt, tmp_path):
    """One file per edit, all loaded in one child process under a 1 GiB
    address-space limit.  A seed sizes nothing, so a huge one loads."""
    loader, magic, edits = HUGE_HEADER_EDITS[fmt]
    paths = []
    for name, edit in edits.items():
        paths.append(tmp_path / f"{name}.bin")
        paths[-1].write_bytes(artifacts[fmt][0])
        rewrite_header(paths[-1], magic, edit)
    outcomes = load_under_limit(loader, paths)
    assert dict(zip(edits, outcomes)) == {
        name: "loaded" if name == "seed" else "DataError" for name in edits}


def _file_opens(source: str) -> list:
    """Line numbers of the calls in `source` that open a file: `open(...)`
    (any `.open` too) in any mode, and the pathlib shortcuts
    `.read_text`/`.read_bytes`/`.write_text`/`.write_bytes`.  A bare
    `read_text(...)` is `artifact.read_text` and is not counted."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            opens = func.id == "open"
        else:
            opens = getattr(func, "attr", None) in (
                "open", "read_text", "read_bytes", "write_text", "write_bytes")
        if opens:
            lines.append(node.lineno)
    return lines


def test_write_open_detector():
    source = ('open(p)\nopen(p, "rb")\nopen(p, mode="w")\nio.open(p, m)\n'
              'p.read_text()\np.read_bytes()\np.write_text("x")\np.write_bytes(b"")\n'
              'read_text(p, "x")\nos.path.exists(p)\nreopen(p)\n')
    assert _file_opens(source) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_only_artifact_opens_files_for_writing():
    """No module but artifact.py opens a file, to write or to read."""
    package = Path(ginopic.__file__).parent
    offenders = {path.name: _file_opens(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py")) if path.name != "artifact.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}
