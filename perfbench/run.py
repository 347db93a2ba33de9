"""End-to-end benchmark of the ginopic pipeline.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 60 --trace 0

Generates the workload's input files from the seed, then runs
`preprocess -> build-graphs -> train -> eval-topics -> classify` in this one
process through `ginopic.cli.main`, closed loop with one caller: each command
starts when the previous one has returned.  Outputs are checked, and every
metric is printed by name with its unit.  The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  The inputs are written by a child
process, and one untimed round on a tiny version of the workload pays the
one-time costs.  Then two full rounds of the five stages run; the rest of
--seconds goes to whichever stage has been measured for the least time, so
that every stage's samples are spread over the whole run.  Cold-start
samples are taken between stage samples; setup_s is their median.  Each
stage time is the mean of its samples.

Times are reported at a reference machine speed.  On a host shared with
other tenants the same code runs at full speed or about 1.6x slower, in
stretches of seconds, so raw wall times of the same code spread by a quarter
from one run to the next.  A speed probe (a fixed ~1 ms pure-Python loop)
runs every 50 ms inside each stage sample, and next to each cold-start
sample.  Each stretch of a stage between two probes is scaled by
PROBE_REFERENCE_S over the duration of the probe that ends it, and the
probes' own time is left out; a cold-start sample is scaled by the mean of
the probes around it.  A slower program still reads slower by the same
share; a slower machine minute mostly does not (stages that lean on the
memory system, such as build-graphs, are slowed somewhat more than the
probe).  The raw wall times are printed too.

--trace 1 runs one untraced round and one traced round and reports the
per-layer metrics of the traced one.  The difference between the two
rounds is the tracing overhead.  Spans and a summary are written to
.bench_work/traces/.

Every pipeline setting is fixed here, not by the workload: delta 0.4,
K = 6 topics, tau = hidden = tau_out = 64, lr 0.02, seed 0, one training
epoch, and one SVM run of 30 epochs.
"""
from __future__ import annotations

import argparse
import array
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads: on a machine of a few shared cores a
# second thread measures the scheduler, and the speed probe below sees only the
# main thread.  The checkpoint bytes also depend on the BLAS thread count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    N_CLASSES,
    WORKLOADS,
    file_sha256,
    input_digests,
    input_paths,
    recorded_digests,
    tiny,
)

DELTA = "0.4"
WIDTH = "64"          # tau, hidden and tau_out
LR = "0.02"
PIPELINE_SEED = "0"
EPOCHS = "1"
SVM_RUNS = "1"
SVM_EPOCHS = "30"
MIN_ROUNDS = 2         # full rounds of the five stages before the time-balanced fill
PREPROCESS_REPS = 3    # preprocess samples per full round; it costs a fraction of a second
SETUP_REPS = 12        # cold-start samples, taken between stage samples
ORACLE_DOCS = 32
ACCURACY_MARGIN = 0.1  # accuracy must clear chance (1/K) by this much

# Counts the ROADMAP baseline reports for desk at seed 0.
ROADMAP_DESK_SEED0 = {
    "docgraph.pairs_tested": 1_654_743,
    "docgraph.edges_kept": 804_948,
    "metrics.pairs_distinct.window10": 138_507,
    "metrics.pairs_distinct.window110": 222_991,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "preprocess_s": "s",
    "build_graphs_s": "s",
    "train_s": "s",
    "eval_topics_s": "s",
    "classify_s": "s",
    "pipeline_docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}


# ---------------------------------------------------------------------------
# Checks: every one attempted counts, every failure feeds error_rate
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.results = []   # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


# ---------------------------------------------------------------------------
# Machine speed while a stage runs
# ---------------------------------------------------------------------------

PROBE_INTERVAL = 0.05        # seconds between probes while a stage runs
PROBE_REFERENCE_S = 0.0012   # probe_kernel at full speed on a 2-vCPU x86-64 VM, Python 3.11
SETUP_PROBES = 5             # probes on each side of a cold-start sample


def probe_kernel() -> int:
    """A fixed pure-Python loop of about a millisecond: the speed probe's unit of work."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def probe_seconds(n: int = SETUP_PROBES) -> float:
    """Mean duration of n back-to-back probe kernels."""
    t0 = time.perf_counter()
    for _ in range(n):
        probe_kernel()
    return (time.perf_counter() - t0) / n


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Wall seconds rescaled to the speed at which probe_kernel takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / probe_s


class SpeedProbe:
    """Times `probe_kernel` every PROBE_INTERVAL seconds while switched on.

    The probe runs from a SIGALRM handler in the stage's own thread, so it
    sees the speed the stage ran at: on a shared host that speed moves
    between full and about 1.6x slower in stretches of seconds.
    """

    def __init__(self):
        self.starts = array.array("d")
        self.durations = array.array("d")

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def reference_seconds(self, t0: float, t1: float, first: int) -> float:
        """The time from t0 to t1, less the probes from index `first` on, at reference speed.

        Each stretch between probes is scaled by the probe that ends it, the
        last stretch by the last probe.
        """
        if len(self.durations) == first:
            return at_reference_speed(t1 - t0, probe_seconds())
        total, edge = 0.0, t0
        for start, d in zip(self.starts[first:], self.durations[first:]):
            total += at_reference_speed(start - edge, d)
            edge = start + d
        return total + at_reference_speed(t1 - edge, self.durations[-1])

    @contextlib.contextmanager
    def on(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def stage_commands(workload, inputs: dict, out: str) -> dict:
    """Stage name -> (cli argv, output path, artifact whose bytes must repeat)."""
    corpus = os.path.join(out, "corpus.bin")
    graphs = os.path.join(out, "graphs.bin")
    run_dir = os.path.join(out, "run")
    ckpt = os.path.join(run_dir, "model.ckpt")
    return {
        "preprocess": (["preprocess", "--input", inputs["docs.txt"],
                        "--labels", inputs["labels.txt"], "--out", corpus],
                       corpus, corpus),
        "build_graphs": (["build-graphs", "--corpus", corpus,
                          "--embeddings", inputs["embeddings.txt"],
                          "--delta", DELTA, "--out", graphs],
                         graphs, graphs),
        "train": (["train", "--corpus", corpus, "--graphs", graphs,
                   "--topics", str(N_CLASSES), "--tau", WIDTH, "--hidden", WIDTH,
                   "--tau-out", WIDTH, "--lr", LR, "--epochs", EPOCHS,
                   "--seed", PIPELINE_SEED, "--out", run_dir],
                  run_dir, ckpt),
        "eval_topics": (["eval-topics", "--model", ckpt, "--corpus", corpus,
                         "--embeddings", inputs["embeddings.txt"],
                         "--out", os.path.join(out, "topic_metrics")],
                        os.path.join(out, "topic_metrics.json"), None),
        "classify": (["classify", "--model", ckpt, "--corpus", corpus, "--graphs", graphs,
                      "--runs", SVM_RUNS, "--svm-epochs", SVM_EPOCHS, "--seed", PIPELINE_SEED,
                      "--out", os.path.join(out, "accuracy.tsv")],
                     os.path.join(out, "accuracy.tsv"), None),
    }


def _remove(path) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _table(stdout: str) -> dict:
    """First and last cell of each row of a cli table: key -> value."""
    rows = {}
    for line in stdout.splitlines():
        cells = line.split("\t")
        if len(cells) >= 2:
            rows[cells[0]] = cells[-1]
    return rows


class StageResults:
    """Samples and outputs of every stage run, in the order they ran."""

    def __init__(self):
        self.times = {s: [] for s in tracing.STAGES}
        self.tables = {s: [] for s in tracing.STAGES}   # parsed stdout of each run
        self.artifacts = {}       # stage -> set of artifact sha256 over its runs
        self.exit_codes = []      # (stage, code)
        self.cpu_s = 0.0          # process CPU time of every command, all threads
        self.setup = []           # cold-start samples taken between stages, wall seconds
        self.probe = SpeedProbe()
        self.scaled = {s: [] for s in tracing.STAGES}   # samples at reference speed
        self.setup_scaled = []    # cold-start samples at reference speed

    @property
    def failed_commands(self) -> int:
        return sum(1 for _, code in self.exit_codes if code != 0)

    def run(self, stage: str, command: tuple, tracer=None, probe=False) -> None:
        """Run one stage once through cli.main and record the sample."""
        from ginopic import cli

        argv, output, artifact = command
        _remove(output)   # a leftover graph cache would be reused, not rebuilt
        captured_out, captured_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured_out), \
                contextlib.redirect_stderr(captured_err):
            first_probe = len(self.probe.durations)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with self.probe.on() if probe else contextlib.nullcontext():
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        code = tracer.call(f"cli.{stage}", cli.main, (argv,), {})
            except Exception:   # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                code = -1
            t1 = time.perf_counter()
            seconds = t1 - t0
            if probe:
                self.scaled[stage].append(self.probe.reference_seconds(t0, t1, first_probe))
            self.cpu_s += time.process_time() - c0
        self.times[stage].append(seconds)
        self.tables[stage].append(_table(captured_out.getvalue()))
        self.exit_codes.append((stage, code))
        if code != 0:
            print(f"{stage} exited {code}:\n{captured_err.getvalue()}", file=sys.stderr)
        if artifact is not None and os.path.exists(artifact):
            self.artifacts.setdefault(stage, set()).add(file_sha256(artifact))


def run_stages(workload, inputs: dict, out: str, tracer=None) -> StageResults:
    """Run the five stages once, in pipeline order, in-process through cli.main."""
    os.makedirs(out, exist_ok=True)
    result = StageResults()
    for stage, command in stage_commands(workload, inputs, out).items():
        result.run(stage, command, tracer)
    return result


def timed_stages(workload, inputs: dict, out: str, seconds: float) -> StageResults:
    """Sample every stage, and the cold start, over `seconds` of wall time.

    MIN_ROUNDS full rounds run first, preprocess PREPROCESS_REPS times in each.
    The rest of the time goes, one sample at a time, to the stage measured
    for the least time so far among those whose last sample still fits
    before the deadline, so that the short stages gather more samples and
    every stage's samples are spread over the whole run.  A cold-start
    sample follows each stage sample until there are SETUP_REPS of them.
    A stage run again rewrites the artifact it wrote before, byte for byte.
    """
    deadline = time.perf_counter() + seconds
    os.makedirs(out, exist_ok=True)
    result = StageResults()
    commands = stage_commands(workload, inputs, out)

    def setup():
        before = probe_seconds()
        seconds = setup_sample()
        result.setup.append(seconds)
        result.setup_scaled.append(at_reference_speed(seconds, (before + probe_seconds()) / 2))

    def sample(stage):
        result.run(stage, commands[stage], probe=True)
        if len(result.setup) < SETUP_REPS:
            setup()

    for _ in range(MIN_ROUNDS):
        for stage in tracing.STAGES:
            for _ in range(PREPROCESS_REPS if stage == "preprocess" else 1):
                sample(stage)
    while True:
        now = time.perf_counter()
        fits = [s for s in tracing.STAGES if now + result.times[s][-1] <= deadline]
        if not fits:
            break
        sample(min(fits, key=lambda s: sum(result.times[s])))
    while len(result.setup) < SETUP_REPS:
        setup()
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_vectors(path, words) -> dict:
    """Word -> float32 vector for the requested words, parsed independently."""
    import numpy as np

    wanted = set(words)
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word, _, rest = line.partition(" ")
            if word in wanted:
                out[word] = np.array(rest.split(), dtype=np.float64).astype(np.float32)
    return out


def oracle_graph(node_ids, vectors, delta: float) -> tuple:
    """Brute force: float64 cosine of every node pair, cast to float32, kept at >= delta."""
    import numpy as np

    rows = [vectors[i].astype(np.float64) for i in node_ids]
    norms = [float(np.sqrt(np.dot(r, r))) for r in rows]
    edges = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if norms[i] == 0.0 or norms[j] == 0.0:
                c = 0.0
            else:
                c = min(1.0, max(-1.0, float(np.dot(rows[i], rows[j])) / (norms[i] * norms[j])))
            w = float(np.float32(c))
            if w >= delta:
                edges.append((i, j, w))
    return tuple(edges)


def oracle_mismatches(documents, graphs, vectors, delta: float, indices) -> list:
    """Indices of sampled documents whose stored graph differs from the oracle.

    `vectors` maps vocabulary id -> float32 vector.
    """
    bad = []
    for k in indices:
        nodes = tuple(dict.fromkeys(int(t) for t in documents[k].token_ids))
        g = graphs[k]
        if tuple(g.node_ids) != nodes or tuple(g.adjacency) != oracle_graph(nodes, vectors, delta):
            bad.append(k)
    return bad


def sample_indices(n: int, k: int = ORACLE_DOCS) -> list:
    """A fixed, evenly spaced sample of k of n documents."""
    return sorted({round(i * (n - 1) / max(k - 1, 1)) for i in range(min(k, n))})


def check_graphs(checks: Checks, out: str, inputs: dict) -> None:
    from ginopic.corpus import load_corpus
    from ginopic.docgraph import load_graph_store
    from ginopic.errors import GinopicError

    try:
        corpus = load_corpus(os.path.join(out, "corpus.bin"))
        store = load_graph_store(os.path.join(out, "graphs.bin"))
    except (GinopicError, OSError) as e:
        checks.check("corpus and graph cache load", False, f"{type(e).__name__}: {e}")
        return
    docs = corpus.split.all_documents()
    if not checks.check("graph store covers the corpus", len(docs) == len(store.graphs),
                        f"{len(docs)} documents, {len(store.graphs)} graphs"):
        return
    words = corpus.vocabulary.words
    by_word = read_vectors(inputs["embeddings.txt"], words)
    if not checks.check("every vocabulary word has a vector", len(by_word) == len(words),
                        f"{len(words) - len(by_word)} words missing"):
        return
    vectors = {i: by_word[w] for i, w in enumerate(words)}
    indices = sample_indices(len(docs))
    bad = oracle_mismatches(docs, store.graphs, vectors, float(DELTA), indices)
    checks.check("sampled graphs equal the brute-force oracle", not bad,
                 f"{len(bad)} of {len(indices)} differ, first at document {bad[:1]}")


def _number(table: dict, key: str) -> float:
    """A printed value as a float; NaN, which fails every range check, if absent."""
    try:
        return float(table.get(key, "nan"))
    except ValueError:
        return float("nan")


def check_quality(checks: Checks, results) -> tuple:
    """Metric ranges, accuracy above chance, and the same values every time.

    Returns the (npmi, accuracy) the last classify and eval-topics printed.
    """
    topic = results[-1].tables["eval_topics"][-1]
    npmi, cv, irbo = (_number(topic, k) for k in ("npmi", "cv", "irbo"))
    accuracy = _number(results[-1].tables["classify"][-1], "mean")
    checks.check("npmi in [-1, 1]", -1.0 <= npmi <= 1.0, f"npmi {npmi}")
    checks.check("cv in [-1, 1]", -1.0 <= cv <= 1.0, f"cv {cv}")
    checks.check("irbo in [0, 1]", 0.0 <= irbo <= 1.0, f"irbo {irbo}")
    floor = 1.0 / N_CLASSES + ACCURACY_MARGIN
    checks.check("accuracy clears chance", accuracy >= floor,
                 f"accuracy {accuracy} < {floor:.4f}")
    for stage, key in (("eval_topics", "npmi"), ("classify", "mean")):
        values = {t.get(key) for r in results for t in r.tables[stage]}
        checks.check(f"{stage} prints the same {key} every time", len(values) == 1, str(values))
    return npmi, accuracy


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ginopic", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_artifacts(checks: Checks, workload: str, seed: int, results) -> None:
    """Corpus, graph cache and checkpoint bytes repeat within and across runs.

    Digests persist per (program source, workload, seed) in .bench_work, so
    every run of a set compares against the first one.
    """
    digests = {}
    for stage in ("preprocess", "build_graphs", "train"):
        seen = set().union(*(r.artifacts.get(stage, set()) for r in results))
        checks.check(f"{stage} output repeats within the run", len(seen) == 1,
                     f"{len(seen)} distinct digests")
        digests[stage] = sorted(seen)[0] if seen else None
    path = os.path.join(WORK, "artifact_digests.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    key = f"{source_fingerprint()}/{workload}/{seed}"
    earlier = table.setdefault(key, digests)
    for stage, digest in digests.items():
        checks.check(f"{stage} output repeats across runs", earlier.get(stage) == digest,
                     f"{digest} != {earlier.get(stage)}")
    tmp = f"{path}.{os.getpid()}"
    os.makedirs(WORK, exist_ok=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Machine and set-up
# ---------------------------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count of the numpy wheel's bundled library, if found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def setup_sample() -> float:
    """Wall time of one fresh interpreter up to `import ginopic.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ginopic.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def check_outputs(checks: Checks, workload: str, seed: int, results, out: str,
                  inputs: dict) -> tuple:
    """Every check on what the stages produced; `out` holds the last outputs.

    Returns the (npmi, accuracy) the pipeline printed.
    """
    for r in results:
        for stage, code in r.exit_codes:
            checks.check(f"{stage} exits 0", code == 0, f"exit code {code}")
    check_graphs(checks, out, inputs)
    check_artifacts(checks, workload, seed, results)
    return check_quality(checks, results)


def end_to_end(workload, seed: int, seconds: float, inputs: dict, work: str, checks: Checks):
    out = os.path.join(work, "out")
    result = timed_stages(workload, inputs, out, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    npmi, accuracy = check_outputs(checks, workload.name, seed, [result], out, inputs)

    stage_s = {s: statistics.fmean(result.scaled[s]) for s in tracing.STAGES}
    n_docs = int(result.tables["preprocess"][0].get("documents_in", 0))
    metrics = {"setup_s": statistics.median(result.setup_scaled)}
    metrics.update({f"{s}_s": stage_s[s] for s in tracing.STAGES})
    metrics["pipeline_docs_per_s"] = n_docs / sum(stage_s.values())
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["success_rate"] = 1.0 - checks.failed / checks.attempted
    print("setup seconds\t" + json.dumps([round(t, 4) for t in result.setup]))
    print("stage seconds\t" + json.dumps({s: [round(t, 4) for t in result.times[s]]
                                           for s in tracing.STAGES}))
    print("setup scaled\t" + json.dumps([round(t, 4) for t in result.setup_scaled]))
    print("stage scaled\t" + json.dumps({s: [round(t, 4) for t in result.scaled[s]]
                                          for s in tracing.STAGES}))
    print(f"npmi\t{npmi:.9g}\tscore\naccuracy\t{accuracy:.9g}\tfraction")
    print(f"error_rate\t{checks.failed / checks.attempted:.6g}\tfraction"
          f"\t({checks.failed} of {checks.attempted} commands and checks failed)")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(workload, seed: int, inputs: dict, work: str, checks: Checks, info: dict):
    plain = run_stages(workload, inputs, os.path.join(work, "untraced"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_round = run_stages(workload, inputs, os.path.join(work, "traced"),
                                 tracer=tracer)
    finally:
        tracer.uninstall()
    checks.check("every traced target exists", not tracer.missing, ", ".join(tracer.missing))
    npmi, accuracy = check_outputs(checks, workload.name, seed, [plain, traced_round],
                                   os.path.join(work, "traced"), inputs)
    metrics = tracing.layer_metrics(tracer, traced_round.failed_commands, npmi, accuracy)
    if workload.name == "desk" and seed == 0:
        counts = dict(metrics, **tracer.counts)
        for name, want in ROADMAP_DESK_SEED0.items():
            checks.check(f"ROADMAP baseline count {name}", counts.get(name) == want,
                         f"{counts.get(name)} != {want}")

    for label, p in (("untraced", plain), ("traced", traced_round)):
        print(f"{label} stage seconds\t" + json.dumps({s: round(p.times[s][0], 4)
                                                       for s in tracing.STAGES}))
    untraced_s = sum(t for ts in plain.times.values() for t in ts)
    traced_s = sum(t for ts in traced_round.times.values() for t in ts)
    overhead = {"untraced_s": untraced_s, "traced_s": traced_s,
                "overhead_s": traced_s - untraced_s,
                "overhead_share": (traced_s - untraced_s) / untraced_s,
                "overhead_cpu_s": traced_round.cpu_s - plain.cpu_s}
    print("tracing overhead\t" + "\t".join(f"{k} {v:.4f}" for k, v in overhead.items()))
    for name in ROADMAP_DESK_SEED0:
        if name.startswith("metrics.pairs_distinct."):
            print(f"{name}\t{tracer.counts.get(name)}")

    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, f"{workload.name}-seed{seed}")
    tracer.write_spans(stem + ".spans.tsv")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "machine": info,
                   "overhead": overhead, "metrics": metrics,
                   "counts": dict(tracer.counts), "missing": tracer.missing},
                  fh, indent=1, sort_keys=True)
    return {k: (v, tracing.layer_unit(k)) for k, v in metrics.items()}


def generate_in_child(name: str, seed: int, directory: str, tiny: bool = False) -> dict:
    """Write a workload's inputs from a child process and return their paths.

    The generator's memory peak then stays out of the peak of this process.
    """
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--generate", name,
            "--seed", str(seed), "--out", directory]
    subprocess.run(argv + (["--tiny"] if tiny else []), check=True)
    return input_paths(directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ginopic pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ginopic", "cli.py")):
        print(f"no ginopic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ginopic

    if not os.path.abspath(ginopic.__file__).startswith(SRC + os.sep):
        print(f"ginopic imported from {ginopic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GINOPIC_THREADS", None)   # the pipeline runs in its default configuration

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    checks = Checks()
    info = machine_info()
    try:
        inputs = generate_in_child(workload.name, args.seed, os.path.join(work, "inputs"))
        tiny_inputs = generate_in_child(workload.name, 0, os.path.join(work, "tiny"), tiny=True)
        got, want = input_digests(tiny_inputs), recorded_digests(workload.name, "tiny")
        checks.check("tiny inputs match their recorded sha256", got == want, f"{got} != {want}")
        want = recorded_digests(workload.name, args.seed)
        if want is not None:
            got = input_digests(inputs)
            checks.check("inputs match their recorded sha256", got == want, f"{got} != {want}")
        # one untimed round on the tiny inputs pays the one-time costs (lazy
        # imports, first-call caches) before anything is measured
        warm = run_stages(tiny(workload), tiny_inputs, os.path.join(work, "warmup"))
        checks.check("warm-up round exits 0", warm.failed_commands == 0,
                     f"{warm.failed_commands} commands failed")
        if args.trace:
            metrics = traced(workload, args.seed, inputs, work, checks, info)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, inputs, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(checks, metrics, info)
    return 0


def report(checks: Checks, metrics: dict, info: dict) -> None:
    """Print the machine, every metric with its unit, and the result line last."""
    print("machine\t" + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
