"""The traced run: per-layer spans and the kernel table, taken from outside.

Spans are recorded by the benchmark around calls into the program's public
functions, never by edits to the program: ``Tracer.install`` wraps

- ``Pipeline.execute`` (``pipeline``),
- the ``generate_walks`` / ``train_embeddings`` the pipeline stages call
  (``walks``, ``train``),
- ``KMeans.fit`` (``detect``) and ``cross_validate_knn`` (``predict``),

and ``Tracer.call`` wraps ``read_edge_list`` and ``GraphStore.build``
during set-up. The program's own recorder is installed too, for the
counters it already keeps (``shard.rounds``, ``kmeans.restart_iterations``)
and the per-stage resource records ``Pipeline.execute`` writes. Spans stay
in memory and are returned with the sample.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

import numpy as np

import repro.ml.cross_validation as cross_validation
import repro.pipeline.stages as stages
from repro.core.cbow import CBOWNegativeSampling
from repro.core._math import scatter_add_rows
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.negative import NegativeSampler
from repro.core.trainer import TrainConfig
from repro.core.vocab import VertexVocab
from repro.ml.cross_validation import KFold
from repro.ml.kmeans import KMeans
from repro.ml.knn import KNNClassifier
from repro.obs import recorder as obs_recorder
from repro.pipeline.runner import Pipeline
from repro.walks.corpus import WalkCorpus
from workloads import PREDICT_REPEATS

__all__ = ["Tracer", "kernel_table"]

#: (layer, owner, attribute) of every function the tracer wraps.
_WRAPPED = (
    ("pipeline", Pipeline, "execute"),
    ("walks", stages, "generate_walks"),
    ("train", stages, "train_embeddings"),
    ("detect", KMeans, "fit"),
    ("predict", cross_validation, "cross_validate_knn"),
)


class Tracer:
    """In-memory spans: name, start, end (seconds) and parent span index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._saved: list[tuple[object, str, object]] = []
        self.recorder = obs_recorder.Recorder()

    def call(self, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": layer, "parent": parent})
        self._stack.append(index)
        cpu = tree_cpu_s()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].update(
                start=start - self._origin,
                end=end - self._origin,
                cpu=tree_cpu_s() - cpu,
            )

    def install(self) -> None:
        obs_recorder.install(self.recorder)
        for layer, owner, attr in _WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        obs_recorder.install(None)

    def _wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return traced

    def seconds(self, layer: str) -> float:
        """Total span time of ``layer``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == layer)

    def cpu_seconds(self, layer: str) -> float:
        """Total process-tree CPU time spent inside ``layer``'s spans."""
        return sum(s["cpu"] for s in self.spans if s["name"] == layer)

    def layers(self, workload, result, graph, scratch: Path) -> dict:
        """The per-layer metrics of one traced sample."""
        registry = self.recorder.registry
        out: dict[str, float] = {}
        read_s = self.seconds("graph.read")
        out["graph.read_s"] = read_s
        out["graph.edges_per_s"] = graph.num_edges / read_s
        if workload.store_shards:
            out["store.build_s"] = self.seconds("store.build")
            out["store.bytes_written"] = float(
                sum(p.stat().st_size for p in (scratch / "store").iterdir())
            )
        corpus = result.outputs["walks"]
        walks_s = self.seconds("walks")
        out["walks.s"] = walks_s
        out["walks.walks_per_s"] = corpus.num_walks / walks_s
        if workload.store_shards:
            out["walks.shard_rounds"] = registry.counter("shard.rounds").snapshot()
            out["walks.shard_exchanged"] = registry.counter(
                "shard.exchanged"
            ).snapshot()
        out["walks.peak_rss_mb"] = _peak_rss_mb(result, "walks")
        if workload.train is not None:
            emb = result.outputs["train"]
            train_s = self.seconds("train")
            out["train.s"] = train_s
            out["train.tokens_per_s"] = corpus.num_tokens * emb.epochs_run / train_s
            out["train.epochs_run"] = float(emb.epochs_run)
            out["train.final_loss"] = float(emb.loss_history[-1])
            out["train.cpu_util"] = self.cpu_seconds("train") / (
                train_s * workload.train["workers"]
            )
            out["train.peak_rss_mb"] = _peak_rss_mb(result, "train")
        if "detect" in result.outputs:
            out["detect.s"] = self.seconds("detect")
            out["detect.lloyd_iters"] = registry.histogram(
                "kmeans.restart_iterations"
            ).total
        if "predict" in result.outputs:
            predict_s = self.seconds("predict")
            out["predict.s"] = predict_s
            # Every vertex is a test query once per repeat.
            out["predict.queries_per_s"] = graph.n * PREDICT_REPEATS / predict_s
        out["pipeline.overhead_s"] = self.seconds("pipeline") - sum(
            r.seconds for r in result.reports
        )
        return out


def tree_cpu_s() -> float:
    """CPU seconds of this process and its children, reaped or alive.

    ``RUSAGE_CHILDREN`` counts only children already reaped, so the live
    workers of a persistent pool are read from ``/proc/<pid>/stat``. The
    stage resource record misses them, which is why the tracer keeps its
    own count.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    me = os.getpid()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we scanned
            continue
        # After the command name: state, ppid, ..., utime (12th), stime (13th).
        if int(fields[1]) == me:
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(result, stage: str) -> float:
    return result.report_for(stage).resources["peak_rss_kb"] / 1024.0


# ----------------------------------------------------------------------
# Kernel table: each kernel replayed on the workload's own data
# ----------------------------------------------------------------------
BATCH = 512
NEGATIVES = 5
LR = 0.025
REPEATS = 30
#: Walks the CBOW batch is drawn from.
SAMPLE_WALKS = 2048


def _median_ms(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: lazy buffers, first-touch pages
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def kernel_table(workload, seed: int, result, labels) -> dict[str, float]:
    """Per-call times (ms) of the kernels under the workload's stages."""
    out = _cbow_kernels(workload, seed, result)
    if "detect" in result.outputs:
        vectors = result.outputs["train"].vectors
        iterations = 50
        # tol=0 never converges early, so every fit runs all iterations;
        # the one k-means++ seeding is amortized across them.
        km = KMeans(8, n_init=1, max_iter=iterations, tol=0.0, seed=seed)
        out["kernel.lloyd_iter_ms"] = (
            _median_ms(lambda: km.fit(vectors), repeats=10) / iterations
        )
    if "predict" in result.outputs:
        vectors = result.outputs["train"].vectors
        train, test = next(iter(KFold(10, seed=seed).split(vectors.shape[0])))

        def fold():
            clf = KNNClassifier(k=3, metric="cosine").fit(
                vectors[train], labels[train]
            )
            return clf.score(vectors[test], labels[test])

        out["kernel.knn_fold_ms"] = _median_ms(fold)
    return out


def _cbow_kernels(workload, seed: int, result) -> dict[str, float]:
    """One 512-example CBOW batch of the workload's corpus, both kernels.

    The batch is drawn from a sample of the corpus's walks, so that
    ``store-walks``' 200k walks need not be expanded into contexts. A
    workload that does not train uses the trainer's default dim.
    """
    corpus = result.outputs["walks"]
    dim = (workload.train or {}).get("dim", TrainConfig().dim)
    rng = np.random.default_rng(seed)
    rows = rng.choice(
        corpus.num_walks, size=min(corpus.num_walks, SAMPLE_WALKS), replace=False
    )
    sample = WalkCorpus(corpus.walks[np.sort(rows)], num_vertices=corpus.num_vertices)
    centers, contexts = sample.context_arrays(5)
    pick = rng.choice(centers.shape[0], size=BATCH, replace=False)
    centers, contexts = centers[pick], contexts[pick]
    noise = VertexVocab.from_corpus(corpus).noise_distribution()
    vocab = noise.shape[0]
    reference = CBOWNegativeSampling(
        vocab, dim, NegativeSampler(noise), negatives=NEGATIVES, rng=rng
    )
    fused = FusedCBOWNegativeSampling(
        vocab, dim, noise, negatives=NEGATIVES, rng=rng
    )
    tokens = contexts[contexts >= 0]
    target = np.zeros((vocab, dim))
    rows = rng.random((tokens.shape[0], dim))
    return {
        "kernel.cbow_reference_ms": _median_ms(
            lambda: reference.batch_step(centers, contexts, LR, rng)
        ),
        "kernel.cbow_fused_ms": _median_ms(
            lambda: fused.batch_step(centers, contexts, LR, rng)
        ),
        "kernel.scatter_add_ms": _median_ms(
            lambda: scatter_add_rows(target, tokens, rows)
        ),
    }
