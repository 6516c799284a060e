"""The benchmark's three workloads: inputs, pipeline settings, and checks.

Each workload is a fixed recipe keyed only by the workload seed:

- ``generate`` writes the graph as an edge-list file plus the ground-truth
  labels. It runs in the orchestrator before any timing starts, so no
  graph generator is ever inside a timed span.
- ``setup`` is what the measured process does before the first stage:
  ``read_edge_list`` and, for ``store-walks``, ``GraphStore.build``.
- ``pipeline`` builds the ``Pipeline`` and its ``ExecutionContext``.
- ``check`` verifies the output and returns the workload's quality
  metrics; any failed check raises ``CheckFailed``.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["WORKLOADS", "Workload", "CheckFailed", "PREDICT_REPEATS"]

#: The paper's protocol: 10-fold cross validation repeated 10 times.
PREDICT_REPEATS = 10


class CheckFailed(Exception):
    """The program's output is wrong; the run counts as failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    walks_per_vertex: int
    walk_length: int
    #: TrainConfig fields, or None for a walks-only pipeline.
    train: dict | None = None
    store_shards: int | None = None


TABLE1 = Workload(
    name="table1-detect",
    walks_per_vertex=6,
    walk_length=30,
    train={"dim": 10, "epochs": 10, "workers": 1},
)

FLIGHTS = Workload(
    name="flights-predict",
    walks_per_vertex=10,
    walk_length=40,
    train={"dim": 50, "epochs": 5, "workers": 2},
)

STORE = Workload(
    name="store-walks",
    walks_per_vertex=10,
    walk_length=40,
    store_shards=4,
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (TABLE1, FLIGHTS, STORE)}


# ----------------------------------------------------------------------
# Input generation (untimed, orchestrator side)
# ----------------------------------------------------------------------
def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write ``graph.txt`` and ``labels.npy`` for ``workload`` at ``seed``."""
    import numpy as np

    from repro.datasets.openflights import OpenFlightsSpec, synthetic_openflights
    from repro.graph.generators import planted_partition
    from repro.graph.io import write_edge_list

    if workload is TABLE1:
        g = planted_partition(n=400, groups=8, alpha=0.1, inter_edges=80, seed=seed)
        labels = g.vertex_labels("community")
    elif workload is FLIGHTS:
        g = synthetic_openflights(OpenFlightsSpec(num_airports=1500, seed=seed))
        _, labels = np.unique(g.vertex_labels("country"), return_inverse=True)
    else:
        g = planted_partition(
            n=20000, groups=200, alpha=0.1, inter_edges=4000, seed=seed
        )
        labels = g.vertex_labels("community")
    write_edge_list(g, out_dir / "graph.txt")
    np.save(out_dir / "labels.npy", np.asarray(labels, dtype=np.int64))


# ----------------------------------------------------------------------
# Program side (inside the measured process)
# ----------------------------------------------------------------------
def setup(workload: Workload, seed: int, inputs: Path, scratch: Path, call):
    """Read the inputs the way a CLI run would; returns (graph, view, labels).

    ``call(layer, fn, *args, **kwargs)`` invokes ``fn``; the traced run
    passes one that records a span per call.
    """
    import numpy as np

    from repro.graph.io import read_edge_list
    from repro.graph.store import GraphStore

    graph = call("graph.read", read_edge_list, inputs / "graph.txt")
    view = graph
    if workload.store_shards:
        view = call(
            "store.build",
            GraphStore.build,
            graph,
            scratch / "store",
            shards=workload.store_shards,
            method="bfs",
            seed=seed,
        )
    labels = np.load(inputs / "labels.npy")
    return graph, view, labels


def pipeline(workload: Workload, seed: int, labels):
    """The workload's ``(Pipeline, ExecutionContext)``."""
    from repro.pipeline import ExecutionContext, Pipeline
    from repro.pipeline.stages import DetectStage, PredictStage, TrainStage, WalkStage
    from repro.walks.engine import RandomWalkConfig

    stages = [
        WalkStage(
            RandomWalkConfig(
                walks_per_vertex=workload.walks_per_vertex,
                walk_length=workload.walk_length,
                seed=seed,
            )
        )
    ]
    if workload.train is not None:
        stages.append(TrainStage(train_config(workload, seed)))
    if workload is TABLE1:
        stages.append(DetectStage(k=8, n_init=100, seed=seed))
    elif workload is FLIGHTS:
        stages.append(
            PredictStage(labels, k=3, folds=10, repeats=PREDICT_REPEATS, seed=seed)
        )
    context = ExecutionContext(workers=1, shards=workload.store_shards)
    return Pipeline(stages), context


def train_config(workload: Workload, seed: int):
    """The workload's TrainConfig, or None when it does not train."""
    if workload.train is None:
        return None
    from repro.core.trainer import TrainConfig

    # early_stop=False: the Hogwild loss is not deterministic, so early
    # stopping would let the two sides of a comparison run different
    # epoch counts.
    return TrainConfig(**workload.train, early_stop=False, seed=seed)


# ----------------------------------------------------------------------
# Correctness checks and quality metrics (untimed)
# ----------------------------------------------------------------------
def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check(workload: Workload, result, graph, view, labels) -> dict[str, float]:
    """Verify the pipeline's output; returns its quality figures.

    Every workload yields the two quality metrics of ``BENCHMARK.json``:
    ``walk_tv`` (the walk engine's transition law, see ``_check_walks``)
    and ``task_score``, the workload's task against its ground truth:

    - ``table1-detect``: pairwise F1 of the detected communities against
      the planted ones (it also yields the precision and recall behind it);
    - ``flights-predict``: the k-NN accuracy on ``country``;
    - ``store-walks``: the share of walk steps that stay inside a planted
      community, which is what community detection on the walks needs.
    """
    import numpy as np

    if workload.train is not None:
        emb = result.outputs["train"]
        epochs = workload.train["epochs"]
        _require(
            emb.epochs_run == epochs,
            f"trainer ran {emb.epochs_run} epochs, configured {epochs}",
        )
        _require(
            emb.vectors.shape[0] == graph.n and np.all(np.isfinite(emb.vectors)),
            "embedding has missing or non-finite vectors",
        )
    corpus = result.outputs["walks"]
    quality = {"walk_tv": _check_walks(workload, corpus, view)}
    if workload is TABLE1:
        from repro.ml.metrics import pairwise_precision_recall

        membership = np.asarray(result.value)
        _require(
            membership.shape == (graph.n,) and membership.min() >= 0,
            "membership does not label every vertex",
        )
        found = np.unique(membership).size
        _require(found <= 8, f"detect found {found} communities, expected <= 8")
        precision, recall = pairwise_precision_recall(labels, membership)
        quality.update(
            task_score=2.0 * precision * recall / (precision + recall),
            precision=float(precision),
            recall=float(recall),
        )
    elif workload is FLIGHTS:
        accuracy = float(result.value)
        chance = 1.0 / np.unique(labels).size
        _require(accuracy > chance, f"k-NN accuracy {accuracy} <= chance {chance}")
        quality["task_score"] = accuracy
    else:
        walks = np.asarray(corpus.walks)
        # Padding is -1, and only ever follows a walk's last vertex.
        stepped = walks[:, 1:] >= 0
        same = labels[walks[:, :-1]] == labels[walks[:, 1:]]
        quality["task_score"] = float(same[stepped].mean())
    return quality


def _check_walks(workload: Workload, corpus, view) -> float:
    """Validate the corpus against the graph it walked; returns its walk_tv.

    ``view`` is the in-memory graph or the ``GraphStore``. walk_tv is the
    total-variation distance between the corpus's visit frequencies and
    the exact expected ones: the mean over steps s of u·Pˢ, u uniform over
    start vertices, P the view's transition matrix (uniform over out-arcs,
    or proportional to their weights). A walk that reaches a vertex with no
    out-arc ends there, so its mass leaves the sum.
    """
    import numpy as np

    n = int(view.n)
    length = workload.walk_length
    walks = np.asarray(corpus.walks)  # original vertex ids, -1 padded
    lengths = np.asarray(corpus.lengths)
    indptr = np.asarray(view.indptr)
    indices = np.asarray(view.indices)
    # A store renumbers vertices; map its ids back to the original ones.
    perm = view.permutation() if hasattr(view, "permutation") else np.arange(n)
    perm = np.asarray(perm)
    outdeg = np.diff(indptr)
    row_of = np.repeat(np.arange(n), outdeg)
    weights = view.edge_weights
    weights = np.ones(indices.size) if weights is None else np.asarray(weights)
    row_weight = np.bincount(row_of, weights=weights, minlength=n)

    _require(walks.shape == (n * workload.walks_per_vertex, length), "wrong shape")
    starts = np.bincount(walks[:, 0], minlength=n)
    _require(
        np.all(starts == workload.walks_per_vertex),
        f"not every vertex starts exactly {workload.walks_per_vertex} walks",
    )
    outdeg_orig = np.empty(n, dtype=np.int64)
    outdeg_orig[perm] = outdeg
    last = walks[np.arange(walks.shape[0]), lengths - 1]
    _require(
        np.all((lengths == length) | (outdeg_orig[last] == 0)),
        f"a walk is shorter than {length} without reaching a dead end",
    )
    # One bit per vertex pair (50 MB at n=20000): a lookup per step is
    # several times faster than a binary search over the arcs.
    is_arc = np.zeros((n * n + 7) // 8, dtype=np.uint8)
    arc_keys = perm[row_of] * n + perm[indices]
    np.bitwise_or.at(is_arc, arc_keys >> 3, (1 << (arc_keys & 7)).astype(np.uint8))
    stepped = walks[:, 1:] >= 0
    keys = (walks[:, :-1] * n + walks[:, 1:])[stepped]
    _require(
        np.all((is_arc[keys >> 3] >> (keys & 7)) & 1),
        "a walk step is not an arc of the graph",
    )

    observed = np.bincount(walks[walks >= 0], minlength=n).astype(np.float64)
    mass = np.full(n, 1.0 / n)
    expected = mass.copy()
    for _ in range(length - 1):
        step = np.where(outdeg > 0, mass / np.maximum(row_weight, 1e-300), 0.0)
        mass = np.bincount(indices, weights=step[row_of] * weights, minlength=n)
        expected += mass
    expected_orig = np.empty(n)
    expected_orig[perm] = expected
    return float(
        0.5
        * np.abs(observed / observed.sum() - expected_orig / expected_orig.sum()).sum()
    )
