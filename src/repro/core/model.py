"""The high-level V2V estimator: graph in, vertex vectors out.

This is the public face of the reproduction. Typical use::

    from repro import V2V, V2VConfig
    from repro.graph import planted_partition

    g = planted_partition(alpha=0.5, seed=0)
    model = V2V(V2VConfig(dim=50, seed=0)).fit(g)
    vectors = model.vectors            # (n, 50)
    model.most_similar(0, topn=5)      # nearest vertices in embedding space
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from repro.core.trainer import EmbeddingResult, TrainConfig, train_embeddings
from repro.graph.core import Graph
from repro.obs.recorder import ObsConfig, current_recorder
from repro.resilience.checkpoint import (
    CheckpointCorrupt,
    atomic_write_bytes,
    integrity_record,
    verify_integrity,
)
from repro.resilience.supervisor import SupervisorConfig
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import RandomWalkConfig, WalkMode, generate_walks

__all__ = ["V2V", "V2VConfig"]


@dataclass(frozen=True)
class V2VConfig:
    """End-to-end V2V configuration (walk stage + training stage).

    Paper defaults: ``window = 5``; walk count and length default to
    t = ℓ = 1000 in the paper, scaled here to a laptop corpus (see
    DESIGN.md). All the paper's constrained-walk modes are available via
    ``walk_mode``/``time_window``.

    ``train_workers > 1`` trains with the shared-memory Hogwild mode
    (:mod:`repro.parallel.hogwild`); ``1`` is the bitwise-deterministic
    serial trainer. Walk-stage workers are a per-call choice
    (``fit(workers=...)``) because they don't change the model identity
    the way the trainer's worker count does.
    """

    dim: int = 50
    window: int = 5
    walks_per_vertex: int = 10
    walk_length: int = 80
    walk_mode: WalkMode = WalkMode.UNIFORM
    time_window: float | None = None
    p: float = 1.0
    q: float = 1.0
    objective: str = "cbow"
    output_layer: str = "negative"
    negatives: int = 5
    epochs: int = 5
    batch_size: int = 512
    lr: float = 0.025
    lr_min: float = 1e-4
    subsample: float = 0.0
    tol: float = 1e-3
    patience: int = 2
    early_stop: bool = True
    streaming: bool = False
    stream_rows: int = 1024
    train_workers: int = 1
    seed: int | None = None
    # Telemetry is not part of the model's identity: excluded from
    # equality so configs differing only in observability stay equal.
    observability: ObsConfig | None = field(default=None, compare=False)
    # Worker supervision (liveness, not identity — same exclusion).
    # ``worker_deadline`` set → hung or dead parallel workers are
    # killed/respawned within that many seconds; unset → the pool's
    # ``SupervisorConfig()`` defaults.
    worker_deadline: float | None = field(default=None, compare=False)
    max_respawns: int = field(default=3, compare=False)

    def __post_init__(self) -> None:
        # Fail fast: constructing the stage configs runs their full
        # validation, so a bad V2VConfig raises here, not inside fit().
        self.walk_config()
        self.train_config()

    def walk_config(self) -> RandomWalkConfig:
        return RandomWalkConfig(
            walks_per_vertex=self.walks_per_vertex,
            walk_length=self.walk_length,
            mode=self.walk_mode,
            time_window=self.time_window,
            p=self.p,
            q=self.q,
            seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            dim=self.dim,
            window=self.window,
            objective=self.objective,
            output_layer=self.output_layer,
            negatives=self.negatives,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            lr_min=self.lr_min,
            subsample=self.subsample,
            tol=self.tol,
            patience=self.patience,
            early_stop=self.early_stop,
            streaming=self.streaming,
            stream_rows=self.stream_rows,
            workers=self.train_workers,
            seed=self.seed,
            supervisor=self.supervisor_config(),
        )

    def supervisor_config(self) -> SupervisorConfig | None:
        """The supervision policy, or ``None`` for the pool's defaults."""
        if self.worker_deadline is None:
            return None
        return SupervisorConfig(
            worker_deadline=self.worker_deadline,
            max_respawns=self.max_respawns,
        )

    def with_dim(self, dim: int) -> "V2VConfig":
        """Convenience for the dimension sweeps in Figs 5/6/9/10."""
        return replace(self, dim=dim)

    # ------------------------------------------------------------------
    # Serialization — the single source of truth for persisting a config
    # (used by V2V.save/load and the observability run manifest).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form of the config.

        ``observability`` is excluded: telemetry settings are per-run
        plumbing (file handles, sinks), not model identity, and they do
        not survive serialization meaningfully.
        """
        data = {k: v for k, v in self.__dict__.items() if k != "observability"}
        data["walk_mode"] = str(WalkMode(self.walk_mode).value)
        return data

    def to_json(self) -> str:
        """Canonical JSON encoding of :meth:`to_dict` (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "V2VConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown V2VConfig keys: {', '.join(unknown)} "
                "(file written by an incompatible version?)"
            )
        data = dict(data)
        if "walk_mode" in data:
            data["walk_mode"] = WalkMode(data["walk_mode"])
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "V2VConfig":
        return cls.from_dict(json.loads(text))


class V2V:
    """Vertex-to-Vector model (fit/transform interface).

    The model is reusable: ``fit`` runs walks + training; ``fit_corpus``
    trains on a pre-generated corpus (the paper trains many dimensions on
    *the same* walk set — reusing the corpus is both faster and truer to
    the experiment in Section V).
    """

    def __init__(self, config: V2VConfig | None = None) -> None:
        self.config = config or V2VConfig()
        self._result: EmbeddingResult | None = None
        self._corpus: WalkCorpus | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _context(
        self,
        context,
        *,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        workers: int | None = 1,
    ):
        """Resolve the :class:`~repro.pipeline.ExecutionContext` to run under.

        Either the caller hands us a prebuilt context, or we assemble one
        from the convenience kwargs — never both. The model config then
        fills any runtime concern the context left unset (supervision
        policy, telemetry, seed), so a bare ``fit(graph)`` still honors
        ``V2VConfig.observability`` and friends.
        """
        from repro.pipeline.context import ExecutionContext

        if context is not None:
            if checkpoint_dir is not None or resume or workers != 1:
                raise TypeError(
                    "pass runtime settings either via context= or as "
                    "checkpoint_dir/resume/workers keyword arguments, not both"
                )
            ctx = context
        else:
            ctx = ExecutionContext(
                checkpoint_dir=checkpoint_dir, resume=resume, workers=workers
            )
        ctx = ctx.with_supervisor(self.config.supervisor_config())
        if ctx.observability is None and self.config.observability is not None:
            ctx = replace(ctx, observability=self.config.observability)
        if ctx.seed is None and self.config.seed is not None:
            ctx = replace(ctx, seed=self.config.seed)
        return ctx

    def fit(
        self,
        graph: Graph,
        *,
        context=None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        workers: int | None = 1,
    ) -> "V2V":
        """Generate walks on ``graph`` and train the embedding.

        ``fit`` is a facade over the staged runtime: it executes
        ``Pipeline([WalkStage, TrainStage])`` (:mod:`repro.pipeline`)
        under one :class:`~repro.pipeline.ExecutionContext`. Pass a
        prebuilt context via ``context=`` for full control, or use the
        convenience kwargs below (mutually exclusive with ``context=``).

        ``workers`` parallelizes the *walk* stage (``None``/< 1 = auto
        via :func:`repro.parallel.pool.resolve_workers`); the *training*
        stage fans out when ``config.train_workers > 1`` (shared-memory
        Hogwild, see docs/PERFORMANCE.md).

        ``checkpoint_dir`` makes the whole pipeline durable: completed
        walk chunks land under ``<dir>/walks/`` and the trainer snapshot
        at ``<dir>/trainer.ckpt.npz``, each written atomically. A run
        killed at any point restarts with ``resume=True`` and continues
        from the last checkpoint, ending in embeddings bitwise-identical
        to an uninterrupted run with the same seed (docs/resilience.md).
        The trainer fingerprint includes the worker count, so a resume
        with a different ``train_workers`` is refused rather than mixing
        determinism regimes.

        With observability configured (on the context or via
        ``config.observability``) and no recorder already installed by an
        enclosing session (e.g. the CLI's), ``fit`` opens its own
        :func:`repro.obs.session` for the duration of the pipeline, so
        library users get logs/metrics/manifest without touching global
        state themselves.
        """
        ctx = self._context(
            context, checkpoint_dir=checkpoint_dir, resume=resume, workers=workers
        )
        run_config = self.config.to_dict()
        run_config["entrypoint"] = "V2V.fit"
        with ctx.session(run_config=run_config):
            return self._fit(graph, ctx)

    def _fit(self, graph: Graph, ctx) -> "V2V":
        from repro.pipeline import Pipeline, TrainStage, WalkStage

        rec = current_recorder()
        with rec.span("pipeline.fit", n=int(graph.n), dim=self.config.dim):
            result = Pipeline(
                [
                    WalkStage(self.config.walk_config()),
                    TrainStage(self.config.train_config()),
                ]
            ).execute(graph, context=ctx)
        self._corpus = result.outputs["walks"]
        self._result = result.outputs["train"]
        return self

    def fit_corpus(
        self,
        corpus: WalkCorpus,
        *,
        init_vectors: np.ndarray | None = None,
        context=None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
    ) -> "V2V":
        """Train on an existing walk corpus (optionally warm-started)."""
        ctx = self._context(context, checkpoint_dir=checkpoint_dir, resume=resume)
        self._corpus = corpus
        self._result = train_embeddings(
            corpus,
            self.config.train_config(),
            context=ctx,
            init_vectors=init_vectors,
        )
        return self

    def refit(self, graph: Graph) -> "V2V":
        """Re-train on a (slightly) changed graph, warm-starting from the
        current vectors.

        The paper's §VII asks about graphs with missing/changing data;
        warm-starting converges in a fraction of the cold-start epochs
        when the change is small, because the embedding geometry is
        already near the new optimum. Requires the new graph to have the
        same vertex set size.
        """
        current = self._require_fitted()
        if graph.n != current.vectors.shape[0]:
            raise ValueError(
                "refit requires the same vertex universe; "
                f"model has {current.vectors.shape[0]} vertices, graph has {graph.n}"
            )
        corpus = generate_walks(graph, self.config.walk_config())
        return self.fit_corpus(corpus, init_vectors=current.vectors)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._result is not None

    def _require_fitted(self) -> EmbeddingResult:
        if self._result is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._result

    @property
    def vectors(self) -> np.ndarray:
        """(n × dim) embedding matrix; row ``v`` is vertex ``v``'s vector."""
        return self._require_fitted().vectors

    @property
    def result(self) -> EmbeddingResult:
        """Full training record (loss history, epochs, wall time)."""
        return self._require_fitted()

    @property
    def corpus(self) -> WalkCorpus:
        if self._corpus is None:
            raise RuntimeError("model has no corpus; call fit() first")
        return self._corpus

    def embedding_for(self, vertex: int) -> np.ndarray:
        vectors = self.vectors
        if not 0 <= vertex < vectors.shape[0]:
            raise IndexError(f"vertex {vertex} out of range")
        return vectors[vertex]

    # ------------------------------------------------------------------
    # Similarity queries
    # ------------------------------------------------------------------
    def similarity(self, u: int, v: int) -> float:
        """Cosine similarity between two vertex embeddings."""
        a, b = self.embedding_for(u), self.embedding_for(v)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    def most_similar(self, vertex: int, topn: int = 10) -> list[tuple[int, float]]:
        """``topn`` nearest vertices by cosine similarity (self excluded)."""
        vectors = self.vectors
        query = self.embedding_for(vertex)
        norms = np.linalg.norm(vectors, axis=1)
        qn = np.linalg.norm(query)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = vectors @ query / (norms * qn)
        sims[~np.isfinite(sims)] = -np.inf
        sims[vertex] = -np.inf
        topn = min(topn, vectors.shape[0] - 1)
        idx = np.argpartition(-sims, topn - 1)[:topn] if topn > 0 else np.empty(0, int)
        idx = idx[np.argsort(-sims[idx])]
        return [(int(i), float(sims[i])) for i in idx]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the learned vectors (+ loss history) as .npz.

        The write is atomic (tmp → fsync → rename, see
        :func:`repro.resilience.checkpoint.atomic_write_bytes`) and the
        file embeds a SHA-256/CRC32 integrity record that :meth:`load`
        verifies, so a torn or bit-flipped model file is detected
        instead of silently loading garbage vectors.
        """
        result = self._require_fitted()
        path = Path(path)
        if path.suffix != ".npz":  # match np.savez_compressed behavior
            path = path.with_name(path.name + ".npz")
        arrays = {
            "vectors": np.asarray(result.vectors),
            "loss_history": np.asarray(result.loss_history),
            "epochs_run": np.asarray(result.epochs_run),
            "converged": np.asarray(int(result.converged)),
            # The config rides along (integrity-covered), so load() can
            # rebuild the exact model without the caller re-supplying it.
            "config_json": np.frombuffer(
                self.config.to_json().encode(), np.uint8
            ),
        }
        record = integrity_record(arrays)
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            **arrays,
            __integrity__=np.frombuffer(json.dumps(record).encode(), np.uint8),
        )
        atomic_write_bytes(path, buf.getvalue())

    @classmethod
    def load(cls, path: str | Path, config: V2VConfig | None = None) -> "V2V":
        """Load vectors saved by :meth:`save` into a fitted model.

        Raises :class:`repro.resilience.checkpoint.CheckpointCorrupt`
        when the file is unreadable or fails its integrity record
        (models saved before integrity records load unverified).
        """
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files if k != "__integrity__"}
                record = (
                    json.loads(bytes(data["__integrity__"]).decode())
                    if "__integrity__" in data.files
                    else None
                )
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
            raise CheckpointCorrupt(path, f"unreadable container: {exc}") from exc
        if record is not None:
            verify_integrity(arrays, record, path=path)
        config_json = arrays.pop("config_json", None)
        if config is None and config_json is not None:
            config = V2VConfig.from_json(bytes(config_json).decode())
        model = cls(config)
        model._result = EmbeddingResult(
            vectors=arrays["vectors"],
            loss_history=[float(x) for x in arrays["loss_history"]],
            epochs_run=int(arrays["epochs_run"]),
            train_seconds=0.0,
            converged=bool(int(arrays["converged"])),
            config=model.config.train_config(),
        )
        return model
