"""Staged pipeline runtime: Stage / Pipeline / ExecutionContext.

The composable execution layer the ROADMAP's production north star needs:
the walks → train → tasks flow is a :class:`Pipeline` of
:class:`~repro.pipeline.stage.Stage` objects, and every runtime concern
(checkpoint/resume, workers, supervision, chaos, telemetry, seeds)
travels in one :class:`~repro.pipeline.context.ExecutionContext` instead
of per-function keyword arguments. See docs/architecture.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "context": ("ExecutionContext",),
        "checkpointing": ("FingerprintMismatch", "FingerprintedCheckpoints"),
        "runner": ("Pipeline", "PipelineResult", "StageReport"),
        "stage": ("PipelineStage", "Stage", "StageError"),
        "stages": (
            "DetectStage",
            "LayoutStage",
            "PredictStage",
            "TrainStage",
            "WalkStage",
        ),
    },
)
