"""Application tasks built on V2V embeddings.

The paper's conclusion lists "predicting relationships between pairs of
vertices" among V2V's applications; :mod:`repro.tasks.link_prediction`
implements that experiment end-to-end (edge split, pair features,
logistic scorer, AUC).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "link_prediction": (
            "EDGE_OPERATORS",
            "edge_features",
            "train_test_edge_split",
            "auc_score",
            "link_prediction_experiment",
            "LinkPredictionResult",
        ),
    },
)
