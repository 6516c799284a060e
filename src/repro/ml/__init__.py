"""Machine-learning substrate used on top of V2V embeddings.

Everything the paper's applications need, from scratch on numpy:
k-means (Lloyd + k-means++ + restarts), k-NN classification with cosine
distance, PCA, exact t-SNE, k-fold cross validation, and the clustering /
classification metrics of Section III-B.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "kmeans": ("KMeans", "KMeansResult"),
        "knn": ("KNNClassifier",),
        "logreg": ("LogisticRegression",),
        "pca": ("PCA",),
        "tsne": ("TSNE",),
        "procrustes": ("procrustes_align", "aligned_distance"),
        "neighbors": ("knn_graph", "cosine_similarity_matrix"),
        "spectral": ("spectral_embedding", "spectral_communities"),
        "cross_validation": ("KFold", "cross_validate_knn"),
        "metrics": (
            "pairwise_precision_recall",
            "pairwise_f1",
            "accuracy",
            "purity",
            "adjusted_rand_index",
            "normalized_mutual_information",
            "silhouette_score",
            "confusion_counts",
        ),
    },
)
