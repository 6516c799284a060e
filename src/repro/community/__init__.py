"""Community detection: graph-native baselines and the V2V pipeline.

The paper compares V2V + k-means against two classic graph algorithms:
CNM (Clauset–Newman–Moore greedy modularity, top-down in the paper's
framing) and Girvan–Newman (edge-betweenness removal). Louvain and label
propagation are provided as extensions for the ablation benches.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cnm": ("cnm_communities",),
        "consensus": ("consensus_communities", "ConsensusResult"),
        "girvan_newman": ("girvan_newman_communities",),
        "louvain": ("louvain_communities",),
        "label_propagation": ("label_propagation_communities",),
        "v2v_detector": ("V2VCommunityDetector", "V2VDetectionResult"),
    },
)
