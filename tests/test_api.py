"""The package's public names."""
from __future__ import annotations

import polarnet

# Constants, then classes, then functions, each group in code-point order.
PUBLIC_NAMES = [
    "DEFAULT_PORTFOLIO",
    "POLARIZATION_THRESHOLD",
    "ComboScript",
    "CommentRecord",
    "DemodDistanceResult",
    "DemodularityMatrix",
    "DetectionResult",
    "DistanceDemodPair",
    "EventAnnotation",
    "GroupSubnetwork",
    "GroupTopics",
    "InternalConsistencyError",
    "KCoreResult",
    "Layer",
    "LayerSchema",
    "MIResult",
    "MetricEstimate",
    "MultiplexNetwork",
    "ParseError",
    "Partition",
    "PartyMergeConfig",
    "PartyPosition",
    "PolarnetError",
    "StructureRow",
    "TopicReport",
    "UndefinedMetricError",
    "ValidationError",
    "WindowRecord",
    "WindowSpec",
    "WindowedSeries",
    "WordGroupStat",
    "apply_party_merge",
    "average_path_length",
    "classify_polarization",
    "demod_distance_analysis",
    "demodularity",
    "demodularity_matrix",
    "entropy_ml",
    "entropy_mm",
    "euclidean_distance",
    "event_annotation",
    "export_graphml",
    "export_layer_csv",
    "filter_partition",
    "group_subnetwork",
    "in_degree_centralization",
    "ingest_layer",
    "jaccard",
    "jackknife",
    "kcore_decomposition",
    "link_nmi",
    "load_stopwords",
    "mutual_information",
    "nmi",
    "partial_jaccard",
    "partition_nmi",
    "pearson",
    "pearson_pvalue",
    "pmi",
    "q_modularity",
    "read_comments",
    "read_merge_config",
    "read_node_table",
    "read_positions",
    "run_combo",
    "run_portfolio",
    "significance",
    "structure_report",
    "sweep",
    "tokenize",
    "topic_report",
    "window_slice",
]


def _group_order(name: str) -> tuple[bool, bool, str]:
    return not name.isupper(), not name[0].isupper(), name


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES, key=_group_order)
    assert polarnet.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(polarnet, name) is not None, name
