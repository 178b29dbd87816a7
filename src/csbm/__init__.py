"""Correlated stochastic block models: generation, matching, recovery.

The package samples families of correlated graphs from a common block-model
parent, aligns them with k-core matchings, recovers the hidden communities
from the aligned union, and maps the parameter regions where each step is
information-theoretically possible.
"""

from .generate import CorrelatedInstance, Params, sample_instance
from .graphs import (
    Graph,
    PartialMatching,
    intersection_graph,
    k_core,
    write_edge_list,
)
from .harness import (
    SweepConfig,
    SweepResult,
    TrialResult,
    region_grid_export,
    run_trial,
    scaling_experiment,
    sweep,
)
from .impossibility import SingletonReport, map_failure_witness
from .matching import (
    MatchingEstimate,
    MatchingFamily,
    VertexClass,
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
)
from .recovery import (
    LabelEstimate,
    almost_exact_label,
    label_bad_vertices,
    label_good_vertices,
    overlap,
)
from .thresholds import (
    RegionLabel,
    chernoff_hellinger,
    classify_region,
    condition_set,
    connectivity_param,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelatedInstance",
    "Graph",
    "LabelEstimate",
    "MatchingEstimate",
    "MatchingFamily",
    "Params",
    "PartialMatching",
    "RegionLabel",
    "SingletonReport",
    "SweepConfig",
    "SweepResult",
    "TrialResult",
    "VertexClass",
    "all_pairwise_matchings",
    "almost_exact_label",
    "chernoff_hellinger",
    "classify_good_bad",
    "classify_region",
    "condition_set",
    "connectivity_param",
    "exact_matching_estimator",
    "intersection_graph",
    "k_core",
    "label_bad_vertices",
    "label_good_vertices",
    "map_failure_witness",
    "overlap",
    "region_grid_export",
    "run_trial",
    "sample_instance",
    "scaling_experiment",
    "sweep",
    "write_edge_list",
]
