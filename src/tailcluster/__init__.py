"""Clustering of heavy-tailed variables by extreme value index."""

from .cluster import ActiveSetExhausted, IterationTrace, TraceStep, cluster_known_g, cluster_unknown_g
from .core import (
    ClusterParams,
    DataMatrix,
    DimensionMismatchError,
    GroundTruth,
    ParseError,
    TailClusterError,
    TailPartition,
    ValidationError,
    accuracy,
    mse,
    resolve_params,
    truth_from_design,
)
from .hill import estimate_group_indices, group_means, hill_bands, hill_gammas, kmeans_1d_exact, tail_kmeans
from .simulate import MODELS, SimModelSpec, generate

__version__ = "0.1.0"
