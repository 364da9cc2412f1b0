"""Flow weights, main paths, islands and hub/authority scores for large
acyclic citation networks."""

import os
import sys

# citeflow makes no BLAS call that grows with the network: if it loads numpy,
# OpenBLAS starts one thread, and the variable is unset again right after.
if "numpy" not in sys.modules and not any(var in os.environ for var in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .network import (ArcWeights, MODES, Network, complete_acyclic,
                      random_dag, simplify)
from .pajek import (PajekParseError, format_number, parse_pajek, write_pajek,
                    write_partition, write_vector)
from .acyclic import (CycleError, DepthMap, Partition, StandardizedNetwork,
                      TopologicalOrder, depths, is_acyclic, preprint_transform,
                      remove_loops, shrink_components, standardize,
                      strong_components, topological_order)
from .stats import NetworkStats, format_stats, network_stats
from .weights import (WeightOverflowError, WeightResult, aged_path_counts,
                      log_transform, normalize, nppc, spc, splc, spnp,
                      sum_weights)
from .extract import (Island, IslandSet, Subnetwork, arc_cut, cpm_path,
                      islands, main_path, write_subnetwork)
from .rank import HitsScores, hits

__version__ = "0.1.0"

__all__ = [
    "ArcWeights", "CycleError", "DepthMap", "HitsScores", "Island",
    "IslandSet", "MODES", "Network", "NetworkStats", "PajekParseError",
    "Partition", "StandardizedNetwork", "Subnetwork", "TopologicalOrder",
    "WeightOverflowError", "WeightResult", "aged_path_counts", "arc_cut",
    "complete_acyclic", "cpm_path", "depths", "format_number",
    "format_stats", "hits", "is_acyclic", "islands", "log_transform",
    "main_path", "network_stats", "normalize", "nppc", "parse_pajek",
    "preprint_transform", "random_dag", "remove_loops",
    "shrink_components", "simplify", "spc", "splc", "spnp", "standardize",
    "strong_components", "sum_weights", "topological_order", "write_pajek",
    "write_partition", "write_subnetwork", "write_vector",
]
