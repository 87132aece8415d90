"""Decentralized degree-greedy search on scale-free networks.

Simulation toolkit: graph model and exact shortest-path oracle,
preferential-attachment generator, edge-list I/O, the bounded-visibility
search walk with optional neighbor consultation, greedy route
refinement, and a reproducible experiment harness.
"""

from .errors import (
    ConfigError,
    DegreeSearchError,
    EdgeError,
    EdgeListError,
    NodeIdError,
    RouteError,
)
from .experiment import (
    ExperimentPlan,
    ExperimentResult,
    ExperimentSummary,
    SearchRecord,
    VariantSpec,
    emit_csv,
    emit_histogram,
    run_experiment,
    sample_pairs,
)
from .generate import BaConfig, generate_ba
from .graphs import (
    DegreeStats,
    Graph,
    Route,
    bfs_distances,
    build_graph,
    degree_stats,
    pair_distance,
    shortest_path,
)
from .refine import RefinementResult, refine_route
from .search import (
    SearchConfig,
    SearchOutcome,
    WalkTrace,
    khop_contains,
    materialize_route,
    run_search,
)
from .topology import IdMap, load_edge_list, save_edge_list

__version__ = "0.1.0"

__all__ = [
    "BaConfig",
    "ConfigError",
    "DegreeSearchError",
    "DegreeStats",
    "EdgeError",
    "EdgeListError",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentSummary",
    "Graph",
    "IdMap",
    "NodeIdError",
    "RefinementResult",
    "Route",
    "RouteError",
    "SearchConfig",
    "SearchOutcome",
    "SearchRecord",
    "VariantSpec",
    "WalkTrace",
    "bfs_distances",
    "build_graph",
    "degree_stats",
    "emit_csv",
    "emit_histogram",
    "generate_ba",
    "khop_contains",
    "load_edge_list",
    "materialize_route",
    "pair_distance",
    "refine_route",
    "run_experiment",
    "run_search",
    "sample_pairs",
    "save_edge_list",
    "shortest_path",
    "__version__",
]
