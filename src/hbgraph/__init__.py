"""Approximate neighbourhood functions, distance statistics and exact
diameters for large graphs, with compressed adjacency storage.

The pieces compose in pipeline order: parse or load a graph, optionally
permute and encode it, diffuse counters over it, then summarize the
resulting curves or pin down the exact diameter.
"""

from .graph import (
    Graph,
    apply_permutation,
    avg_degree,
    gap_histogram,
    info_lower_bound,
    load_edge_list,
    load_permutation,
    parse_edges,
    random_permutation,
    save_edge_list,
    save_permutation,
    transpose,
)
from .codes import CODE_NAMES
from .storage import CodecConfig, EncodedGraph, decode, encode
from .storage import load as load_compressed
from .storage import save as save_compressed
from .hll import CounterArray, eta, hash64
from .engine import (
    BudgetExceededError,
    NeighbourhoodRun,
    RunSet,
    error_evolution,
    run,
    run_exact,
    seed_sequence,
)
from .distance import (
    DistanceDistribution,
    DistanceStats,
    JackknifeResult,
    jackknife,
    summarize,
    to_distribution,
)
from .diameter import (
    DiameterResult,
    DoubleSweepResult,
    bfs,
    component_labels,
    double_sweep,
    eccentricity,
    giant_component,
    ifub,
    run_length_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Graph",
    "parse_edges",
    "load_edge_list",
    "save_edge_list",
    "apply_permutation",
    "random_permutation",
    "load_permutation",
    "save_permutation",
    "transpose",
    "gap_histogram",
    "avg_degree",
    "info_lower_bound",
    # compressed storage
    "CODE_NAMES",
    "CodecConfig",
    "EncodedGraph",
    "encode",
    "decode",
    "save_compressed",
    "load_compressed",
    # counters
    "CounterArray",
    "hash64",
    "eta",
    # diffusion runs
    "run",
    "run_exact",
    "NeighbourhoodRun",
    "RunSet",
    "seed_sequence",
    "error_evolution",
    "BudgetExceededError",
    # distance statistics
    "DistanceDistribution",
    "DistanceStats",
    "JackknifeResult",
    "to_distribution",
    "jackknife",
    "summarize",
    # diameters
    "bfs",
    "eccentricity",
    "double_sweep",
    "ifub",
    "DiameterResult",
    "DoubleSweepResult",
    "component_labels",
    "giant_component",
    "run_length_lower_bound",
]
