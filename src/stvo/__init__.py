"""Online tracking of sparse time-varying quadratic programs.

Centralized splitting and thresholded-gradient solvers, their distributed
network variant, dynamic-regret instrumentation with a closed-form bound,
and the streaming scenarios used to exercise them.
"""

from .core import (ContractionConstants, ElasticNetData, QuadraticL1Problem,
                   contraction_constants, elastic_net_problem,
                   objective_value, prox_quadratic, soft_threshold)
from .distributed import (Graph, NetworkState, NodeData, odista_round,
                          radius_graph, ring_graph, theta_tau)
from .metrics import (BoundConstants, RunTrace, dynamic_regret,
                      measure_bound_constants, path_length, reference_paths,
                      theorem1_bound)
from .runner import (PlayResult, block_taus, build_trace, calibrate_r,
                     odista_taus, partition_stream, play_odista, play_odr,
                     play_oist, problems_from_blocks, run_experiment,
                     stream_oracles)
from .solvers import (BatchResult, DRState, OnlineConfig, OracleError,
                      batch_dr, initial_state, odr_round, oist_round,
                      optimality_residual, oracle_minimizer)

__version__ = "0.1.0"

__all__ = [
    "BatchResult", "BoundConstants", "ContractionConstants", "DRState",
    "ElasticNetData", "Graph", "NetworkState", "NodeData", "OnlineConfig",
    "OracleError", "PlayResult", "QuadraticL1Problem", "RunTrace",
    "batch_dr", "block_taus", "build_trace", "calibrate_r",
    "contraction_constants", "dynamic_regret", "elastic_net_problem",
    "initial_state", "measure_bound_constants", "objective_value",
    "odista_round", "odista_taus", "odr_round", "oist_round",
    "optimality_residual", "oracle_minimizer", "partition_stream",
    "path_length", "play_odista", "play_odr", "play_oist", "problems_from_blocks",
    "prox_quadratic", "radius_graph", "reference_paths", "ring_graph",
    "run_experiment", "soft_threshold", "stream_oracles",
    "theorem1_bound", "theta_tau",
]
