"""Online tracking of sparse time-varying quadratic programs.

The API is the round objects :class:`OdrRound`, :class:`OistRound` and
:class:`OdistaRound`: each starts on a revealed slice from the arrays that
the last round's ``state()`` returned and steps r times before the next
slice arrives.  The one-shot functions and play loops in the modules, and
the records they carry, are the form that the command line and the
benchmark driver call.
"""

from .core import (ElasticNetData, QuadraticL1Problem, elastic_net_problem,
                   objective_value)
from .distributed import Graph, OdistaRound, RowStack, radius_graph, ring_graph
from .metrics import (RunTrace, dynamic_regret, measure_bound_constants,
                      theorem1_bound)
from .runner import block_taus, odista_taus, run_experiment
from .solvers import (OdrRound, OistRound, OracleError, batch_dr,
                      oracle_minimizer)

__version__ = "0.1.0"

__all__ = [
    "ElasticNetData", "Graph", "OdistaRound", "OdrRound", "OistRound",
    "OracleError", "QuadraticL1Problem", "RowStack", "RunTrace", "batch_dr",
    "block_taus", "dynamic_regret", "elastic_net_problem",
    "measure_bound_constants", "objective_value", "odista_taus",
    "oracle_minimizer", "radius_graph", "ring_graph", "run_experiment",
    "theorem1_bound",
]
