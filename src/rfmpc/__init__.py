"""Region-free explicit MPC: condensed parametric QPs solved by active-set search.

The pipeline: :mod:`.problem` holds receding-horizon problem data,
:mod:`.lifting` condenses it into a parametric QP in the inputs,
:mod:`.solver` locates the optimal active set for a query parameter with warm
starts and rank-deficiency pruning, :mod:`.beam` builds the flexible-beam
benchmark, and :mod:`.sim` closes the loop.  :mod:`.oracle` holds slow
independent solvers that the tests cross-check the search against; no command
runs them.
"""
from .lifting import LiftedQP, build, evaluate_lifted_cost
from .problem import (
    Parameter,
    PlantModel,
    ProblemDefinition,
    StageConstraints,
    StageWeights,
    load_problem,
    save_problem,
    validate,
)
from .solver import (
    ActiveSet,
    SolveResult,
    SolveStatus,
    Tolerances,
    kkt_residuals,
    reduce_to_licq,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "LiftedQP",
    "Parameter",
    "PlantModel",
    "ProblemDefinition",
    "SolveResult",
    "SolveStatus",
    "StageConstraints",
    "StageWeights",
    "Tolerances",
    "build",
    "evaluate_lifted_cost",
    "kkt_residuals",
    "load_problem",
    "reduce_to_licq",
    "save_problem",
    "solve",
    "validate",
    "__version__",
]
