"""Two-phase matheuristic for static bike-sharing repositioning.

Phase one builds vehicle routes with a randomized greedy heuristic; phase
two computes exactly optimal per-visit loading instructions for those
routes by integer programming. The package also ships instance generators,
document serialization, and a command-line interface.
"""

from .construction import BuildState, ConstructionParams, construct_solution
from .instances import (
    Family,
    GeneratorConfig,
    generate_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .loading import (
    LoadingModel,
    LoadingVariables,
    build_model,
    reoptimize_solution,
    solve_exact,
)
from .model import (
    Depot,
    Instance,
    LoadingPlan,
    ObjectiveBreakdown,
    ObjectiveWeights,
    Route,
    Solution,
    Station,
    TravelMatrix,
    Vehicle,
    check_instance,
    empty_solution,
    solution_from_plans,
    validate_solution,
)
from .search import RunConfig, RunReport, run

__version__ = "0.1.0"

__all__ = [
    "BuildState",
    "ConstructionParams",
    "Depot",
    "Family",
    "GeneratorConfig",
    "Instance",
    "LoadingModel",
    "LoadingPlan",
    "LoadingVariables",
    "ObjectiveBreakdown",
    "ObjectiveWeights",
    "Route",
    "RunConfig",
    "RunReport",
    "Solution",
    "Station",
    "TravelMatrix",
    "Vehicle",
    "build_model",
    "check_instance",
    "construct_solution",
    "empty_solution",
    "generate_instance",
    "parse_instance",
    "parse_solution",
    "reoptimize_solution",
    "run",
    "solution_from_plans",
    "solve_exact",
    "validate_solution",
    "write_instance",
    "write_solution",
]
