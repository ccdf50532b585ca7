"""Exact solution paths for SLOPE-style sorted-L1 regression.

The package traces the complete piecewise-linear path of the penalized
least-squares solution as the weight vector moves along a ray, provides
the grouped optimality conditions behind the breakpoints, a sorted-L1
proximal solver for cross-checking, several weight designs including the
quasi-spherical one, and a benchmark harness.
"""

from .datagen import ScenarioSpec, generate
from .engine import (
    EngineState,
    PathOptions,
    run_path,
    segment_solution,
)
from .errors import (
    NumericalError,
    SlopePathError,
    ValidationError,
)
from .harness import (
    ExperimentReport,
    emit_contour,
    emit_sphericity_curve,
    path_metrics,
    run_experiment,
)
from .model import (
    GroupStructure,
    PathEvent,
    PathSegment,
    ProblemInstance,
    SolutionPath,
    WeightRay,
    eval_path,
    load_instance,
    load_path,
    save_instance,
    save_path,
    validate_instance,
    validate_ray,
)
from .optimality import OptimalityReport, check_optimality, signs_and_order, structure_from_beta
from .prox import solve_slope, sorted_l1_prox
from .weights import (
    bh_sequence,
    contour_extremes,
    design_sequence,
    gaussian_sequence,
    normal_quantile,
    oscar_sequence,
    qs_sequence,
    sphericity_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemInstance", "WeightRay", "GroupStructure", "PathEvent",
    "PathSegment", "SolutionPath", "validate_instance", "validate_ray",
    "save_instance", "load_instance", "save_path", "load_path",
    "run_path", "eval_path", "PathOptions", "EngineState",
    "segment_solution", "structure_from_beta",
    "check_optimality", "signs_and_order", "OptimalityReport",
    "sorted_l1_prox", "solve_slope",
    "bh_sequence", "gaussian_sequence", "oscar_sequence", "qs_sequence",
    "sphericity_ratio", "contour_extremes", "normal_quantile",
    "design_sequence",
    "ScenarioSpec", "generate",
    "path_metrics", "run_experiment", "ExperimentReport",
    "emit_contour", "emit_sphericity_curve",
    "SlopePathError", "ValidationError", "NumericalError",
]
