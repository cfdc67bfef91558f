"""Pseudo-arclength continuation with a speculative predictor tree.

The package traces one-dimensional solution families of F(z) = 0 where
F maps R^N to R^(N-1).  The main engine keeps a rooted tree of predictor
steps at several lengths at once, iterates all of their correctors in
parallel rounds, and uses convergence colors to decide which branch of
the tree becomes the curve.  Serial baselines (natural continuation and
classic adaptive arclength stepping) are included for validation and
benchmarking.
"""

from .baselines import SerialTrace, natural_continuation, serial_pac
from .engine import (
    BootstrapError,
    ContinuationResult,
    TerminationReason,
    WorkerPool,
    advance_root,
    bootstrap,
    corrector_round,
    make_root,
    run_continuation,
    spawn_round,
)
from .fileio import (
    export_dot,
    parse_parameters,
    read_curve,
    read_initial_point,
    write_curve,
    write_parameters,
)
from .params import ParameterError, RunParams, default_worker_budget
from .problem import (
    CorrectorFailure,
    CurvePoint,
    EvaluationError,
    ProblemDefinition,
    corrector_step,
    evaluate_residual,
    residual_norm,
)
from .problems import (
    KsConfig,
    circle_problem,
    data_path,
    grid,
    ks_jacobian,
    ks_problem,
    ks_residual,
    load_ks_fixture,
    reflect_profile,
    reflect_state,
    spectral_operators,
)
from .tree import (
    Color,
    PathMetrics,
    TreeNode,
    assign_color,
    choose_best_path,
    compute_paths,
    count_nodes,
    prune_tree,
    reduce_base_step,
    secant_direction,
)

__all__ = [
    "BootstrapError",
    "Color",
    "ContinuationResult",
    "CorrectorFailure",
    "CurvePoint",
    "EvaluationError",
    "KsConfig",
    "ParameterError",
    "PathMetrics",
    "ProblemDefinition",
    "RunParams",
    "SerialTrace",
    "TerminationReason",
    "TreeNode",
    "WorkerPool",
    "advance_root",
    "assign_color",
    "bootstrap",
    "choose_best_path",
    "circle_problem",
    "compute_paths",
    "corrector_round",
    "corrector_step",
    "count_nodes",
    "data_path",
    "default_worker_budget",
    "evaluate_residual",
    "export_dot",
    "grid",
    "ks_jacobian",
    "ks_problem",
    "ks_residual",
    "load_ks_fixture",
    "make_root",
    "natural_continuation",
    "parse_parameters",
    "prune_tree",
    "read_curve",
    "read_initial_point",
    "reduce_base_step",
    "reflect_profile",
    "reflect_state",
    "residual_norm",
    "run_continuation",
    "secant_direction",
    "serial_pac",
    "spawn_round",
    "spectral_operators",
    "write_curve",
    "write_parameters",
]

__version__ = "0.1.0"
