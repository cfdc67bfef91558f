"""Pseudo-arclength continuation with a speculative predictor tree.

The package traces one-dimensional solution families of F(z) = 0 where
F maps R^N to R^(N-1).  The main engine keeps a rooted tree of predictor
steps at several lengths at once, iterates all of their correctors in
parallel rounds, and uses convergence colors to decide which branch of
the tree becomes the curve.  Serial baselines (natural continuation and
classic adaptive arclength stepping) are included for validation and
benchmarking.  Tree, round and operator internals live in their modules.
"""

from .baselines import natural_continuation, serial_pac
from .engine import (
    BootstrapError,
    ContinuationResult,
    TerminationReason,
    run_continuation,
)
from .fileio import (
    export_dot,
    parse_parameters,
    read_curve,
    read_initial_point,
    write_curve,
    write_parameters,
)
from .params import ParameterError, RunParams
from .problem import (
    CorrectorFailure,
    CurvePoint,
    EvaluationError,
    ProblemDefinition,
)
from .problems import (
    KsConfig,
    circle_problem,
    data_path,
    ks_problem,
    load_ks_fixture,
)

__all__ = [
    "BootstrapError",
    "ContinuationResult",
    "CorrectorFailure",
    "CurvePoint",
    "EvaluationError",
    "KsConfig",
    "ParameterError",
    "ProblemDefinition",
    "RunParams",
    "TerminationReason",
    "circle_problem",
    "data_path",
    "export_dot",
    "ks_problem",
    "load_ks_fixture",
    "natural_continuation",
    "parse_parameters",
    "read_curve",
    "read_initial_point",
    "run_continuation",
    "serial_pac",
    "write_curve",
    "write_parameters",
]

__version__ = "0.1.0"
