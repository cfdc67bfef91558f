"""Serial reference algorithms: natural continuation and classic
predictor-corrector arclength stepping.

Both are deliberately simple single-branch loops.  They exist as
correctness baselines (the tree engine must reproduce the arclength
stepper exactly when its tree is one node wide and one level deep) and
as the comparison column for benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    Sink,
    TerminationReason,
    bootstrap,
    correct,
    emit_point,
    start_point,
)
from .params import RunParams
from .problem import Array, CurvePoint, EvaluationError, ProblemDefinition


@dataclass
class SerialTrace:
    accepted_points: list[CurvePoint]
    corrector_steps_total: int
    failed_predictors: int
    termination_reason: TerminationReason


def _window_exit(problem: ProblemDefinition, params: RunParams, z: Array) -> bool:
    lam = float(z[problem.lambda_index])
    return lam >= params.lambda_max or lam <= params.lambda_min


def natural_continuation(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    sink: Sink | None = None,
) -> SerialTrace:
    """March the parameter itself, solving for the state at each value.

    The corrector direction is the parameter axis, so each step is a
    plain Newton solve at fixed parameter shift.  The step is halved on
    failure and never grown.  This baseline cannot pass a fold: the
    Jacobian in the state variables becomes singular there, steps shrink,
    and the run ends in STEP_UNDERFLOW.  Accepted points, the start
    included, are emitted through emit_point as in the tree engine.
    """
    point = start_point(problem, params, initial_point)
    accepted: list[CurvePoint] = []
    axis = np.zeros(problem.n_dim)
    axis[problem.lambda_index] = 1.0
    h = params.delta_lambda
    steps = 0
    failures = 0
    reason = TerminationReason.ITERATION_BUDGET
    attempts = 0
    try:
        emit_point(problem, params, point, accepted, sink)
        z = point.z
        while attempts < params.round_limit:
            attempts += 1
            if _window_exit(problem, params, z):
                reason = TerminationReason.REACHED_LAMBDA_MAX
                break
            if abs(h) < params.h_min:
                reason = TerminationReason.STEP_UNDERFLOW
                break
            point, taken = correct(problem, z + h * axis, axis, z, h, params)
            steps += taken
            if point is None:
                failures += 1
                h *= 0.5
                continue
            emit_point(problem, params, point, accepted, sink)
            z = point.z
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return SerialTrace(accepted, steps, failures, reason)


def serial_pac(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    step_growth: bool = True,
    sink: Sink | None = None,
) -> SerialTrace:
    """Classic adaptive pseudo-arclength stepping, one branch at a time.

    Each attempt predicts along the unit secant of the last two points
    and runs up to max_iter corrector iterations on the bordered system.
    On success the step doubles (capped at h_max) unless step_growth is
    off; on failure it halves.  The run ends when the parameter leaves
    its window, the step underflows h_min, the attempt limit is hit, or
    an accepted point fails re-verification.  Accepted points, the start
    included, are emitted through emit_point as in the tree engine.
    """
    point0, tangent = bootstrap(problem, params, initial_point)
    accepted: list[CurvePoint] = []
    h = abs(params.h_init)
    steps = 0
    failures = 0
    reason = TerminationReason.ITERATION_BUDGET
    attempts = 0
    try:
        emit_point(problem, params, point0, accepted, sink)
        z = point0.z
        while attempts < params.round_limit:
            attempts += 1
            if _window_exit(problem, params, z):
                reason = TerminationReason.REACHED_LAMBDA_MAX
                break
            if h < params.h_min:
                reason = TerminationReason.STEP_UNDERFLOW
                break
            point, taken = correct(problem, z + h * tangent, tangent, z, h, params)
            steps += taken
            if point is None:
                failures += 1
                h *= 0.5
                continue
            secant = point.z - z
            norm = float(np.linalg.norm(secant))
            if norm >= 1e-14:
                new_tangent = secant / norm
                # The arclength constraint makes the secant's component
                # along the old tangent equal +h, so this flip only fires
                # for custom correctors that drop that constraint.
                if float(np.dot(new_tangent, tangent)) < 0.0:
                    new_tangent = -new_tangent
                tangent = new_tangent
            emit_point(problem, params, point, accepted, sink)
            z = point.z
            if step_growth:
                h = min(2.0 * h, params.h_max)
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return SerialTrace(accepted, steps, failures, reason)
