"""Serial reference algorithms: natural continuation and classic
predictor-corrector arclength stepping.

Both are deliberately simple single-branch loops.  They exist as
correctness baselines (a tree one node wide and one level deep must
reproduce the arclength stepper exactly while no predictor fails, since
both size each next step with engine.next_step) and as the comparison
column for benchmark runs.  Both return the engine's
ContinuationResult, with failed predictors as its failures and no
rounds, and each holds BLAS to one thread while it runs (see blas).
"""

from __future__ import annotations

import numpy as np

from .blas import one_blas_thread
from .engine import (
    ContinuationResult,
    Sink,
    TerminationReason,
    bootstrap,
    correct,
    emit_point,
    next_step,
    start_point,
    stop_reason,
)
from .params import RunParams
from .problem import Array, CurvePoint, EvaluationError, ProblemDefinition
from .tree import unit_secant


@one_blas_thread()
def natural_continuation(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    sink: Sink | None = None,
) -> ContinuationResult:
    """March the parameter itself, solving for the state at each value.

    The corrector direction is the parameter axis, so each step is a
    plain Newton solve at fixed parameter shift.  The step is halved on
    failure and never grown.  It may shrink by the factor |h_init| / h_min
    that the arclength methods may shrink theirs by, so stop_reason sees
    it scaled by |h_init / delta_lambda|.  This baseline cannot pass a
    fold: the Jacobian in the state variables becomes singular there,
    steps shrink, and the run ends in STEP_UNDERFLOW.  Accepted points,
    the start included, are emitted through emit_point as in the tree
    engine.
    """
    point = start_point(problem, params, initial_point)
    accepted: list[CurvePoint] = []
    axis = np.zeros(problem.n_dim)
    axis[problem.lambda_index] = 1.0
    h = params.delta_lambda
    to_arclength = abs(params.h_init / params.delta_lambda)
    steps = 0
    failures = 0
    attempts = 0
    try:
        emit_point(problem, params, point, accepted, sink)
        z = point.z
        while True:
            reason = stop_reason(problem, params, z, h * to_arclength, attempts)
            if reason is not None:
                break
            attempts += 1
            point, taken = correct(problem, z, axis, h, params)
            steps += taken
            if point is None:
                failures += 1
                h *= 0.5
                continue
            emit_point(problem, params, point, accepted, sink)
            z = point.z
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return ContinuationResult(accepted, reason, steps, failures)


@one_blas_thread()
def serial_pac(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    sink: Sink | None = None,
) -> ContinuationResult:
    """Classic adaptive pseudo-arclength stepping, one branch at a time.

    Each attempt predicts along the unit secant of the last two points,
    or the previous direction when that secant is degenerate, as the
    tree does, and runs up to max_iter corrector iterations.  On success
    the step becomes next_step of the step and the iterations it took,
    as the tree's base step does when its root advances: it grows when
    the corrector needed fewer than max_iter - 1 iterations, shrinks when
    it needed more, and is capped at h_max.  On failure it halves.  The run
    ends by stop_reason on the last point, the step and the attempts
    made, or when an accepted point fails re-verification.  Accepted
    points, the start included, are emitted through emit_point as in the
    tree engine.
    """
    point0, tangent = bootstrap(problem, params, initial_point)
    accepted: list[CurvePoint] = []
    h = abs(params.h_init)
    steps = 0
    failures = 0
    attempts = 0
    try:
        emit_point(problem, params, point0, accepted, sink)
        z = point0.z
        while True:
            reason = stop_reason(problem, params, z, h, attempts)
            if reason is not None:
                break
            attempts += 1
            point, taken = correct(problem, z, tangent, h, params)
            steps += taken
            if point is None:
                failures += 1
                h *= 0.5
                continue
            secant = unit_secant(z, point.z)
            if secant is not None:
                tangent = secant
            emit_point(problem, params, point, accepted, sink)
            z = point.z
            h = next_step(h, taken, params)
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return ContinuationResult(accepted, reason, steps, failures)
