"""Serial reference algorithms: natural continuation and classic
predictor-corrector arclength stepping.

Both are deliberately simple single-branch loops.  They exist as
correctness baselines and as the comparison column for benchmark runs.
Like the tree, they pass each point to engine.emit_point once, when it
is accepted, the start through engine.start_point.  serial-pac steps on
the tree's sequence records, so a tree one node wide and one level deep
reproduces it bit for bit while no predictor fails, each attempt
anchored at its base point.  Both return the engine's ContinuationResult,
with failed predictors as its failures and no rounds, and hold BLAS to
one thread (see blas).
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
from .tree import secant_direction


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
    steps shrink, and the run ends in STEP_UNDERFLOW.
    """
    accepted: list[CurvePoint] = []
    z, _ = start_point(problem, params, initial_point, accepted, sink)
    axis = np.zeros(problem.n_dim)
    axis[problem.lambda_index] = 1.0
    h = params.delta_lambda
    to_arclength = abs(params.h_init / params.delta_lambda)
    steps = 0
    failures = 0
    attempts = 0
    try:
        while True:
            reason = stop_reason(problem, params, z, h * to_arclength, attempts)
            if reason is not None:
                break
            attempts += 1
            node, taken = correct(problem, z, axis, h, params)
            steps += taken
            if node is None:
                failures += 1
                h *= 0.5
                continue
            emit_point(problem, params, node.zeta, accepted, sink)
            z = node.zeta
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

    Each attempt seeds one sequence from the last accepted one, at first
    the tree's root that bootstrap builds at the start, along its
    secant_direction with its base step, as a tree leaf seeds, and runs
    up to max_iter corrector iterations.  An
    accepted sequence's base step becomes next_step of its seed step and
    its iterations, as a new root's does; a failure halves the last base
    step.  The run ends by stop_reason on the last point, its base step
    and the attempts made, or when an accepted point fails re-verification.
    """
    accepted: list[CurvePoint] = []
    z0, r0 = start_point(problem, params, initial_point, accepted, sink)
    last = bootstrap(problem, params, z0, r0)
    steps = 0
    failures = 0
    attempts = 0
    try:
        while True:
            reason = stop_reason(problem, params, last.zeta, last.h_base, attempts)
            if reason is not None:
                break
            attempts += 1
            node, taken = correct(
                problem, last.zeta, secant_direction(last), last.h_base, params
            )
            steps += taken
            if node is None:
                failures += 1
                last.h_base *= 0.5
                continue
            emit_point(problem, params, node.zeta, accepted, sink)
            node.h_base = next_step(node.h_init, node.nu, params)
            last = node
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return ContinuationResult(accepted, reason, steps, failures)
