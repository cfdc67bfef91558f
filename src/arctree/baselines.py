"""Serial reference algorithms: natural continuation and classic
predictor-corrector arclength stepping.

Both are deliberately simple single-branch loops on the tree's sequence
records, kept as correctness baselines and as the comparison column for
benchmark runs.  Both start from the record engine.start_point emits:
natural continuation marches it along the parameter axis, serial-pac
steps from the arclength root bootstrap turns it into, so a tree one
node wide and one level deep reproduces serial-pac bit for bit while no
predictor fails, each attempt anchored at its base point.  Like the
tree, they pass each point to engine.emit_point once, when it is
accepted, return the engine's ContinuationResult, with failed
predictors as its failures and no rounds, and hold BLAS to one thread
(see blas).
"""

from __future__ import annotations

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

    Each attempt seeds from the last accepted record, at first the start,
    along its seed direction, the parameter axis, with its base step: a
    plain Newton solve at fixed parameter shift.  A failure halves that
    step and a success keeps it, so it never grows.  It may shrink by the
    factor |h_init| / h_min that the arclength methods may shrink theirs
    by, so stop_reason sees it scaled by |h_init / delta_lambda|.  This
    baseline cannot pass a fold: the Jacobian in the state variables
    becomes singular there, steps shrink, and the run ends in
    STEP_UNDERFLOW.
    """
    accepted: list[CurvePoint] = []
    last = start_point(problem, params, initial_point, accepted, sink)
    to_arclength = abs(params.h_init / params.delta_lambda)
    steps = 0
    failures = 0
    attempts = 0
    try:
        while True:
            reason = stop_reason(
                problem, params, last.zeta, last.h_base * to_arclength, attempts
            )
            if reason is not None:
                break
            attempts += 1
            node, taken = correct(problem, last.zeta, last.t_init, last.h_base, params)
            steps += taken
            if node is None:
                failures += 1
                last.h_base *= 0.5
                continue
            emit_point(problem, params, node.zeta, accepted, sink)
            last = node
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
    the root bootstrap turns the start record into, along its
    secant_direction with its base step, as a tree leaf seeds, and runs
    up to max_iter corrector iterations.  An accepted sequence's base
    step becomes next_step of its seed step and its iterations, as a new
    root's does; a failure halves the last base step.  The run ends by
    stop_reason on the last point, its base step and the attempts made,
    or when an accepted point fails re-verification.
    """
    accepted: list[CurvePoint] = []
    start = start_point(problem, params, initial_point, accepted, sink)
    last = bootstrap(problem, params, start)
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
