"""Natural continuation and the serial arclength stepper."""

import numpy as np
import pytest

from arctree import (
    BootstrapError,
    ProblemDefinition,
    TerminationReason,
    circle_problem,
    natural_continuation,
    serial_pac,
)
from conftest import make_params

Z0 = np.array([1.0, 0.0])


def linear_problem() -> ProblemDefinition:
    # x = lambda: a straight line with no fold; one Newton step per
    # parameter value lands exactly on the solution.
    return ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0] - z[1]]),
        jacobian=lambda z: np.array([[1.0, -1.0]]),
    )


def test_natural_walks_a_fold_free_branch():
    params = make_params(delta_lambda=0.25, lambda_max=1.0)
    seen = []
    trace = natural_continuation(
        linear_problem(), params, np.zeros(2), sink=seen.append
    )
    assert trace.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert seen == trace.accepted_points
    lams = [p.z[1] for p in trace.accepted_points]
    assert lams == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert [p.z[0] for p in trace.accepted_points] == pytest.approx(lams)
    assert trace.failed_predictors == 0
    assert trace.corrector_steps_total == 4


def test_natural_rejects_unconverged_start():
    with pytest.raises(BootstrapError):
        natural_continuation(linear_problem(), make_params(), np.array([0.5, 0.0]))


@pytest.mark.parametrize(
    "tol,dlam",
    [(1e-10, 0.01), (1e-8, 0.02), (1e-12, 0.005)],
)
def test_natural_stalls_at_the_fold(tol, dlam):
    # Solutions exist only while lambda**2 <= 1 + residual tolerance, so
    # the accepted parameter can never pass sqrt(1 + tol).
    params = make_params(tol_residual=tol, delta_lambda=dlam)
    trace = natural_continuation(circle_problem(), params, Z0)
    assert trace.termination_reason is TerminationReason.STEP_UNDERFLOW
    lams = np.array([p.z[1] for p in trace.accepted_points])
    xs = np.array([p.z[0] for p in trace.accepted_points])
    assert lams[-1] <= 1.0 + tol
    assert lams[-1] >= 1.0 - 1e-3
    assert xs.min() >= -1e-5  # the lower half of the circle is unreachable
    assert trace.failed_predictors > 0


def test_natural_gets_closer_with_smaller_floor():
    coarse = natural_continuation(circle_problem(), make_params(h_min=1e-4), Z0)
    fine = natural_continuation(circle_problem(), make_params(h_min=1e-9), Z0)
    assert fine.accepted_points[-1].z[1] >= coarse.accepted_points[-1].z[1]


def test_natural_step_accounting():
    trace = natural_continuation(circle_problem(), make_params(), Z0)
    attempts = len(trace.accepted_points) - 1 + trace.failed_predictors
    assert trace.corrector_steps_total >= len(trace.accepted_points) - 1
    assert trace.corrector_steps_total <= attempts * make_params().max_iter


def test_serial_passes_where_natural_stalls():
    params = make_params()
    natural = natural_continuation(circle_problem(), params, Z0)
    serial = serial_pac(circle_problem(), params, Z0)
    assert natural.termination_reason is TerminationReason.STEP_UNDERFLOW
    assert serial.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    serial_x = np.array([p.z[0] for p in serial.accepted_points])
    assert serial_x.min() <= -0.9  # well past the fold at (0, 1)
    assert all(
        p.residual_norm <= params.tol_residual for p in serial.accepted_points
    )


def test_serial_growth_covers_curve_with_fewer_points():
    params = make_params()
    grown = serial_pac(circle_problem(), params, Z0, step_growth=True)
    flat = serial_pac(circle_problem(), params, Z0, step_growth=False)
    assert grown.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert flat.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert len(grown.accepted_points) < len(flat.accepted_points)
    gaps = np.linalg.norm(
        np.diff([p.z for p in flat.accepted_points], axis=0), axis=1
    )
    assert gaps.max() <= abs(params.h_init) + 0.02


def test_serial_sink_sees_every_accepted_point():
    seen = []
    params = make_params()
    trace = serial_pac(circle_problem(), params, Z0, sink=seen.append)
    # the sink receives every accepted point, the start included
    assert len(seen) == len(trace.accepted_points)
    assert seen[0].z == pytest.approx(Z0)
    assert seen == trace.accepted_points


def test_serial_bootstrap_failure_propagates():
    with pytest.raises(BootstrapError):
        serial_pac(circle_problem(), make_params(), np.array([2.0, 0.0]))
