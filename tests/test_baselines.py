"""Natural continuation and the serial arclength stepper."""

from dataclasses import replace

import numpy as np
import pytest

from arctree import (
    BootstrapError,
    ProblemDefinition,
    TerminationReason,
    circle_problem,
    data_path,
    ks_problem,
    load_ks_fixture,
    natural_continuation,
    parse_parameters,
    read_initial_point,
    run_continuation,
    serial_pac,
)
from arctree import baselines
from arctree.engine import bootstrap, start_point
from arctree.problem import bordered_newton_step
from conftest import held_turn, make_params

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
    assert trace.failures == 0
    assert trace.corrector_steps_total == 4


def test_natural_marches_its_last_record_along_the_parameter_axis(monkeypatch):
    # Every attempt of the packaged circle run starts at the last accepted
    # point, along the parameter axis, with a step that halves after each
    # failure and holds after each success.
    params = parse_parameters(data_path("circle.params"))
    z0 = read_initial_point(data_path("circle_start.txt"))
    attempts = []
    correct = baselines.correct

    def spy(problem, z_base, tangent, h, params):
        node, taken = correct(problem, z_base, tangent, h, params)
        attempts.append((z_base.copy(), tangent.copy(), h, node is not None))
        return node, taken

    monkeypatch.setattr(baselines, "correct", spy)
    trace = natural_continuation(circle_problem(), params, z0)
    assert trace.termination_reason is TerminationReason.STEP_UNDERFLOW
    assert (len(trace.accepted_points), trace.corrector_steps_total) == (117, 468)
    assert trace.failures == 24
    assert len(attempts) == 116 + 24
    axis = np.eye(2)[params.lambda_index]
    accepted = 0
    h = params.delta_lambda
    for z_base, tangent, step, converged in attempts:
        assert np.array_equal(z_base, trace.accepted_points[accepted].z)
        assert np.array_equal(tangent, axis)
        assert step == h
        accepted += converged
        h = step if converged else 0.5 * step
    assert accepted == 116


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
    assert trace.failures > 0


def test_natural_gets_closer_with_smaller_floor():
    coarse = natural_continuation(circle_problem(), make_params(h_min=1e-4), Z0)
    fine = natural_continuation(circle_problem(), make_params(h_min=1e-9), Z0)
    assert fine.accepted_points[-1].z[1] >= coarse.accepted_points[-1].z[1]


def test_natural_step_accounting():
    trace = natural_continuation(circle_problem(), make_params(), Z0)
    attempts = len(trace.accepted_points) - 1 + trace.failures
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
    grown = serial_pac(circle_problem(), params, Z0)
    # h_max = |h_init| leaves the step no room to grow
    flat = serial_pac(circle_problem(), replace(params, h_max=params.h_init), Z0)
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


def test_serial_seeds_along_its_last_direction_when_the_secant_is_degenerate(
    monkeypatch,
):
    # The bordered step for bootstrap's lambda-axis tangent; for any other
    # tangent the corrector returns its base point, a circle point, so
    # every attempt converges on its own base and leaves no secant.
    circle = circle_problem()

    def corrector(zeta, tangent, z_base, h):
        if np.array_equal(tangent, [0.0, 1.0]):
            f = circle.residual(zeta)
            return bordered_newton_step(circle, zeta, tangent, z_base, h, f, held_turn())
        return z_base.copy()

    problem = replace(circle, corrector=corrector)
    params = make_params(round_limit=5)
    start = start_point(problem, params, Z0, [], None)
    direction = bootstrap(problem, params, start).t_init
    seeds = []
    correct = baselines.correct

    def spy(problem, z_base, tangent, h, params):
        seeds.append(tangent.copy())
        return correct(problem, z_base, tangent, h, params)

    monkeypatch.setattr(baselines, "correct", spy)
    trace = serial_pac(problem, params, Z0)
    assert trace.termination_reason is TerminationReason.ITERATION_BUDGET
    assert len(seeds) == params.round_limit
    assert all(np.array_equal(t, direction) for t in seeds)
    assert all(np.array_equal(p.z, Z0) for p in trace.accepted_points)


def test_serial_wastes_few_predictors_on_ks():
    # Growing the step only when a success came cheaply keeps failed
    # predictors, and the corrector steps they burn, rare on the packaged
    # KS inputs; doubling after every success failed half the attempts.
    params = parse_parameters(data_path("ks_n128.params"))
    z0, config = load_ks_fixture()
    trace = serial_pac(ks_problem(config), params, z0)
    assert trace.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    attempts = len(trace.accepted_points) - 1 + trace.failures
    assert trace.failures <= 0.1 * attempts


def test_degenerate_tree_matches_serial_on_ks():
    # One child per level, one level, unit scaling: the tree accepts the
    # point serial-pac accepts, from the same base point, so the KS phase
    # is anchored at the same points in both, and the tree's curve is a
    # bit-exact prefix of serial-pac's while no predictor fails.
    params = replace(
        parse_parameters(data_path("ks_n128.params")),
        max_depth=1,
        max_children=1,
        scalings=(1.0,),
        h_init=-4.0,
        h_max=4.0,
        worker_budget=None,
        round_limit=60,
    )
    z0, config = load_ks_fixture()
    tree = run_continuation(ks_problem(config), params, z0)
    _, config = load_ks_fixture()
    serial = serial_pac(ks_problem(config), params, z0)
    assert tree.failures == 0 and serial.failures == 0
    a = np.array([p.z for p in tree.accepted_points])
    b = np.array([p.z for p in serial.accepted_points])
    assert 10 < len(a) < len(b)
    assert np.array_equal(a, b[: len(a)])
