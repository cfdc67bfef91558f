"""Bootstrap, spawning, corrector rounds, root advancement, main loop."""

import numpy as np
import pytest

from arctree import (
    BootstrapError,
    Color,
    CorrectorFailure,
    EvaluationError,
    ProblemDefinition,
    TerminationReason,
    WorkerPool,
    advance_root,
    bootstrap,
    circle_problem,
    corrector_round,
    make_root,
    natural_continuation,
    prune_tree,
    run_continuation,
    serial_pac,
    spawn_round,
)
from arctree.engine import correct
from arctree.problem import bordered_newton_step
from arctree.tree import count_nodes, iter_nodes
from conftest import make_node, make_params

Z0 = np.array([1.0, 0.0])


def slow_problem() -> ProblemDefinition:
    """Curve x = lambda^2 with a corrector that contracts the residual by 0.4.

    The slow, steady contraction keeps every node RED for many rounds
    (not converged, yet clearly under the mu = 0.5 divergence threshold),
    which makes tree growth fully predictable.
    """

    def residual(z):
        return np.array([z[0] - z[1] ** 2])

    def corrector(zeta, tangent, z_base, h):
        r = zeta[0] - zeta[1] ** 2
        return np.array([zeta[0] - 0.6 * r, zeta[1]])

    return ProblemDefinition(
        n_dim=2, lambda_index=1, residual=residual, corrector=corrector
    )


def slow_params(**overrides):
    base = dict(
        max_iter=60, tol_residual=1e-12, max_depth=3, worker_budget=12, h_max=10.0
    )
    base.update(overrides)
    return make_params(**base)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_secant_oracle():
    # Neighbor at lambda = 0.05 sits at x = sqrt(1 - 0.0025); the unit
    # secant from (1, 0) is (-0.0250078..., +0.9996872...).
    params = make_params(delta_lambda=0.05)
    point, direction = bootstrap(circle_problem(), params, Z0)
    assert point.z == pytest.approx(Z0)
    secant = np.array([np.sqrt(1 - 0.0025) - 1.0, 0.05])
    expected = secant / np.linalg.norm(secant)
    assert direction == pytest.approx(expected, abs=1e-8)
    assert direction[1] > 0


def test_bootstrap_orientation_follows_step_sign():
    params = make_params(delta_lambda=0.05, h_init=-0.1)
    _, direction = bootstrap(circle_problem(), params, Z0)
    assert direction[1] < 0


def test_bootstrap_rejects_unconverged_start():
    params = make_params()
    with pytest.raises(BootstrapError):
        bootstrap(circle_problem(), params, np.array([1.1, 0.0]))


def test_bootstrap_reports_neighbor_failure():
    # One iteration cannot reach 1e-10 from a 0.3 parameter shift.
    params = make_params(delta_lambda=0.3, max_iter=1)
    with pytest.raises(BootstrapError):
        bootstrap(circle_problem(), params, Z0)


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------


def test_spawn_round_seeds_children_in_scaling_order():
    problem = slow_problem()
    params = slow_params()
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    spawned = spawn_round(root, problem, params, budget=12)
    assert spawned == 3
    steps = [child.h_init for child in root.children]
    assert steps == sorted(steps)
    assert steps == pytest.approx([0.075, 0.1, 0.2])
    for child in root.children:
        assert child.color is Color.RED
        assert child.nu == 0
        assert child.nu_init == root.nu
        assert np.isfinite(child.residual_norm_current)
        assert child.z_init == pytest.approx(root.zeta)


def test_spawn_round_respects_budget():
    problem = slow_problem()
    params = slow_params()
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    assert spawn_round(root, problem, params, budget=2) == 2
    assert len(root.children) == 2
    assert spawn_round(root, problem, params, budget=0) == 0


def test_spawn_round_skips_steps_above_h_max():
    problem = slow_problem()
    params = slow_params(h_init=0.2, h_max=0.25)  # scaling 2 gives 0.4
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    assert spawn_round(root, problem, params, budget=12) == 2
    assert [c.h_init for c in root.children] == pytest.approx([0.15, 0.2])


def test_spawn_round_respects_depth_cap():
    problem = slow_problem()
    params = slow_params(max_depth=1)
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    spawn_round(root, problem, params, budget=12)
    corrector_round(root, problem, params, WorkerPool(1))
    assert spawn_round(root, problem, params, budget=9) == 0


def test_tree_growth_matches_budget_12_shape():
    # Budget 12 with three scalings: 3 children in the first round, 9
    # more in the second (13 nodes total), then no room until something
    # is retired.
    problem = slow_problem()
    params = slow_params()
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    pool = WorkerPool(1)

    active = lambda: sum(
        1 for n in iter_nodes(root) if n.color in (Color.RED, Color.YELLOW)
    )
    free = params.worker_budget - active()
    assert spawn_round(root, problem, params, free) == 3
    assert active() <= params.worker_budget
    corrector_round(root, problem, params, pool)

    free = params.worker_budget - active()
    assert free == 9
    assert spawn_round(root, problem, params, free) == 9
    assert count_nodes(root) == 13
    assert active() == params.worker_budget
    corrector_round(root, problem, params, pool)

    assert spawn_round(root, problem, params, params.worker_budget - active()) == 0
    assert count_nodes(root) == 13


# ---------------------------------------------------------------------------
# Corrector rounds
# ---------------------------------------------------------------------------


def test_corrector_round_steps_only_unfinished_nodes():
    problem = slow_problem()
    params = slow_params()
    point, direction = bootstrap(problem, params, np.zeros(2))
    root = make_root(point, direction, params)
    spawn_round(root, problem, params, budget=12)
    green_zeta = root.zeta.copy()
    stepped = corrector_round(root, problem, params, WorkerPool(1))
    assert stepped == 3
    assert root.zeta == pytest.approx(green_zeta)  # GREEN never iterates
    assert root.nu == 0
    for child in root.children:
        assert child.nu == 1
        assert child.color is Color.RED
        assert child.residual_norm_previous is not None
        assert child.residual_norm_current == pytest.approx(
            0.4 * child.residual_norm_previous
        )


def test_corrector_round_blackens_failed_steps():
    def corrector(zeta, tangent, z_base, h):
        raise CorrectorFailure("no progress")

    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        corrector=corrector,
    )
    params = make_params()
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    child = make_node(Color.RED, nu=0, h_init=0.1, residual=0.5)
    root.children = [child]
    corrector_round(root, problem, params, WorkerPool(1))
    assert child.color is Color.BLACK


def test_worker_pool_returns_results_in_task_order():
    def fn(i):
        if i == 1:
            raise EvaluationError("boom")
        return i * 10

    tasks = [(0,), (1,), (2,)]
    serial = WorkerPool(1).map(fn, tasks)
    with WorkerPool(3) as pool:
        threaded = pool.map(fn, tasks)
    for outcomes in (serial, threaded):
        assert [ok for ok, _ in outcomes] == [True, False, True]
        assert outcomes[0][1] == 0 and outcomes[2][1] == 20
        assert isinstance(outcomes[1][1], EvaluationError)


# ---------------------------------------------------------------------------
# Root advancement
# ---------------------------------------------------------------------------


def test_advance_root_walks_single_green_chain():
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    mid = make_node(Color.GREEN, nu=1, h_init=0.1, residual=0.0)
    tip = make_node(Color.YELLOW, nu=1, h_init=0.1, residual=1e-6)
    root.zeta = np.array([1.0, 0.0])
    mid.z_init = root.zeta.copy()
    mid.zeta = np.array([0.99, 0.1])
    tip.z_init = mid.zeta.copy()
    tip.zeta = np.array([0.97, 0.2])
    root.children = [mid]
    mid.children = [tip]

    emitted = []
    new_root, count = advance_root(root, emitted.append)
    assert count == 1
    assert new_root is mid
    assert [p.z[1] for p in emitted] == [0.0]
    # the new root's stored direction is the secant that produced it
    secant = mid.zeta - mid.z_init
    assert new_root.t_init == pytest.approx(secant / np.linalg.norm(secant))
    # a YELLOW child stops the walk
    assert new_root.children == [tip]


def test_advance_root_requires_exactly_one_child():
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    a = make_node(Color.GREEN, nu=1, h_init=0.1, residual=0.0)
    b = make_node(Color.RED, nu=1, h_init=0.1, residual=0.5)
    a.zeta = np.array([1.0, 1.0])
    root.children = [a, b]
    emitted = []
    new_root, count = advance_root(root, emitted.append)
    assert count == 0 and new_root is root and emitted == []


def test_advance_root_after_walkthrough_prune(prune_fixture):
    # After pruning, the surviving root still has two children (the
    # confirmed chain plus a red sibling), so nothing advances until the
    # red branch is resolved; collapsing it releases one point.
    f = prune_fixture
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.root, params)
    emitted = []
    new_root, count = advance_root(f.root, emitted.append)
    assert count == 0 and new_root is f.root

    f.root.children = [f.b]
    f.b.zeta = np.array([0.5, 0.5])
    new_root, count = advance_root(f.root, emitted.append)
    assert count == 1
    assert new_root is f.b
    assert new_root.children == [f.b1]


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_circle_run_traverses_both_folds():
    params = make_params()
    result = run_continuation(circle_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    pts = np.array([p.z for p in result.accepted_points])
    assert len(pts) >= 10
    errors = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)
    assert errors.max() <= params.tol_residual
    assert all(p.residual_norm <= params.tol_residual for p in result.accepted_points)
    # lambda rises over the fold at (0, 1) and then falls: non-monotone
    lam = pts[:, 1]
    peak = int(np.argmax(lam))
    assert 0 < peak < len(lam) - 1
    assert lam[peak] > lam[0] and lam[peak] > lam[-1]
    # every accepted transition is a genuine positive step
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.min() > 0.0


def test_run_matches_serial_when_tree_is_degenerate():
    params = make_params(max_depth=1, max_children=1, scalings=(1.0,))
    tree = run_continuation(circle_problem(), params, Z0)
    serial = serial_pac(circle_problem(), params, Z0, step_growth=False)
    a = np.array([p.z for p in tree.accepted_points])
    b = np.array([p.z for p in serial.accepted_points])
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def test_run_is_deterministic_across_worker_counts():
    params = make_params()
    first = run_continuation(circle_problem(), params, Z0, n_workers=1)
    second = run_continuation(circle_problem(), params, Z0, n_workers=4)
    a = np.array([p.z for p in first.accepted_points])
    b = np.array([p.z for p in second.accepted_points])
    assert np.array_equal(a, b)
    assert first.rounds_executed == second.rounds_executed
    assert first.corrector_steps_total == second.corrector_steps_total


def test_immediate_step_underflow():
    params = make_params(h_min=1e-3, h_init=1e-4)
    result = run_continuation(circle_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.STEP_UNDERFLOW
    assert result.rounds_executed == 0
    assert len(result.accepted_points) == 1  # the starting point itself


def test_round_limit_reached_on_closed_curve():
    # The circle never leaves a window that contains it, so the round
    # limit is the only way out.
    params = make_params(lambda_min=-2.0, lambda_max=2.0, round_limit=30)
    result = run_continuation(circle_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.ITERATION_BUDGET
    assert result.rounds_executed == 30


def test_dead_state_breaks_early():
    # All scalings overshoot h_max, so nothing can ever be spawned.
    params = make_params(
        h_init=0.2, h_max=0.25, scalings=(1.5, 2.0, 3.0), round_limit=1000
    )
    result = run_continuation(circle_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.ITERATION_BUDGET
    assert result.rounds_executed < 5


def test_corrector_steps_total_counts_only_main_loop():
    problem = slow_problem()
    params = slow_params(round_limit=3)
    result = run_continuation(problem, params, np.zeros(2))
    assert result.termination_reason is TerminationReason.ITERATION_BUDGET
    # rounds step 3, then 12, then 12 nodes
    assert result.corrector_steps_total == 27
    assert result.rounds_executed == 3


def test_all_black_rounds_shrink_base_step_to_underflow():
    inner = circle_problem()

    def corrector(zeta, tangent, z_base, h):
        # The bootstrap probes along the exact parameter axis; tree steps
        # ride unit secants that always have an x component on the circle.
        # Refusing the latter makes every spawned node fail while leaving
        # the bootstrap intact.
        if tangent[0] != 0.0:
            raise CorrectorFailure("refused")
        return bordered_newton_step(inner, zeta, tangent, z_base, h)

    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=inner.residual,
        jacobian=inner.jacobian,
        corrector=corrector,
    )
    params = make_params()
    result = run_continuation(problem, params, Z0)
    assert result.termination_reason is TerminationReason.STEP_UNDERFLOW
    assert result.nodes_failed > 0
    assert len(result.accepted_points) == 1
    # base step shrinks by 0.9 * 0.75 / 2 per failed round, from 0.1
    # down through 1e-8: about 15 rounds
    assert 10 < result.rounds_executed < 25


def corrupting_problem() -> ProblemDefinition:
    """The unit circle, knocked off its own curve by its on_accept hook."""
    offset = [0.0]

    def residual(z):
        return np.array([z[0] ** 2 + z[1] ** 2 - 1.0 + offset[0]])

    def jacobian(z):
        return np.array([[2.0 * z[0], 2.0 * z[1]]])

    def corrupt(z):
        offset[0] = 1.0  # runs before re-verification

    return ProblemDefinition(
        n_dim=2, lambda_index=1, residual=residual, jacobian=jacobian,
        on_accept=corrupt,
    )


def test_emission_reverification_failure():
    params = make_params()
    result = run_continuation(corrupting_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.EVALUATION_FAILURE
    assert result.accepted_points == []


@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_sink_sees_only_verified_points(algorithm):
    seen = []
    result = algorithm(corrupting_problem(), make_params(), Z0, sink=seen.append)
    assert result.termination_reason is TerminationReason.EVALUATION_FAILURE
    assert seen == result.accepted_points == []


def test_correct_counts_steps_up_to_a_non_finite_residual():
    # The stepper lands every iterate where the residual is NaN, so the
    # first step completes and its residual check fails.
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([np.nan if z[0] > 5.0 else z[0] - z[1]]),
        corrector=lambda zeta, tangent, z_base, h: np.array([10.0, h]),
    )
    axis = np.array([0.0, 1.0])
    point, steps = correct(problem, np.zeros(2), axis, np.zeros(2), 0.1, make_params())
    assert point is None
    assert steps == 1
    with pytest.raises(BootstrapError):
        bootstrap(problem, make_params(), np.zeros(2))
