"""Bootstrap, spawning, corrector rounds, root advancement, main loop."""

import random
import sys
import threading
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctree import (
    BootstrapError,
    ContinuationResult,
    CorrectorFailure,
    ProblemDefinition,
    TerminationReason,
    circle_problem,
    data_path,
    natural_continuation,
    parse_parameters,
    read_initial_point,
    run_continuation,
    serial_pac,
)
from arctree import engine
from arctree import problem as problem_module
from arctree.engine import (
    WorkerPool,
    advance_root,
    bootstrap,
    correct,
    corrector_round,
    next_step,
    spawn_round,
    start_point,
    stop_reason,
)
from arctree.problem import bordered_newton_step, residual_norm
from arctree.tree import (
    Color,
    breadth_first,
    count_nodes,
    prune_tree,
    secant_direction,
    seed,
)
from conftest import make_node, make_params
from test_baselines import linear_problem

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


def start_record(problem, params, z0):
    """A fresh run's start record, its emitted point discarded."""
    return start_point(problem, params, z0, [], None)


def started_root(problem, params, z0):
    """A fresh run's root: the start record, turned by bootstrap."""
    return bootstrap(problem, params, start_record(problem, params, z0))


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
    accepted = []
    start = start_point(circle_problem(), params, Z0, accepted, None)
    z, r = start.zeta, start.residual_norm_current
    root = bootstrap(circle_problem(), params, start)
    assert root is start and len(accepted) == 1
    secant = np.array([np.sqrt(1 - 0.0025) - 1.0, 0.05])
    expected = secant / np.linalg.norm(secant)
    assert root.t_init == pytest.approx(expected, abs=1e-8)
    assert root.t_init[1] > 0
    # The root keeps the start's point, norm and colour; only its seed
    # direction and both steps change, to |h_init|.
    assert root.color is Color.GREEN
    assert root.zeta is z and root.z_init is z and np.array_equal(z, Z0)
    assert root.h_init == root.h_base == abs(params.h_init)
    assert root.nu == 0 and root.residual_norm_current == r


def test_start_point_is_a_green_record_on_the_parameter_axis():
    params = make_params(delta_lambda=0.05)
    initial = np.array([1.0 + 1e-12, 0.0])
    accepted = []
    start = start_point(circle_problem(), params, initial, accepted, None)
    assert start.color is Color.GREEN
    assert start.zeta is start.z_init
    assert start.zeta is not initial and accepted[0].z is not start.zeta
    assert np.array_equal(start.zeta, initial)
    initial[0] = 0.5
    assert start.zeta[0] == 1.0 + 1e-12
    assert np.array_equal(start.t_init, [0.0, 1.0])
    assert start.h_init == start.h_base == params.delta_lambda
    assert start.residual_norm_current == accepted[0].residual_norm > 0.0
    assert start.nu == 0 and start.children == []


def test_bootstrap_orientation_follows_step_sign():
    params = make_params(delta_lambda=0.05, h_init=-0.1)
    root = started_root(circle_problem(), params, Z0)
    assert root.t_init[1] < 0
    assert root.h_init == root.h_base == 0.1


def test_bootstrap_rejects_unconverged_start():
    # The start is emitted like any point, and one that fails is not.
    params = make_params()
    seen = []
    with pytest.raises(
        BootstrapError, match=r"^initial point: residual 2\.100e-01 exceeds"
    ):
        start_point(circle_problem(), params, np.array([1.1, 0.0]), seen, seen.append)
    assert seen == []


def test_bootstrap_rejects_a_degenerate_secant():
    # A parameter shift of 1e-15 moves the neighbor less than the secant
    # floor, so no direction can be taken from it.
    params = make_params(delta_lambda=1e-15)
    start = start_record(circle_problem(), params, Z0)
    with pytest.raises(BootstrapError, match="bootstrap secant is degenerate"):
        bootstrap(circle_problem(), params, start)


def test_bootstrap_reports_neighbor_failure():
    # One iteration cannot reach 1e-10 from a 0.3 parameter shift.
    params = make_params(delta_lambda=0.3, max_iter=1)
    start = start_record(circle_problem(), params, Z0)
    with pytest.raises(BootstrapError, match="neighbor point did not converge"):
        bootstrap(circle_problem(), params, start)


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------


def test_spawn_round_seeds_children_in_scaling_order():
    problem = slow_problem()
    params = slow_params()
    root = started_root(problem, params, np.zeros(2))
    spawned = spawn_round(root, params)
    assert spawned == 3
    steps = [child.h_init for child in root.children]
    assert steps == sorted(steps)
    assert steps == pytest.approx([0.075, 0.1, 0.2])
    for child in root.children:
        assert child.color is Color.RED
        assert child.nu == 0
        assert child.nu_init == root.nu
        # F at the predictor is evaluated in the child's first round.
        assert child.residual is None
        assert child.residual_norm_current == np.inf
        assert child.z_init == pytest.approx(root.zeta)


def test_spawn_round_respects_budget():
    # The root's first two scalings fill a budget of 2; a tree whose
    # unfinished nodes already fill the budget spawns nothing.
    problem = slow_problem()
    params = slow_params(worker_budget=2)
    root = started_root(problem, params, np.zeros(2))
    assert spawn_round(root, params) == 2
    assert len(root.children) == 2
    assert spawn_round(root, params) == 0
    assert len(root.children) == 2


def test_spawn_round_skips_steps_above_h_max():
    problem = slow_problem()
    params = slow_params(h_init=0.2, h_max=0.25)  # scaling 2 gives 0.4
    root = started_root(problem, params, np.zeros(2))
    assert spawn_round(root, params) == 2
    assert [c.h_init for c in root.children] == pytest.approx([0.15, 0.2])


def test_spawn_round_respects_depth_cap():
    problem = slow_problem()
    params = slow_params(max_depth=1)
    root = started_root(problem, params, np.zeros(2))
    spawn_round(root, params)
    corrector_round(root, problem, params, WorkerPool(1))
    assert spawn_round(root, params) == 0


def test_tree_growth_matches_budget_12_shape():
    # Budget 12 with three scalings: 3 children in the first round, 9
    # more in the second (13 nodes total), then no room until something
    # is retired.
    problem = slow_problem()
    params = slow_params()
    root = started_root(problem, params, np.zeros(2))
    pool = WorkerPool(1)

    active = lambda: sum(
        1 for n, _ in breadth_first(root) if n.color in (Color.RED, Color.YELLOW)
    )
    assert spawn_round(root, params) == 3
    assert active() == 3
    corrector_round(root, problem, params, pool)

    assert spawn_round(root, params) == 9
    assert count_nodes(root) == 13
    assert active() == params.worker_budget
    corrector_round(root, problem, params, pool)

    assert spawn_round(root, params) == 0
    assert count_nodes(root) == 13


# ---------------------------------------------------------------------------
# Corrector rounds
# ---------------------------------------------------------------------------


def test_corrector_round_steps_only_unfinished_nodes():
    problem = slow_problem()
    params = slow_params()
    root = started_root(problem, params, np.zeros(2))
    spawn_round(root, params)
    green_zeta = root.zeta.copy()
    stepped = corrector_round(root, problem, params, WorkerPool(1))
    assert stepped == 3
    assert root.zeta == pytest.approx(green_zeta)  # GREEN never iterates
    assert root.nu == 0
    for child in root.children:
        assert child.nu == 1
        assert child.color is Color.RED
        assert np.isfinite(child.residual_norm_previous)
        assert child.residual_norm_current == pytest.approx(
            0.4 * child.residual_norm_previous
        )


def refusing_problem() -> ProblemDefinition:
    """A finite residual and a corrector that always raises CorrectorFailure."""

    def corrector(zeta, tangent, z_base, h):
        raise CorrectorFailure("no progress")

    return ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        corrector=corrector,
    )


def landing_in_nan() -> ProblemDefinition:
    """A corrector that lands every iterate at x = 10, where F is NaN."""
    return ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([np.nan if z[0] > 5.0 else z[0] - z[1]]),
        corrector=lambda zeta, tangent, z_base, h: np.array([10.0, h]),
    )


def test_corrector_round_blackens_failed_steps():
    problem = refusing_problem()
    params = make_params()
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    child = make_node(Color.RED, nu=0, h_init=0.1, residual=0.5)
    root.children = [child]
    corrector_round(root, problem, params, WorkerPool(1))
    assert child.color is Color.BLACK


def test_step_counts_every_corrector_call():
    # nu grows with each call, a failed one included; a node whose
    # predictor residual is non-finite makes none.
    axis = np.array([0.0, 1.0])
    refused = seed(np.zeros(2), axis, 0.1)
    assert engine.step(refusing_problem(), refused) is False
    assert refused.nu == 1
    landed = seed(np.zeros(2), axis, 0.1)
    assert engine.step(landing_in_nan(), landed) is False
    assert landed.nu == 1 and landed.zeta.tolist() == [0.0, 0.1]
    hole = seed(np.zeros(2), axis, 0.2)
    assert engine.step(nan_beyond_problem(), hole) is False
    assert hole.nu == 0 and hole.residual_norm_current == np.inf
    stepped = seed(np.zeros(2), axis, 0.1)
    assert engine.step(slow_problem(), stepped) is True
    assert stepped.nu == 1


def test_a_raising_corrector_costs_one_step_in_correct_and_in_a_round():
    # One count rule: a step counts once the corrector has been called.
    problem = refusing_problem()
    params = make_params()
    axis = np.array([0.0, 1.0])
    point, steps = correct(problem, np.zeros(2), axis, 0.1, params)
    assert point is None
    assert steps == 1
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    root.children = [make_node(Color.RED, nu=0, h_init=0.1)]
    assert corrector_round(root, problem, params, WorkerPool(1)) == 1


def nan_beyond_problem() -> ProblemDefinition:
    """slow_problem, with a NaN residual for lambda above 0.15."""
    inner = slow_problem()

    def residual(z):
        return np.array([np.nan if z[1] > 0.15 else z[0] - z[1] ** 2])

    return replace(inner, residual=residual)


def test_non_finite_predictor_blackens_only_its_child():
    # Scalings 0.75, 1 and 2 of h 0.1 put the predictors at lambda 0.075,
    # 0.1 and 0.2; only the last lies where the residual is NaN.
    problem = nan_beyond_problem()
    params = slow_params()
    root = started_root(problem, params, np.zeros(2))
    spawn_round(root, params)
    assert corrector_round(root, problem, params, WorkerPool(1)) == 2
    first, second, largest = root.children
    assert largest.color is Color.BLACK
    assert largest.nu == 0 and largest.residual_norm_current == np.inf
    for child in (first, second):
        assert child.color is Color.RED and child.nu == 1
        assert np.isfinite(child.residual_norm_previous)

    result = run_continuation(problem, replace(params, round_limit=1), np.zeros(2))
    assert result.rounds_executed == 1
    assert result.corrector_steps_total == 2
    assert result.failures == 1


def test_a_stale_residual_is_re_evaluated_into_the_norm_mu_compares():
    # A node that carries no residual, as a fresh one does, has F
    # evaluated at its iterate before it steps.  Here the residual changes
    # and the carried one is dropped by hand, so the next step's mu test
    # must compare against the norm under the changed residual, not the
    # one carried from before.
    offset = [0.0]
    inner = slow_problem()
    problem = replace(inner, residual=lambda z: inner.residual(z) + offset[0])
    params = slow_params(worker_budget=1)
    root = started_root(problem, params, np.zeros(2))
    spawn_round(root, params)
    corrector_round(root, problem, params, WorkerPool(1))
    (child,) = root.children
    assert child.nu == 1 and child.color is Color.RED
    carried_norm = child.residual_norm_current
    offset[0] = 0.01
    child.residual = None
    pre_step = child.zeta.copy()
    assert corrector_round(root, problem, params, WorkerPool(1)) == 1
    assert child.nu == 2
    fresh_norm = residual_norm(problem, pre_step)
    assert fresh_norm != pytest.approx(carried_norm)
    assert child.residual_norm_previous == fresh_norm


@pytest.mark.parametrize("n_tasks", [0, 1, 2, 5, 13])
@pytest.mark.parametrize("n_workers", [1, 2, 3, 12])
def test_worker_pool_returns_results_in_task_order(n_workers, n_tasks):
    served_by = {}

    def fn(i, scale):
        served_by[i] = threading.get_ident()
        return i * scale

    tasks = [(i, 10) for i in range(n_tasks)]
    with WorkerPool(n_workers) as pool:
        results = pool.map(fn, tasks)
    assert results == [i * 10 for i in range(n_tasks)]
    assert len(set(served_by.values())) <= n_workers


def test_worker_pool_lets_other_threads_take_the_tasks_a_blocked_one_leaves():
    # Task 1 waits for task 2.  Had one thread been handed both, task 1
    # would wait out its timeout and return False.
    released = threading.Event()

    def fn(i):
        if i == 2:
            released.set()
        return released.wait(timeout=2.0) if i == 1 else True

    with WorkerPool(2) as pool:
        assert pool.map(fn, [(i,) for i in range(3)]) == [True, True, True]


def test_worker_pool_runs_each_task_once_under_frequent_thread_switches():
    # More threads than cores, switching every microsecond: an index
    # handed out twice or lost shows up in runs or in the results.
    n_tasks = 3000
    runs = []

    def fn(i):
        runs.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(8) as pool:
            results = pool.map(fn, [(i,) for i in range(n_tasks)])
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(n_tasks))
    assert results == [i * i for i in range(n_tasks)]


@pytest.mark.parametrize("n_workers", [2, 3])
def test_worker_pool_propagates_other_errors_from_a_helper(n_workers):
    # The raising task is the last one, or one of the first a thread
    # pulls.  The thread that runs it stops; the others run every task
    # left, so the error propagates only after every other task has run.
    # The pool catches step failures no more than contract errors.
    n_tasks = 5
    for failing in (n_tasks - 1, n_tasks // n_workers - 1):
        for error in (ValueError("contract error"), CorrectorFailure("no step")):
            served = set()

            def fn(i):
                served.add(i)
                if i == failing:
                    raise error
                return i

            with WorkerPool(n_workers) as pool:
                with pytest.raises(type(error), match=str(error)):
                    pool.map(fn, [(i,) for i in range(n_tasks)])
            assert served == set(range(n_tasks))


# ---------------------------------------------------------------------------
# Turns: on several workers, one step's Python half runs at a time
# ---------------------------------------------------------------------------


class Overlap:
    """Wraps fn, sleeping pause seconds first; most counts the calls seen
    running at once.  The sleep lets the GIL go, as a long numpy or
    LAPACK call does."""

    def __init__(self, fn, pause: float):
        self.fn, self.pause = fn, pause
        self.running = self.most = 0
        self._lock = threading.Lock()

    def __call__(self, *args):
        with self._lock:
            self.running += 1
            self.most = max(self.most, self.running)
        try:
            time.sleep(self.pause)
            return self.fn(*args)
        finally:
            with self._lock:
                self.running -= 1


def sleepy_circle_run(n_workers: int) -> tuple[Overlap, tuple[int, int, int]]:
    """The packaged circle, its Jacobian sleeping 0.5 ms: the probe and
    the run's points, rounds and steps."""
    inner = circle_problem()
    jacobian = Overlap(inner.jacobian, 0.5e-3)
    params = parse_parameters(data_path("circle.params"))
    z0 = read_initial_point(data_path("circle_start.txt"))
    result = run_continuation(
        replace(inner, jacobian=jacobian), params, z0, n_workers=n_workers
    )
    counts = (
        len(result.accepted_points),
        result.rounds_executed,
        result.corrector_steps_total,
    )
    return jacobian, counts


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_one_jacobian_runs_at_a_time_on_any_worker_count(n_workers):
    jacobian, counts = sleepy_circle_run(n_workers)
    assert jacobian.most == 1
    assert counts == (24, 36, 149)


def test_factorizations_overlap_on_two_workers(monkeypatch):
    # The turn is let go while LAPACK factors, so a second task steps
    # up to its own factorization meanwhile.
    lu = Overlap(problem_module.lu_factor, 2e-3)
    monkeypatch.setattr(problem_module, "lu_factor", lu)
    jacobian, counts = sleepy_circle_run(2)
    assert (jacobian.most, lu.most) == (1, 2)
    assert counts == (24, 36, 149)


LockType = type(threading.Lock())


def spy_on_turns(monkeypatch) -> list:
    """Wrap engine.step: each call appends (turn, whether it was held)."""
    turns = []
    step = engine.step

    def spy(problem, node, turn=None):
        turns.append((turn, turn is not None and turn.locked()))
        return step(problem, node, turn)

    monkeypatch.setattr(engine, "step", spy)
    return turns


def assert_one_held_turn(turns, n_tasks):
    """Every one of n_tasks steps was handed the round's one lock, held,
    and the round let it go."""
    turn = turns[0][0]
    assert len(turns) == n_tasks and isinstance(turn, LockType)
    assert all(t is turn and held for t, held in turns)
    assert not turn.locked()


def test_custom_corrector_steps_never_overlap_on_two_workers(monkeypatch):
    # A custom corrector has no factorization to let the turn go around,
    # so it holds it for its whole step, though its sleep lets the GIL go.
    turns = spy_on_turns(monkeypatch)
    inner = slow_problem()
    corrector = Overlap(inner.corrector, 2e-3)
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    steps = (0.1, 0.2, 0.3, 0.4)
    root.children = [make_node(Color.RED, nu=0, h_init=h) for h in steps]
    problem = replace(inner, corrector=corrector)
    with WorkerPool(2) as pool:
        assert corrector_round(root, problem, make_params(), pool) == 4
    assert corrector.most == 1
    assert_one_held_turn(turns, 4)


@pytest.mark.parametrize("make_problem", [circle_problem, slow_problem])
def test_a_one_worker_round_hands_step_a_held_turn(monkeypatch, make_problem):
    # One task rule for any worker count and any stepper.
    turns = spy_on_turns(monkeypatch)
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    start, axis = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    root.children = [seed(start, axis, h) for h in (0.1, 0.2, 0.3)]
    with WorkerPool(1) as pool:
        assert corrector_round(root, make_problem(), make_params(), pool) == 3
    assert_one_held_turn(turns, 3)


def test_an_error_in_a_step_lets_the_turn_go(monkeypatch):
    inner = circle_problem()
    turns = spy_on_turns(monkeypatch)
    refuse = [True]

    def jacobian(z):
        if refuse[0] and z[1] == 0.2:
            raise ValueError("jacobian refused")
        return inner.jacobian(z)

    problem = replace(inner, jacobian=jacobian)
    params = make_params()
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    start, axis = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    root.children = [seed(start, axis, h) for h in (0.1, 0.2, 0.3)]
    with WorkerPool(3) as pool:
        with pytest.raises(ValueError, match="jacobian refused"):
            corrector_round(root, problem, params, pool)
        # Every task stepped under the round's one turn, which the error
        # did not leave held.
        assert_one_held_turn(turns, len(turns))
        turn = turns[0][0]
        turns.clear()
        refuse[0] = False
        assert corrector_round(root, problem, params, pool) == 3
    assert_one_held_turn(turns, 3)
    assert turns[0][0] is not turn


def test_worker_count_below_one_is_rejected():
    with pytest.raises(ValueError, match="n_workers"):
        WorkerPool(0)
    with pytest.raises(ValueError, match="n_workers"):
        run_continuation(circle_problem(), make_params(), Z0, n_workers=0)


# ---------------------------------------------------------------------------
# Step control
# ---------------------------------------------------------------------------


def test_next_step_doubles_fast_successes_up_to_h_max():
    params = make_params(max_iter=5, h_max=0.25)  # target 4 steps
    assert next_step(0.05, 1, params) == 0.1
    assert next_step(0.05, 2, params) == 0.1
    assert next_step(-0.05, 2, params) == 0.1  # a magnitude, like h_base
    assert next_step(0.2, 1, params) == 0.25


def test_next_step_holds_at_the_target_and_at_most_halves():
    params = make_params(max_iter=5)
    assert next_step(0.1, 4, params) == 0.1
    assert next_step(0.1, 5, params) == pytest.approx(0.08)
    assert next_step(0.1, 8, params) == 0.05
    assert next_step(0.1, 20, params) == 0.05


def test_next_step_target_is_at_least_one_step():
    # At MAX_ITER 1 every success takes one step, so the step holds.
    params = make_params(max_iter=1)
    assert next_step(0.1, 1, params) == 0.1


# ---------------------------------------------------------------------------
# Root advancement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu,h_base", [(1, 0.2), (4, 0.075)])
def test_advance_root_sets_the_new_base_step_by_next_step(nu, h_base):
    params = make_params(h_max=0.25, max_iter=4)  # target 3 steps
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    child = make_node(Color.GREEN, nu=nu, h_init=0.1, residual=0.0)
    root.children = [child]
    new_root, count = advance_root(root, [].append, params)
    assert count == 1 and new_root is child
    assert new_root.h_base == pytest.approx(h_base)


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
    new_root, count = advance_root(root, emitted.append, make_params())
    assert count == 1
    assert new_root is mid
    # the point emitted is the one the root moves onto; emit_point, not
    # advance_root, records a copy of it
    assert [z[1] for z in emitted] == [0.1]
    assert emitted[0] is mid.zeta
    # the new root seeds along the secant that produced it
    secant = mid.zeta - mid.z_init
    assert secant_direction(new_root) == pytest.approx(
        secant / np.linalg.norm(secant)
    )
    # a YELLOW child stops the walk
    assert new_root.children == [tip]


def test_advance_root_requires_exactly_one_child():
    root = make_node(Color.GREEN, nu=0, h_init=0.1, residual=0.0)
    a = make_node(Color.GREEN, nu=1, h_init=0.1, residual=0.0)
    b = make_node(Color.RED, nu=1, h_init=0.1, residual=0.5)
    a.zeta = np.array([1.0, 1.0])
    root.children = [a, b]
    emitted = []
    new_root, count = advance_root(root, emitted.append, make_params())
    assert count == 0 and new_root is root and emitted == []


def test_advance_root_after_walkthrough_prune(prune_fixture):
    # After pruning, the surviving root still has two children (the
    # confirmed chain plus a red sibling), so nothing advances until the
    # red branch is resolved; collapsing it releases one point.
    f = prune_fixture
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.root, params)
    emitted = []
    new_root, count = advance_root(f.root, emitted.append, params)
    assert count == 0 and new_root is f.root

    f.root.children = [f.b]
    f.b.zeta = np.array([0.5, 0.5])
    new_root, count = advance_root(f.root, emitted.append, params)
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


def test_run_is_deterministic_across_worker_counts():
    params = make_params()
    first = run_continuation(circle_problem(), params, Z0, n_workers=1)
    second = run_continuation(circle_problem(), params, Z0, n_workers=4)
    a = np.array([p.z for p in first.accepted_points])
    b = np.array([p.z for p in second.accepted_points])
    assert np.array_equal(a, b)
    assert first.rounds_executed == second.rounds_executed
    assert first.corrector_steps_total == second.corrector_steps_total


def test_dot_dir_alone_writes_one_snapshot_per_round(tmp_path):
    params = make_params()
    assert params.verbose == 0
    result = run_continuation(circle_problem(), params, Z0, dot_dir=tmp_path)
    assert result.rounds_executed > 0
    snapshots = {p.name for p in tmp_path.glob("tree_*.dot")}
    assert snapshots == {
        f"tree_{k}.dot" for k in range(1, result.rounds_executed + 1)
    }


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


def test_stop_reason_order():
    problem, params = circle_problem(), make_params(round_limit=5)
    inside, outside = np.array([0.0, 1.0]), np.array([0.0, 1.5])
    assert stop_reason(problem, params, inside, 0.1, 4) is None
    # the window wins over the step floor, which wins over the budget
    for z, h, count, reason in [
        (outside, 1e-9, 5, TerminationReason.REACHED_LAMBDA_MAX),
        (inside, -1e-9, 5, TerminationReason.STEP_UNDERFLOW),
        (inside, -0.1, 5, TerminationReason.ITERATION_BUDGET),
    ]:
        assert stop_reason(problem, params, z, h, count) is reason


def _run_counted(algorithm, problem, params, z0):
    """Run one algorithm; also return the rounds or attempts it used."""
    result = algorithm(problem, params, z0)
    if algorithm is run_continuation:
        return result, result.rounds_executed
    used = len(result.accepted_points) - 1 + result.failures
    return result, used


@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_window_wins_when_the_round_limit_runs_out_on_the_exit(algorithm):
    if algorithm is natural_continuation:
        # natural continuation cannot leave the circle's window
        problem = linear_problem()
        params = make_params(delta_lambda=0.25, lambda_max=1.0)
        z0 = np.zeros(2)
    else:
        problem = circle_problem()
        params = parse_parameters(data_path("circle.params"))
        z0 = read_initial_point(data_path("circle_start.txt"))
    free, used = _run_counted(algorithm, problem, params, z0)
    assert free.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    # the last round or attempt allowed is the one that leaves the window
    edge, _ = _run_counted(
        algorithm, problem, replace(params, round_limit=used), z0
    )
    assert edge.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert np.array_equal(
        [p.z for p in edge.accepted_points], [p.z for p in free.accepted_points]
    )
    short, _ = _run_counted(
        algorithm, problem, replace(params, round_limit=used - 1), z0
    )
    assert short.termination_reason is TerminationReason.ITERATION_BUDGET


@st.composite
def circle_tree_runs(draw):
    """Valid circle params with a round limit of 100, and a failure seed."""
    n_children = draw(st.integers(min_value=1, max_value=3))
    scalings = [draw(st.floats(min_value=0.1, max_value=1.0))] + draw(
        st.lists(
            st.floats(min_value=0.1, max_value=3.0),
            min_size=n_children - 1,
            max_size=n_children - 1,
        )
    )
    h_max = draw(st.floats(min_value=0.05, max_value=1.0))
    params = make_params(
        h_max=h_max,
        h_init=h_max * draw(st.floats(min_value=0.01, max_value=1.0)),
        max_depth=draw(st.integers(min_value=1, max_value=3)),
        max_children=n_children,
        scalings=tuple(draw(st.permutations(scalings))),
        worker_budget=draw(st.integers(min_value=1, max_value=12)),
        round_limit=100,
    )
    failure_rate = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    return params, failure_rate, draw(st.integers(min_value=0, max_value=2**32))


@settings(max_examples=100, deadline=None)
@given(circle_tree_runs())
def test_every_round_spawns_steps_or_emits(case):
    # With a scaling of at most 1 some child always fits under h_max, so
    # the loop needs no stop of its own for a round that does nothing.
    params, failure_rate, seed_value = case
    inner = circle_problem()
    rng = random.Random(seed_value)

    def corrector(zeta, tangent, z_base, h):
        # The bootstrap's probe rides the exact parameter axis; spare it.
        if tangent[0] != 0.0 and rng.random() < failure_rate:
            raise CorrectorFailure("refused at random")
        return bordered_newton_step(inner, zeta, tangent, z_base, h, inner.residual(zeta))

    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=inner.residual,
        jacobian=inner.jacobian,
        corrector=corrector,
    )
    rounds = []

    def spawn(*args):
        spawned = spawn_round(*args)
        rounds.append([spawned])
        return spawned

    def correct_all(*args):
        steps = corrector_round(*args)
        rounds[-1].append(steps)
        return steps

    def advance(*args):
        root, emitted = advance_root(*args)
        rounds[-1].append(emitted)
        return root, emitted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "spawn_round", spawn)
        mp.setattr(engine, "corrector_round", correct_all)
        mp.setattr(engine, "advance_root", advance)
        result = run_continuation(problem, params, Z0)
    assert len(rounds) == result.rounds_executed <= 100
    assert all(len(r) == 3 and any(r) for r in rounds), rounds


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
        return bordered_newton_step(inner, zeta, tangent, z_base, h, inner.residual(zeta))

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
    assert result.failures > 0
    assert len(result.accepted_points) == 1
    # base step shrinks by 0.9 * 0.75 / 2 per failed round, from 0.1
    # down through 1e-8: about 15 rounds
    assert 10 < result.rounds_executed < 25


def test_a_stalling_corrector_ends_in_step_underflow():
    inner = circle_problem()

    def corrector(zeta, tangent, z_base, h):
        # Above lambda 0.5 the step stops improving at residual 1e-6, whose
        # square is within tolerance: every node there stays YELLOW until
        # the iteration cap fails it.
        out = bordered_newton_step(inner, zeta, tangent, z_base, h, inner.residual(zeta))
        if out[1] > 0.5 and abs(out @ out - 1.0) < 1e-6:
            out *= np.sqrt((1.0 + 1e-6) / (out @ out))
        return out

    problem = replace(inner, jacobian=None, corrector=corrector)
    result = run_continuation(problem, make_params(round_limit=2000), Z0)
    assert result.termination_reason is TerminationReason.STEP_UNDERFLOW
    assert result.rounds_executed < 2000
    assert all(p.z[1] <= 0.5 for p in result.accepted_points)


def corrupting_problem() -> ProblemDefinition:
    """An anchored unit circle that fails every re-verification but the first.

    A point is re-verified as its own base (z_base equal to z).  The first
    such evaluation is the start point's; every later one is knocked off
    the curve, so the start is accepted and the next point emitted fails.
    """
    checks = []

    def residual(z, z_base):
        out = np.array([z[0] ** 2 + z[1] ** 2 - 1.0])
        if np.array_equal(z, z_base):
            checks.append(z)
            if len(checks) > 1:
                out += 1.0
        return out

    def jacobian(z, z_base):
        return np.array([[2.0 * z[0], 2.0 * z[1]]])

    return ProblemDefinition(
        n_dim=2, lambda_index=1, residual=residual, jacobian=jacobian,
        anchored=True,
    )


def test_emission_reverification_failure():
    params = make_params()
    result = run_continuation(corrupting_problem(), params, Z0)
    assert result.termination_reason is TerminationReason.EVALUATION_FAILURE
    assert [p.z.tolist() for p in result.accepted_points] == [Z0.tolist()]


@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_sink_sees_only_verified_points(algorithm):
    seen = []
    result = algorithm(corrupting_problem(), make_params(), Z0, sink=seen.append)
    assert isinstance(result, ContinuationResult)
    assert (result.rounds_executed is None) == (algorithm is not run_continuation)
    assert result.termination_reason is TerminationReason.EVALUATION_FAILURE
    assert seen == result.accepted_points
    assert [p.z.tolist() for p in seen] == [Z0.tolist()]


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_a_sink_that_moves_a_point_cannot_move_the_run(algorithm, index):
    # The sink is handed the recorded point; the run continues from an
    # array of its own, so every later point is exactly as without it.
    seen = []

    def nudge(point):
        if len(seen) == index:
            point.z[0] += 1e-3
        seen.append(point)

    clean = algorithm(circle_problem(), make_params(), Z0)
    nudged = algorithm(circle_problem(), make_params(), Z0, sink=nudge)
    assert nudged.accepted_points == seen
    assert seen[index].z[0] == clean.accepted_points[index].z[0] + 1e-3
    later = [p.z.tolist() for p in clean.accepted_points[index + 1 :]]
    assert len(later) > 1
    assert [p.z.tolist() for p in seen[index + 1 :]] == later


def counting_circle():
    inner = circle_problem()
    calls = []

    def residual(z):
        calls.append(1)
        return inner.residual(z)

    problem = ProblemDefinition(
        n_dim=2, lambda_index=1, residual=residual, jacobian=inner.jacobian
    )
    return problem, calls


@pytest.mark.parametrize(
    "algorithm,expected",
    [
        # 3 in bootstrap + 77 predictors (in their first round) + 149 steps
        # + 24 emissions, the start's included
        (run_continuation, 253),
        (serial_pac, 99),
    ],
)
def test_one_residual_per_corrector_step(algorithm, expected):
    problem, calls = counting_circle()
    params = parse_parameters(data_path("circle.params"))
    z0 = read_initial_point(data_path("circle_start.txt"))
    result = algorithm(problem, params, z0)
    assert result.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert len(calls) == expected


@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_the_start_residual_is_evaluated_once(algorithm):
    # The start is checked once, by its emission; bootstrap only steps
    # away from it.
    inner = circle_problem()
    at_start = []

    def residual(z):
        at_start.append(np.array_equal(z, Z0))
        return inner.residual(z)

    result = algorithm(replace(inner, residual=residual), make_params(), Z0)
    assert len(result.accepted_points) > 2
    assert sum(at_start) == 1


@pytest.mark.parametrize("algorithm", [run_continuation, serial_pac])
def test_a_failed_bootstrap_has_emitted_exactly_its_start(algorithm):
    # The start (0, 0) solves x = 0, but every corrector step is refused,
    # so the neighbor point cannot converge.
    seen = []
    with pytest.raises(BootstrapError, match="neighbor point did not converge"):
        algorithm(refusing_problem(), make_params(), np.zeros(2), sink=seen.append)
    assert [(p.z.tolist(), p.residual_norm) for p in seen] == [([0.0, 0.0], 0.0)]


def nan_holed_circle(seed: int, rate: float) -> ProblemDefinition:
    """The unit circle, its residual NaN at a pseudo-random share of points.

    Whether z is a hole depends only on its bytes (zlib.crc32, not the
    salted hash) and the seed, so every run on it repeats exactly.
    """
    inner = circle_problem()

    def residual(z):
        if zlib.crc32(z.tobytes(), seed) < rate * 2**32:
            return np.array([np.nan])
        return inner.residual(z)

    return replace(inner, residual=residual)


@pytest.mark.parametrize(
    "problem,start,key",
    [
        (replace(circle_problem(), lambda_index=0), Z0, "LAMBDA_INDEX"),
        (replace(circle_problem(), n_dim=3), Z0, "N_DIM"),
        (circle_problem(), np.zeros(3), "N_DIM"),
    ],
    ids=["problem-lambda-index", "problem-n-dim", "start-length"],
)
@pytest.mark.parametrize(
    "algorithm", [run_continuation, serial_pac, natural_continuation]
)
def test_inputs_that_contradict_the_parameters_are_refused(
    algorithm, problem, start, key
):
    # The CLI refuses these as usage errors; a library run refuses them
    # too, before its sink sees anything.
    seen = []
    with pytest.raises(ValueError, match=key):
        algorithm(problem, make_params(), start, sink=seen.append)
    assert seen == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rate=st.floats(0.0, 0.3),
    algorithm=st.sampled_from([run_continuation, serial_pac, natural_continuation]),
)
def test_nan_holes_end_a_run_with_only_verified_points(seed, rate, algorithm):
    # Starts that are holes, neighbors that cannot converge, round limits
    # and exits from the window all occur.
    params = make_params(round_limit=40)
    seen = []
    try:
        result = algorithm(nan_holed_circle(seed, rate), params, Z0, sink=seen.append)
    except BootstrapError:
        assert len(seen) <= 1
    else:
        assert isinstance(result.termination_reason, TerminationReason)
        assert seen == result.accepted_points
    pts = np.array([p.z for p in seen]).reshape(-1, 2)
    assert np.all(np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0) <= params.tol_residual)


def test_correct_counts_steps_up_to_a_non_finite_residual():
    # The first step completes and its residual check fails.
    problem = landing_in_nan()
    axis = np.array([0.0, 1.0])
    point, steps = correct(problem, np.zeros(2), axis, 0.1, make_params())
    assert point is None
    assert steps == 1
    with pytest.raises(BootstrapError):
        started_root(problem, make_params(), np.zeros(2))
