"""Parallel adaptive continuation driver.

The engine traces a solution curve by maintaining a rooted tree of
speculative corrector sequences.  The root is the most recent accepted
point.  Each round it seeds predictor children at every leaf (within the
worker budget and depth cap), applies one corrector iteration to every
unfinished node concurrently, recolors, prunes, and advances the root
down a confirmed chain of converged points, streaming them to a sink.

Results are deterministic: corrector tasks are pure, results are keyed
by node and applied in a fixed traversal order, so the number of threads
physically serving the worker budget changes wall time only.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .fileio import export_dot
from .params import RunParams
from .problem import (
    Array,
    CorrectorFailure,
    CurvePoint,
    EvaluationError,
    ProblemDefinition,
    corrector_step,
    evaluate_residual,
    residual_norm,
)
from .tree import (
    Color,
    DegenerateSecantError,
    TreeNode,
    assign_color,
    breadth_first_leaves,
    iter_nodes,
    node_depths,
    prune_tree,
    secant_direction,
)


class TerminationReason(Enum):
    REACHED_LAMBDA_MAX = "REACHED_LAMBDA_MAX"
    STEP_UNDERFLOW = "STEP_UNDERFLOW"
    ITERATION_BUDGET = "ITERATION_BUDGET"
    EVALUATION_FAILURE = "EVALUATION_FAILURE"


class BootstrapError(RuntimeError):
    """The run could not produce a starting point and direction."""


@dataclass
class ContinuationResult:
    accepted_points: list[CurvePoint]
    termination_reason: TerminationReason
    rounds_executed: int
    corrector_steps_total: int
    nodes_failed: int = 0


class EmissionError(EvaluationError):
    """An accepted point failed re-verification at emission."""


Sink = Callable[[CurvePoint], None]


class WorkerPool:
    """Maps pure corrector tasks over worker threads.

    Outcomes are returned in task order as (ok, payload) pairs, where a
    failed task carries its step-failure exception.  n_workers == 1 runs
    inline.  Thread count never affects the payloads, only wall time.
    """

    def __init__(self, n_workers: int = 1):
        self.n_workers = max(1, int(n_workers))
        self._executor: ThreadPoolExecutor | None = None

    def __enter__(self) -> "WorkerPool":
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def map(self, fn, tasks):
        def call(task):
            try:
                return True, fn(*task)
            except (CorrectorFailure, EvaluationError) as exc:
                return False, exc

        if self._executor is None or len(tasks) <= 1:
            return [call(task) for task in tasks]
        return list(self._executor.map(call, tasks))


def start_point(
    problem: ProblemDefinition, params: RunParams, initial_point: Array
) -> CurvePoint:
    """Check that the initial point satisfies the residual tolerance.

    A residual above tolerance or with non-finite entries raises
    BootstrapError.
    """
    z0 = np.array(initial_point, dtype=float)
    try:
        r0 = residual_norm(problem, z0)
    except EvaluationError as exc:
        raise BootstrapError(f"initial point: {exc}") from exc
    if r0 > params.tol_residual:
        raise BootstrapError(
            f"initial point residual {r0:.3e} exceeds tolerance "
            f"{params.tol_residual:.3e}"
        )
    return CurvePoint(z0, r0)


def correct(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
    params: RunParams,
) -> tuple[CurvePoint | None, int]:
    """Iterate the corrector from zeta until the residual meets tolerance.

    Returns the converged point, or None when max_iter steps do not
    converge or a step or residual evaluation fails, together with the
    number of corrector steps completed.
    """
    steps = 0
    try:
        for _ in range(params.max_iter):
            zeta = corrector_step(problem, zeta, tangent, z_base, h)
            steps += 1
            r = residual_norm(problem, zeta)
            if r <= params.tol_residual:
                return CurvePoint(zeta, r), steps
    except (CorrectorFailure, EvaluationError):
        pass
    return None, steps


def emit_point(
    problem: ProblemDefinition,
    params: RunParams,
    point: CurvePoint,
    accepted: list[CurvePoint],
    sink: Sink | None,
) -> None:
    """Accept a point: refresh the problem, re-verify, then record it.

    The problem's on_accept hook runs first, so the residual is checked
    against the refreshed problem; a point that fails raises an
    EvaluationError (EmissionError when the residual is finite but above
    tolerance) and is neither recorded nor passed to the sink.
    """
    if problem.on_accept is not None:
        problem.on_accept(point.z)
    r = residual_norm(problem, point.z)
    if r > params.tol_residual:
        raise EmissionError(
            f"accepted point failed re-verification: residual {r:.3e}"
        )
    verified = CurvePoint(point.z, r)
    accepted.append(verified)
    if sink is not None:
        sink(verified)


def bootstrap(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
) -> tuple[CurvePoint, Array]:
    """Produce the starting point and unit traversal direction.

    The initial point must already satisfy the residual tolerance.  A
    neighbor point is computed by corrector iterations constrained to the
    hyperplane where the continuation parameter is shifted by
    delta_lambda (the corrector direction is the parameter axis, which
    reduces to a Newton solve in the state variables).  The unit secant
    between the two points is returned oriented so the parameter
    component is positive when h_init is positive and negative otherwise.
    """
    point0 = start_point(problem, params, initial_point)
    z0 = point0.z
    axis = np.zeros(problem.n_dim)
    axis[problem.lambda_index] = 1.0
    zeta = z0 + params.delta_lambda * axis
    neighbor, _ = correct(problem, zeta, axis, z0, params.delta_lambda, params)
    if neighbor is None:
        raise BootstrapError(
            "neighbor point did not converge within MAX_ITER iterations"
        )
    secant = neighbor.z - z0
    norm = float(np.linalg.norm(secant))
    if norm < 1e-14:
        raise BootstrapError("bootstrap secant is degenerate")
    direction = secant / norm
    if (direction[problem.lambda_index] > 0.0) != (params.h_init > 0.0):
        direction = -direction
    return point0, direction


def make_root(point: CurvePoint, direction: Array, params: RunParams) -> TreeNode:
    """Tree root for a fresh run: a converged point with a stored tangent."""
    return TreeNode(
        zeta=point.z.copy(),
        z_init=point.z.copy(),
        t_init=np.asarray(direction, dtype=float).copy(),
        h_init=abs(params.h_init),
        h_base=abs(params.h_init),
        nu=0,
        nu_init=0,
        color=Color.GREEN,
        residual_norm_current=point.residual_norm,
    )


def spawn_round(
    root: TreeNode,
    problem: ProblemDefinition,
    params: RunParams,
    budget: int,
) -> int:
    """Seed predictor children at every eligible leaf.

    Leaves are visited breadth first; only leaves above the depth cap
    spawn.  Each leaf seeds one child per scaling, in ascending scaling
    order, from its current iterate along its secant direction (the
    stored tangent for the root, or the seed direction again when the
    secant is degenerate).  Children whose step magnitude would exceed
    h_max are skipped.  Spawning stops when the budget is exhausted.
    Returns the number of children created.  Each child's residual is
    evaluated at its predicted point; a non-finite predictor marks the
    child BLACK immediately.
    """
    if budget <= 0:
        return 0
    depths = node_depths(root)
    spawned = 0
    for leaf in breadth_first_leaves(root):
        if spawned >= budget:
            break
        if depths[leaf] >= params.max_depth:
            continue
        if leaf is root:
            direction = leaf.t_init
        else:
            try:
                direction = secant_direction(leaf)
            except DegenerateSecantError:
                direction = leaf.t_init
        for scale in sorted(params.scalings):
            if spawned >= budget:
                break
            h_child = scale * leaf.h_base
            if abs(h_child) > params.h_max:
                continue
            zeta0 = leaf.zeta + h_child * direction
            child = TreeNode(
                zeta=zeta0,
                z_init=leaf.zeta.copy(),
                t_init=np.asarray(direction, dtype=float).copy(),
                h_init=h_child,
                h_base=h_child,
                nu=0,
                nu_init=leaf.nu,
                color=Color.RED,
            )
            try:
                child.residual_norm_current = residual_norm(problem, zeta0)
            except EvaluationError:
                child.residual_norm_current = math.inf
                child.color = Color.BLACK
            leaf.children.append(child)
            spawned += 1
    return spawned


def _step_task(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
) -> tuple[Array, float]:
    new_zeta = corrector_step(problem, zeta, tangent, z_base, h)
    return new_zeta, float(np.linalg.norm(evaluate_residual(problem, new_zeta)))


def corrector_round(
    root: TreeNode,
    problem: ProblemDefinition,
    params: RunParams,
    pool: WorkerPool,
) -> int:
    """One synchronized corrector iteration on every unfinished node.

    All RED and YELLOW nodes receive exactly one corrector step, computed
    concurrently and joined at a barrier; GREEN nodes are never iterated.
    Results are applied in traversal order: residual history shifts, the
    iteration count increments, and the node is recolored.  A failed step
    turns the node BLACK.  Returns the number of steps executed.
    """
    targets = [
        n for n in iter_nodes(root) if n.color in (Color.RED, Color.YELLOW)
    ]
    tasks = [
        (problem, n.zeta, n.t_init, n.z_init, n.h_init) for n in targets
    ]
    outcomes = pool.map(_step_task, tasks)
    for node, (ok, payload) in zip(targets, outcomes):
        if not ok:
            node.color = Color.BLACK
            continue
        new_zeta, r_norm = payload
        node.zeta = new_zeta
        node.nu += 1
        node.residual_norm_previous = node.residual_norm_current
        node.residual_norm_current = r_norm
        node.color = assign_color(node, params)
    return len(targets)


def advance_root(root: TreeNode, emit: Sink) -> tuple[TreeNode, int]:
    """Move the root down the confirmed chain, emitting accepted points.

    While the root has exactly one child and that child is GREEN, the
    root's point is emitted and the child becomes the new root.  The new
    root's stored tangent is the secant from its predecessor (its seed
    direction is kept when the secant is degenerate).  Returns the new
    root and the number of points emitted.
    """
    emitted = 0
    while len(root.children) == 1 and root.children[0].color is Color.GREEN:
        child = root.children[0]
        emit(CurvePoint(root.zeta.copy(), root.residual_norm_current))
        root.children = []
        try:
            child.t_init = secant_direction(child)
        except DegenerateSecantError:
            pass
        root = child
        emitted += 1
    return root, emitted


def _active_count(root: TreeNode) -> int:
    return sum(
        1 for n in iter_nodes(root) if n.color in (Color.RED, Color.YELLOW)
    )


def run_continuation(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    sink: Sink | None = None,
    n_workers: int = 1,
    dot_dir: str | os.PathLike | None = None,
) -> ContinuationResult:
    """Trace the curve with the speculative tree until a stop condition.

    Each round: spawn within the free worker budget, apply one corrector
    iteration to all unfinished nodes, write the tree snapshot when
    verbose is at least 2, prune, advance the root.  Stops when the
    root's parameter leaves [lambda_min, lambda_max], when the root's
    base step underflows h_min, or when the round limit is hit.  Points
    are emitted through emit_point, so the sink sees only re-verified
    points; the final root is emitted at termination.
    """
    point0, direction = bootstrap(problem, params, initial_point)
    root = make_root(point0, direction, params)

    accepted: list[CurvePoint] = []

    def emit(point: CurvePoint) -> None:
        emit_point(problem, params, point, accepted, sink)

    def crossed(node: TreeNode) -> bool:
        lam = float(node.zeta[problem.lambda_index])
        return lam >= params.lambda_max or lam <= params.lambda_min

    rounds = 0
    steps_total = 0
    nodes_failed = 0
    reason = TerminationReason.ITERATION_BUDGET
    try:
        with WorkerPool(n_workers) as pool:
            while True:
                if abs(root.h_base) < params.h_min:
                    reason = TerminationReason.STEP_UNDERFLOW
                    break
                if crossed(root):
                    reason = TerminationReason.REACHED_LAMBDA_MAX
                    break
                if rounds >= params.round_limit:
                    reason = TerminationReason.ITERATION_BUDGET
                    break
                free = params.worker_budget - _active_count(root)
                spawned = spawn_round(root, problem, params, free)
                steps = corrector_round(root, problem, params, pool)
                steps_total += steps
                rounds += 1
                if params.verbose >= 2 and dot_dir is not None:
                    export_dot(root, rounds, dot_dir)
                nodes_failed += sum(
                    1 for n in iter_nodes(root) if n.color is Color.BLACK
                )
                prune_tree(root, params)
                root, emitted = advance_root(root, emit)
                if params.verbose >= 1 and emitted:
                    lam = float(root.zeta[problem.lambda_index])
                    print(
                        f"round {rounds}: {emitted} point(s) accepted, "
                        f"parameter {lam:.6g}"
                    )
                if spawned == 0 and steps == 0 and emitted == 0:
                    # Nothing can change from here on; give up now instead
                    # of spinning to the round limit.
                    reason = TerminationReason.ITERATION_BUDGET
                    break
        emit(CurvePoint(root.zeta.copy(), root.residual_norm_current))
    except EvaluationError:
        reason = TerminationReason.EVALUATION_FAILURE
    return ContinuationResult(
        accepted_points=accepted,
        termination_reason=reason,
        rounds_executed=rounds,
        corrector_steps_total=steps_total,
        nodes_failed=nodes_failed,
    )
