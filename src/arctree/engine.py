"""Parallel adaptive continuation driver.

The engine traces a solution curve by maintaining a rooted tree of
speculative corrector sequences.  The root is the most recent accepted
point: first the start record start_point emits, which bootstrap turns
into the arclength root.  Each round it seeds predictor
children at every leaf, within the depth cap and the worker budget less
the unfinished nodes, applies one corrector iteration to every
unfinished node concurrently, recolors, prunes, and advances the root
down a confirmed chain of converged points, emitting each point as it
becomes the root.  Each new root's base step comes
from next_step, the step rule serial-pac shares.

Results are deterministic: a corrector task writes only its own node,
whichever thread pulls it, and colours and counts are applied in
breadth-first order, so the thread count changes wall time only.  Every
corrector step takes a turn, a lock shared by the sequences of one
round, or held by one sequence alone in correct.  So the tasks of a
round take turns at the Python half of a bordered Newton step, and only
the LU factorizations, which run without the GIL, overlap (see
corrector_round).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .blas import one_blas_thread
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
    UNFINISHED,
    Color,
    TreeNode,
    assign_color,
    breadth_first,
    prune_tree,
    secant_direction,
    seed,
    unfinished_nodes,
    unit_secant,
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
    """What the tree engine and both baselines return.

    failures counts failed corrector sequences: BLACK nodes in the tree,
    failed predictors in a baseline.  rounds_executed is None for a
    baseline, which runs no rounds.
    """

    accepted_points: list[CurvePoint]
    termination_reason: TerminationReason
    corrector_steps_total: int
    failures: int
    rounds_executed: int | None = None


Sink = Callable[[CurvePoint], None]


class WorkerPool:
    """An ordered map of tasks over n_workers threads, the caller's included.

    Used in a with block, map(fn, tasks) returns fn(*task) for each task,
    in task order.  The caller and min(n_workers, len(tasks)) - 1 helpers
    run one loop: pull the next index from a shared iterator, store that
    task's result.  The pool catches nothing: a task's exception ends its
    thread's loop and propagates once the others run out of tasks.
    Thread count changes wall time only, never the results.  n_workers
    below 1 raises ValueError.  The pool holds no lock of its own: what
    its tasks share, such as a corrector round's turn, they take per task.
    """

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._executor: ThreadPoolExecutor | None = None

    def __enter__(self) -> "WorkerPool":
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers - 1)
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def map(self, fn, tasks):
        results = [None] * len(tasks)
        # Under the GIL a range iterator hands each index to one thread.
        indices = iter(range(len(tasks)))

        def serve():
            for i in indices:
                results[i] = fn(*tasks[i])

        helpers = [self._executor.submit(serve) for _ in tasks[1 : self.n_workers]]
        try:
            serve()
        finally:
            # No task of this round runs on once map has returned or raised.
            wait(helpers)
        for future in helpers:
            future.result()
        return results


def stop_reason(
    problem: ProblemDefinition,
    params: RunParams,
    z: Array,
    h: float,
    count: int,
) -> TerminationReason | None:
    """Why a run stops at point z with step h after count rounds, or None.

    The one stop rule of the tree engine and both baselines, checked in
    this order: the parameter has left [lambda_min, lambda_max], the step
    magnitude is below h_min, count has reached the round limit.
    """
    lam = float(z[problem.lambda_index])
    if lam >= params.lambda_max or lam <= params.lambda_min:
        return TerminationReason.REACHED_LAMBDA_MAX
    if abs(h) < params.h_min:
        return TerminationReason.STEP_UNDERFLOW
    if count >= params.round_limit:
        return TerminationReason.ITERATION_BUDGET
    return None


def step(problem: ProblemDefinition, node: TreeNode, turn: threading.Lock) -> bool:
    """Call the corrector once on the node's sequence, in place.

    turn is a lock the caller's sequences share, free when step is
    called: the whole step holds it, and corrector_step is handed it
    (see corrector_round).  The one place a step failure is caught; none
    is raised.  F is taken at base z_init, as the bordered row is.  A
    fresh node first has F evaluated at its iterate and takes that norm
    as its current one; a non-finite residual there sets it to inf and
    returns False with no call made.  Otherwise nu counts the call and
    the current norm becomes the previous one before it is made.  A
    failed call, or a non-finite residual at the new iterate, returns
    False and keeps the iterate; a successful one leaves the new
    iterate, F and its norm there, and returns True.
    """
    with turn:
        if node.residual is None:
            try:
                node.residual = evaluate_residual(problem, node.zeta, node.z_init)
            except EvaluationError:
                node.residual_norm_current = math.inf
                return False
            node.residual_norm_current = math.sqrt(node.residual.dot(node.residual))
        node.nu += 1
        node.residual_norm_previous = node.residual_norm_current
        try:
            zeta = corrector_step(
                problem, node.zeta, node.t_init, node.z_init, node.h_init,
                node.residual, turn,
            )
            f = evaluate_residual(problem, zeta, node.z_init)
        except (CorrectorFailure, EvaluationError):
            return False
        node.zeta, node.residual = zeta, f
        node.residual_norm_current = math.sqrt(f.dot(f))
        return True


def correct(
    problem: ProblemDefinition,
    z_base: Array,
    tangent: Array,
    h: float,
    params: RunParams,
) -> tuple[TreeNode | None, int]:
    """Predict a step h along tangent from z_base, then correct to tolerance.

    The sequence is one tree.seed node, advanced by step with a turn of
    its own, as in a one-worker round.  Returns it once converged, or
    None when max_iter steps do not converge or a step fails, together
    with its nu: the corrector calls it made.
    """
    node = seed(z_base, tangent, h)
    turn = threading.Lock()
    while node.nu < params.max_iter and step(problem, node, turn):
        if node.residual_norm_current <= params.tol_residual:
            return node, node.nu
    return None, node.nu


def next_step(h: float, taken: int, params: RunParams) -> float:
    """Step magnitude after a success that took `taken` corrector steps.

    The one step-size rule of the tree and serial-pac (Allgower & Georg,
    section 6.1, in its simplest form): |h| is scaled by
    target / taken, clipped to [1/2, 2], and capped at h_max, where the
    target is max_iter - 1 steps (at least 1).  A success that needed
    few steps grows the step, one that needed more than the target
    shrinks it.
    """
    target = max(params.max_iter - 1, 1)
    return min(abs(h) * min(max(target / taken, 0.5), 2.0), params.h_max)


def emit_point(
    problem: ProblemDefinition,
    params: RunParams,
    z: Array,
    accepted: list[CurvePoint],
    sink: Sink | None,
) -> float:
    """Accept the iterate z: re-verify it, record a copy, return its norm.

    The one acceptance rule of the tree and both baselines, applied to
    each point once, when it is accepted, and the only constructor of a
    CurvePoint.  z is checked as its own base point; a point whose
    residual is non-finite or above tol_residual raises EvaluationError
    and is neither recorded nor passed to the sink.  The recorded point
    holds a copy of z, and the sink is passed that point, so whatever a
    sink does to it cannot move the run, which continues from z.
    """
    r = residual_norm(problem, z)
    if r > params.tol_residual:
        raise EvaluationError(
            f"residual {r:.3e} exceeds tolerance {params.tol_residual:.3e}"
        )
    verified = CurvePoint(z.copy(), r)
    accepted.append(verified)
    if sink is not None:
        sink(verified)
    return r


def check_inputs(
    problem: ProblemDefinition, params: RunParams, initial_point: Array
) -> None:
    """Raise ValueError, naming the key, where the inputs of a run disagree.

    The problem's n_dim and lambda_index must be N_DIM and LAMBDA_INDEX,
    and the initial point must hold N_DIM entries.
    """
    for key, ours, theirs in (
        ("N_DIM", problem.n_dim, params.n_dim),
        ("LAMBDA_INDEX", problem.lambda_index, params.lambda_index),
    ):
        if ours != theirs:
            raise ValueError(f"problem has {key} {ours}, parameters say {key} {theirs}")
    shape = np.shape(initial_point)
    if shape != (params.n_dim,):
        raise ValueError(
            f"initial point has shape {shape}, parameters say N_DIM {params.n_dim}"
        )


def start_point(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    accepted: list[CurvePoint],
    sink: Sink | None,
) -> TreeNode:
    """Accept the initial point through emit_point; return the start record.

    Inputs that check_inputs refuses raise its ValueError before anything
    is emitted.  The record is GREEN at a copy of the initial point that
    neither the caller nor the sink holds (z_init is zeta), with the
    emitted norm, and seeds along the unit parameter axis with steps
    delta_lambda.  A start that fails the check is not recorded and
    raises BootstrapError, naming the initial point and its residual.
    """
    check_inputs(problem, params, initial_point)
    z = np.array(initial_point, dtype=float)
    try:
        r = emit_point(problem, params, z, accepted, sink)
    except EvaluationError as exc:
        raise BootstrapError(f"initial point: {exc}") from exc
    axis = np.zeros(problem.n_dim)
    axis[problem.lambda_index] = 1.0
    h = params.delta_lambda
    return TreeNode(z, z, axis, h, h, color=Color.GREEN, residual_norm_current=r)


def bootstrap(
    problem: ProblemDefinition, params: RunParams, start: TreeNode
) -> TreeNode:
    """Turn the start record into the run's first arclength root, in place.

    A neighbor point is corrected from the start along its seed direction,
    the parameter axis, with its base step delta_lambda: a Newton solve in
    the state variables at a fixed parameter shift.  The start keeps its
    point and norm; its t_init becomes the unit secant between the two
    points, oriented so the parameter component has the sign of h_init,
    and its seed and base steps become |h_init|.  Returns the start.
    """
    neighbor, _ = correct(problem, start.zeta, start.t_init, start.h_base, params)
    if neighbor is None:
        raise BootstrapError(
            "neighbor point did not converge within MAX_ITER iterations"
        )
    direction = unit_secant(start.zeta, neighbor.zeta)
    if direction is None:
        raise BootstrapError("bootstrap secant is degenerate")
    if (direction[problem.lambda_index] > 0.0) != (params.h_init > 0.0):
        direction = -direction
    start.t_init = direction
    start.h_init = start.h_base = abs(params.h_init)
    return start


def spawn_round(root: TreeNode, params: RunParams) -> int:
    """Seed predictor children at every eligible leaf, within the budget.

    One breadth-first walk gives the budget, the worker budget less the
    unfinished nodes already in the tree (so a tree whose RED and YELLOW
    nodes fill it spawns nothing), and the leaves, visited in walk order;
    only leaves above the depth cap spawn.  Each leaf seeds one child per
    scaling (tree.seed), in the ascending order RunParams stores them,
    from its current iterate along its secant_direction: one rule for
    every leaf, the root included.  Children whose step magnitude would
    exceed h_max are skipped.  Returns the number of children created.
    A child's residual is evaluated in its first corrector round, not here.
    """
    walk = breadth_first(root)
    budget = params.worker_budget - sum(n.color in UNFINISHED for n, _ in walk)
    spawned = 0
    for leaf, depth in walk:
        if spawned >= budget:
            break
        if leaf.children or depth >= params.max_depth:
            continue
        direction = secant_direction(leaf)
        for scale in params.scalings:
            if spawned >= budget:
                break
            h_child = scale * leaf.h_base
            if abs(h_child) > params.h_max:
                continue
            leaf.children.append(seed(leaf.zeta, direction, h_child, leaf.nu))
            spawned += 1
    return spawned


def corrector_round(
    root: TreeNode,
    problem: ProblemDefinition,
    params: RunParams,
    pool: WorkerPool,
) -> int:
    """One synchronized corrector iteration on every unfinished node.

    All RED and YELLOW nodes receive exactly one step, computed
    concurrently and joined at a barrier; GREEN nodes are never iterated.
    Each task advances its own node in place (see step).  The nodes are
    then recolored breadth first: a node whose step returned False
    turns BLACK, and assign_color classifies the rest.  Returns the
    corrector calls the nodes made, the growth of their summed nu.

    Every task is step on one node with the round's turn, one lock,
    which step holds while it steps the node.  bordered_newton_step lets
    it go only while LAPACK factors, so one thread at a time runs the
    Python and short numpy calls of a step, which would otherwise hand
    the GIL to and fro on nearly every call, and the factorizations
    overlap with the other threads' work.  A custom corrector has no
    such point and holds the turn for its whole step, so it is never
    called while another node steps.
    """
    targets = unfinished_nodes(root)
    calls = -sum(node.nu for node in targets)
    turn = threading.Lock()
    outcomes = pool.map(step, [(problem, n, turn) for n in targets])
    for node, stepped in zip(targets, outcomes):
        calls += node.nu
        node.color = assign_color(node, params) if stepped else Color.BLACK
    return calls


def advance_root(
    root: TreeNode, emit: Callable[[Array], None], params: RunParams
) -> tuple[TreeNode, int]:
    """Move the root down the confirmed chain, emitting each new root.

    While the root has exactly one child and that child is GREEN, the
    child becomes the root and its iterate is emitted: a point is
    emitted when it is accepted.
    Nothing steps a GREEN node, so the new root seeds its children along
    the secant from its predecessor, as every leaf does.  Its base step
    is next_step of the step that seeded it and the corrector steps it
    took, as serial-pac's step is after a success.  Returns the new root
    and the number of points emitted.
    """
    emitted = 0
    while len(root.children) == 1 and root.children[0].color is Color.GREEN:
        root = root.children.pop()
        # Any backoff reduce_base_step applied to the child is discarded on
        # purpose.  Growing from the backed-off base instead,
        # next_step(root.h_base, ...), made ks128-tree crawl to
        # STEP_UNDERFLOW in 2160 rounds and 21400 corrector steps.
        root.h_base = next_step(root.h_init, root.nu, params)
        emit(root.zeta)
        emitted += 1
    return root, emitted


@one_blas_thread()
def run_continuation(
    problem: ProblemDefinition,
    params: RunParams,
    initial_point: Array,
    sink: Sink | None = None,
    n_workers: int = 1,
    dot_dir: str | os.PathLike | None = None,
) -> ContinuationResult:
    """Trace the curve with the speculative tree until a stop condition.

    bootstrap turns the start record into the first root.  Each round:
    spawn within the worker budget the unfinished nodes leave free (see
    spawn_round), apply one corrector iteration to all unfinished nodes,
    write the tree snapshot to dot_dir when one is given, prune, advance
    the root; the BLACK nodes prune drops are the run's failures.  Stops by
    stop_reason on the root's point, its base step and the rounds
    executed, or with EVALUATION_FAILURE when a point fails
    re-verification.  Each point goes through emit_point once, when it is
    accepted: the start before bootstrap, so a run that fails there has
    emitted exactly its start, and every later point when it becomes the
    root; nothing is emitted at termination.  n_workers threads, the
    calling one included, serve each corrector round, and BLAS runs on
    one thread throughout (see blas).
    """
    accepted: list[CurvePoint] = []

    def emit(z: Array) -> None:
        emit_point(problem, params, z, accepted, sink)

    rounds = 0
    steps_total = 0
    failures = 0
    with WorkerPool(n_workers) as pool:
        start = start_point(problem, params, initial_point, accepted, sink)
        root = bootstrap(problem, params, start)
        try:
            while True:
                reason = stop_reason(
                    problem, params, root.zeta, root.h_base, rounds
                )
                if reason is not None:
                    break
                spawn_round(root, params)
                steps_total += corrector_round(root, problem, params, pool)
                rounds += 1
                if dot_dir is not None:
                    export_dot(root, rounds, dot_dir)
                failures += prune_tree(root, params)
                root, _ = advance_root(root, emit, params)
        except EvaluationError:
            reason = TerminationReason.EVALUATION_FAILURE
    return ContinuationResult(accepted, reason, steps_total, failures, rounds)
