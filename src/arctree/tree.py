"""Speculative corrector tree: node state, coloring, paths, pruning.

Each node owns one corrector sequence, built by seed from a predictor
step of length h_init along a unit direction from its parent's iterate
(a run's first root is its start point).  Nodes are colored after every
corrector round:

  GREEN   converged (residual within tolerance),
  YELLOW  nearly converged (residual^gamma within tolerance),
  BLACK   diverging (iteration cap exceeded, or insufficient residual
          decay between consecutive iterates),
  RED     still in progress.

Pruning is two flat passes.  The first tabulates, bottom-up, the best
fully converged and the best nearly converged chain rooted at every
node.  The second visits every node once, in any order: a node whose
children all diverged has its base step backed off, then it keeps its
RED children and at most one GREEN-or-YELLOW child, chosen by comparing
arclength gained per corrector iteration along the best fully converged
chain against the best chain that still needs one more iteration at its
tip.  BLACK children never survive; RED ones may still become the
fastest route.  Pruning returns the number of failed (BLACK) sequences
it dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .params import RunParams

Array = np.ndarray

# Displacements shorter than this give no usable secant direction.
SECANT_FLOOR = 1e-14

# Factor applied to a node's base step, together with the scaling spread,
# after every one of its speculative children has diverged.
STEP_BACKOFF = 0.9


class Color(Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"
    BLACK = "black"


# The colors of a sequence that a corrector round still steps.
UNFINISHED = (Color.RED, Color.YELLOW)


@dataclass(eq=False)
class TreeNode:
    """State of one speculative corrector sequence.

    zeta is the current iterate; z_init and t_init are the seed point and
    unit seed direction, so seed starts zeta at z_init + h_init * t_init.
    Every leaf, the root included, seeds its children along its
    secant_direction.  nu counts the corrector calls made on this node, a
    failed one included (a non-finite predictor residual makes none);
    nu_init records the parent's count at spawn time.
    h_base is the adaptive base step scaled to seed this node's children.
    It starts as the node's own seed step; when the node becomes the root,
    or serial-pac accepts it, it is reset from h_init and nu
    (engine.next_step), and it shrinks after its children fail.  residual
    is F(zeta) at base z_init, kept for the next corrector step, or None
    while the node is fresh; residual_norm_current is its norm (inf until
    first evaluated) and residual_norm_previous the norm the last call
    started from, inf exactly while nu == 0, both at the same base.
    """

    zeta: Array
    z_init: Array
    t_init: Array
    h_init: float
    h_base: float
    nu: int = 0
    nu_init: int = 0
    color: Color = Color.RED
    residual_norm_current: float = math.inf
    residual_norm_previous: float = math.inf
    residual: Array | None = None
    children: list["TreeNode"] = field(default_factory=list)


@dataclass
class PathMetrics:
    """Arclength gain and iteration cost of one root-down chain.

    length sums the seed step magnitudes of every node on the chain.
    cost is the number of synchronized corrector rounds the chain has
    consumed, accumulated leaf-up: a node's cost is its own iteration
    count or the cost of the chain below it aged by that child's spawn
    round, whichever is larger.
    """

    length: float
    cost: int
    nodes: list[TreeNode]


def seed(z: Array, direction: Array, h: float, nu_init: int = 0) -> TreeNode:
    """A fresh RED corrector sequence predicted a step h along direction from z.

    The one constructor of a sequence: its iterate is z + h * direction,
    it keeps copies of z and direction as its seed point and direction,
    and h is both its seed step and its base step.
    """
    return TreeNode(
        zeta=z + h * direction,
        z_init=np.array(z, dtype=float),
        t_init=np.array(direction, dtype=float),
        h_init=h,
        h_base=h,
        nu_init=nu_init,
    )


def assign_color(node: TreeNode, params: RunParams) -> Color:
    """Classify a corrector sequence from its residual history.

    Rules apply in order: converged, nearly converged, diverging, still
    running.  A nearly converged sequence is exempt from the mu test and
    gets one step past the iteration cap: it is BLACK only once nu
    exceeds max_iter + 1, so a node takes at most max_iter + 2 steps and
    a corrector that stalls just above tolerance cannot hold a node
    forever.  Before the first iteration only the iteration-cap part of
    the divergence rule can apply: the previous residual is inf, and
    r > mu * inf is False for every r, NaN included.
    """
    r = node.residual_norm_current
    if r <= params.tol_residual:
        return Color.GREEN
    if r**params.gamma <= params.tol_residual:
        return Color.YELLOW if node.nu <= params.max_iter + 1 else Color.BLACK
    if node.nu > params.max_iter:
        return Color.BLACK
    if r > params.mu * node.residual_norm_previous:
        return Color.BLACK
    return Color.RED


def unit_secant(a: Array, b: Array) -> Array | None:
    """Unit vector from a to b, or None when ||b - a|| < SECANT_FLOOR."""
    d = b - a
    norm = math.sqrt(d.dot(d))
    if norm < SECANT_FLOOR:
        return None
    return d / norm


def secant_direction(node: TreeNode) -> Array:
    """Unit direction from the node's seed point to its current iterate.

    Falls back to the node's seed direction t_init when the displacement
    is too short to define one.
    """
    secant = unit_secant(node.z_init, node.zeta)
    return node.t_init if secant is None else secant


def breadth_first(root: TreeNode) -> list[tuple[TreeNode, int]]:
    """(node, depth) pairs breadth first, root at depth 0: the one walk.

    Children in stored order; reversed, every node follows its descendants.
    """
    # One pass over a list that grows behind the loop: the breadth-first order.
    order = [(root, 0)]
    for node, depth in order:
        order.extend((child, depth + 1) for child in node.children)
    return order


def unfinished_nodes(root: TreeNode) -> list[TreeNode]:
    """The UNFINISHED nodes, those a round still steps, breadth first."""
    return [n for n, _ in breadth_first(root) if n.color in UNFINISHED]


def _extend(
    node: TreeNode, child: TreeNode, sub: PathMetrics, best: PathMetrics | None
) -> PathMetrics | None:
    """The chain from node through child's chain sub if it beats best.

    The chain adds node's seed step to sub's length; its cost is node's
    own iteration count or sub's cost aged by child's spawn round,
    whichever is larger.  It beats best on a larger length, or on an
    equal length at a smaller cost; otherwise best is returned, so ties
    go to the earlier child.
    """
    length = abs(node.h_init) + sub.length
    cost = max(node.nu, sub.cost + child.nu_init)
    if best is None or length > best.length or (
        length == best.length and cost < best.cost
    ):
        return PathMetrics(length, cost, [node] + sub.nodes)
    return best


def _path_table(
    root: TreeNode,
) -> dict[TreeNode, tuple[PathMetrics | None, PathMetrics | None]]:
    """Best valid and viable chains rooted at every node, in one pass.

    A chain is valid when every node on it is GREEN and viable when every
    node is GREEN or YELLOW.  Best means largest summed seed length, with
    ties broken toward the smaller cost and then toward the earlier
    child.  One loop over the reversed breadth-first walk, so each node
    comes after all of its descendants and extends its children's best
    chains by its own seed step.  The table keeps that order.
    """
    table: dict[TreeNode, tuple[PathMetrics | None, PathMetrics | None]] = {}
    for node, _ in reversed(breadth_first(root)):
        valid = viable = None
        if node.color in (Color.GREEN, Color.YELLOW):
            viable = PathMetrics(abs(node.h_init), node.nu, [node])
        if node.color is Color.GREEN:
            valid = PathMetrics(abs(node.h_init), node.nu, [node])
        for child in node.children:
            child_valid, child_viable = table[child]
            if valid is not None and child_valid is not None:
                valid = _extend(node, child, child_valid, valid)
            if viable is not None and child_viable is not None:
                viable = _extend(node, child, child_viable, viable)
        table[node] = (valid, viable)
    return table


def compute_paths(
    node: TreeNode,
) -> tuple[PathMetrics | None, PathMetrics | None]:
    """Best valid and best viable chain rooted at node.

    Either entry is None when no such chain exists; a RED node roots
    neither kind, a YELLOW node roots no valid chain.  A lone qualifying
    node forms a one-node chain.
    """
    return _path_table(node)[node]


def choose_best_path(
    valid: PathMetrics | None, viable: PathMetrics | None
) -> PathMetrics | None:
    """Pick between a fully converged chain and a nearly converged one.

    Compares arclength per corrector round.  The viable chain is charged
    one extra round for the pending iteration at its YELLOW tip.  A
    zero-cost valid chain counts as infinitely fast, and all ties go to
    the valid side.  A missing contender loses by default.
    """
    if valid is None:
        return viable
    if viable is None:
        return valid
    rate_valid = (
        math.inf if valid.cost == 0 else valid.length / valid.cost
    )
    rate_viable = viable.length / (viable.cost + 1)
    return valid if rate_valid >= rate_viable else viable


def reduce_base_step(node: TreeNode, scalings: tuple[float, ...]) -> None:
    """Shrink a node's base step after all of its children diverged.

    The new base is STEP_BACKOFF times the ratio of the smallest to the
    largest scaling times the old base, so the next batch of children is
    seeded strictly inside the span the failed batch covered.
    """
    node.h_base *= STEP_BACKOFF * scalings[0] / scalings[-1]


def prune_tree(root: TreeNode, params: RunParams) -> int:
    """Thin the tree in two flat passes; return the failed sequences.

    The first pass is _path_table: chain metrics for every node.  A BLACK
    node roots no chain, so they are the same as if the BLACK subtrees
    were gone.  The second is one loop over the table's nodes.  A node
    whose children are all BLACK has its base step reduced before it
    respawns.  Then its best viable chain fixes a candidate child to
    keep; if some other child roots an all-GREEN alternative chain, the
    faster of the two (per choose_best_path) wins.  The node keeps that
    child and its RED children; every other child, BLACK ones included,
    is deleted with its subtree.  The order of the loop does not matter:
    a node's choice reads only its own child list, which no other node
    changes, and the table, which is complete before the loop starts;
    a choice made inside a subtree that an ancestor drops can no longer
    be reached.  Returns the number of BLACK nodes in the tree before
    pruning: the failed corrector sequences.
    """
    table = _path_table(root)
    for node, (_, viable) in table.items():
        if node.children and all(c.color is Color.BLACK for c in node.children):
            reduce_base_step(node, params.scalings)
        keep = None
        if viable is not None and len(viable.nodes) >= 2:
            viable_child = viable.nodes[1]
            alternative = None
            for child in node.children:
                # A GREEN child always roots a valid chain.
                if child is not viable_child and child.color is Color.GREEN:
                    alternative = _extend(node, child, table[child][0], alternative)
            keep = choose_best_path(alternative, viable).nodes[1]
        node.children = [
            c for c in node.children if c is keep or c.color is Color.RED
        ]
    return sum(1 for node in table if node.color is Color.BLACK)


def count_nodes(root: TreeNode) -> int:
    return len(breadth_first(root))
