"""Coloring, path scoring, and pruning of the speculative tree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctree.tree import (
    Color,
    PathMetrics,
    TreeNode,
    _extend,
    assign_color,
    breadth_first,
    choose_best_path,
    compute_paths,
    count_nodes,
    prune_tree,
    reduce_base_step,
    secant_direction,
    unit_secant,
)
from conftest import build_prune_fixture, make_node, make_params


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------


def colored(nu, current, previous=math.inf):
    params = make_params(
        tol_residual=5e-7, gamma=2.0, mu=0.5, max_iter=4, h_min=1e-3, h_init=0.1,
        h_max=2000.0,
    )
    node = make_node(Color.RED, nu=nu, h_init=1.0, residual=current)
    node.residual_norm_previous = previous
    return assign_color(node, params)


def test_green_when_converged():
    assert colored(2, 1e-8, 1e-4) is Color.GREEN


def test_yellow_when_square_meets_tolerance():
    # 5e-4 squared is 2.5e-7, inside tol 5e-7.
    assert colored(2, 5e-4, 1e-2) is Color.YELLOW


def test_black_when_contraction_too_slow():
    # 0.01 > 0.5 * 0.015.
    assert colored(1, 1e-2, 1.5e-2) is Color.BLACK


def test_red_when_undecided():
    # Not converged, square 4e-6 above tol, contracting faster than mu.
    assert colored(2, 2e-3, 1e-2) is Color.RED


def test_black_when_over_iteration_budget():
    assert colored(5, 1e-2, 6e-2) is Color.BLACK


def test_yellow_gets_one_step_past_the_iteration_budget():
    # max_iter is 4: a nearly converged node may take a 5th step, not a 6th.
    assert colored(5, 5e-4, 1e-2) is Color.YELLOW
    assert colored(6, 5e-4, 1e-2) is Color.BLACK


def test_green_takes_precedence_over_black():
    # Converged on the very iteration that exhausted the budget.
    assert colored(5, 1e-8, 1e-4) is Color.GREEN


def test_no_divergence_check_before_first_iteration():
    # A fresh node's previous residual is inf, and r > mu * inf is False
    # for every r, an infinite or NaN one included.
    params = make_params()
    for current in (0.3, math.inf, math.nan):
        node = make_node(Color.RED, nu=0, h_init=1.0, residual=current)
        assert node.residual_norm_previous == math.inf
        assert assign_color(node, params) is Color.RED


@given(
    nu=st.integers(0, 6),
    current=st.floats(1e-12, 1.0),
    previous=st.floats(1e-12, 1.0),
)
def test_assign_color_is_pure(nu, current, previous):
    params = make_params()
    node = make_node(Color.RED, nu=nu, h_init=1.0, residual=current)
    node.residual_norm_previous = previous if nu >= 1 else math.inf
    assert assign_color(node, params) is assign_color(node, params)


# ---------------------------------------------------------------------------
# Secant and base step
# ---------------------------------------------------------------------------


def test_secant_direction_normalizes():
    node = make_node(Color.GREEN, nu=1, h_init=1.0)
    node.z_init = np.array([0.0, 0.0])
    node.zeta = np.array([3.0, 4.0])
    assert secant_direction(node) == pytest.approx(np.array([0.6, 0.8]))


def test_secant_direction_degenerate():
    # zeta == z_init: no secant, so the seed direction is used again
    node = make_node(Color.GREEN, nu=1, h_init=1.0)
    node.t_init = np.array([0.6, -0.8])
    assert unit_secant(node.z_init, node.zeta) is None
    assert secant_direction(node) is node.t_init


def test_breadth_first_leaves_carry_their_depth():
    root = make_node(Color.GREEN, nu=0, h_init=1.0)
    inner = make_node(Color.RED, nu=1, h_init=1.0)
    leaf1, leaf2, leaf3 = (
        make_node(Color.RED, nu=0, h_init=1.0) for _ in range(3)
    )
    inner.children = [leaf2, leaf3]
    root.children = [inner, leaf1]
    walk = breadth_first(root)
    assert walk == [(root, 0), (inner, 1), (leaf1, 1), (leaf2, 2), (leaf3, 2)]
    # The leaves, and their order, that spawn_round seeds.
    assert [(n, d) for n, d in walk if not n.children] == [
        (leaf1, 1), (leaf2, 2), (leaf3, 2)
    ]
    assert breadth_first(leaf1) == [(leaf1, 0)]


def test_reduce_base_step_factor():
    node = make_node(Color.GREEN, nu=0, h_init=8.0)
    reduce_base_step(node, (0.75, 1.0, 2.0))
    assert node.h_base == pytest.approx(8.0 * 0.9 * 0.75 / 2.0)
    assert node.h_init == 8.0  # only the base step changes


# ---------------------------------------------------------------------------
# Path metrics
# ---------------------------------------------------------------------------


def test_single_node_paths():
    node = make_node(Color.GREEN, nu=2, h_init=4.0)
    valid, viable = compute_paths(node)
    assert valid is not None and viable is not None
    assert valid.length == 4.0 and valid.cost == 2
    assert [n is node for n in valid.nodes] == [True]


def test_yellow_node_has_no_valid_path():
    node = make_node(Color.YELLOW, nu=1, h_init=4.0)
    valid, viable = compute_paths(node)
    assert valid is None
    assert viable is not None and viable.cost == 1


def test_cost_recursion_max_rule():
    # I(P) = mu of first node with mu_k = max(nu_k, mu_{k+1} + nu_init_{k+1}).
    parent = make_node(Color.GREEN, nu=5, h_init=1.0)
    child = make_node(Color.GREEN, nu=1, h_init=1.0, nu_init=1)
    parent.children = [child]
    valid, _ = compute_paths(parent)
    assert valid.cost == 5  # parent's own count dominates
    parent.nu = 1
    valid, _ = compute_paths(parent)
    assert valid.cost == 2  # child chain dominates: 1 + 1


def test_path_length_uses_magnitudes():
    parent = make_node(Color.GREEN, nu=1, h_init=-2.0)
    child = make_node(Color.GREEN, nu=1, h_init=-1.0, nu_init=1)
    parent.children = [child]
    valid, _ = compute_paths(parent)
    assert valid.length == pytest.approx(3.0)


def test_fixture_path_metrics(prune_fixture):
    f = prune_fixture
    h = f.h
    valid, viable = compute_paths(f.root)
    # Best all-GREEN chain is (root, b): length 2h beats (root, a, a2).
    assert valid.length == pytest.approx(2 * h)
    # Best viable chain is (root, b, b1).
    assert viable.length == pytest.approx(9 * h / 4)
    assert viable.cost == 3
    assert viable.nodes[1] is f.b and viable.nodes[2] is f.b1

    valid_a, viable_a = compute_paths(f.a)
    assert valid_a.length == pytest.approx(h / 2)
    assert valid_a.cost == 2
    assert viable_a.length == pytest.approx(5 * h / 8)
    assert viable_a.cost == 2


@given(
    scale=st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0, 16.0]),
    length_valid=st.integers(1, 64),
    length_viable=st.integers(1, 64),
    cost_valid=st.integers(0, 5),
    cost_viable=st.integers(0, 5),
)
def test_choose_best_path_scale_invariant(
    scale, length_valid, length_viable, cost_valid, cost_viable
):
    # Power-of-two scales keep the length ratios exact, so the selection
    # must be identical before and after rescaling both lengths.
    def picks_valid(s: float) -> bool:
        v = PathMetrics(float(length_valid) * s, cost_valid, [])
        w = PathMetrics(float(length_viable) * s, cost_viable, [])
        return choose_best_path(v, w) is v

    assert picks_valid(1.0) == picks_valid(scale)


def test_choose_best_path_rules():
    v = PathMetrics(4.0, 2, [])
    w = PathMetrics(9.0, 2, [])
    assert choose_best_path(v, w) is w  # 2 < 3
    v2 = PathMetrics(6.0, 2, [])
    assert choose_best_path(v2, w) is v2  # 3 >= 3, tie to valid
    free = PathMetrics(0.5, 0, [])
    assert choose_best_path(free, w) is free  # zero cost is infinite rate
    assert choose_best_path(None, w) is w
    assert choose_best_path(v, None) is v


# ---------------------------------------------------------------------------
# Pruning: the walkthrough fixture
# ---------------------------------------------------------------------------


def test_prune_walkthrough_structure(prune_fixture):
    f = prune_fixture
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.root, params)

    # Subtree a is deleted at the root (its rate h/2 loses to the viable
    # chain's 9h/16); subtree b survives with its yellow child; the red
    # sibling survives with only its red child.
    assert f.root.children == [f.b, f.r]
    assert f.b.children == [f.b1]
    assert f.r.children == [f.k2]
    assert count_nodes(f.root) == 5


def test_prune_inner_comparison_deletes_yellow_sibling():
    # Inside subtree a the valid chain (a, a2) at rate h/4 beats the
    # viable (a, a3) handicapped to 5h/24, so a3 would be deleted were
    # the subtree judged on its own.
    f = build_prune_fixture()
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.a, params)
    assert f.a.children == [f.a2]


def test_prune_removes_black_subtrees_first():
    f = build_prune_fixture()
    f.a.color = Color.BLACK
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.root, params)
    assert f.a not in f.root.children
    assert all(n.color is not Color.BLACK for n, _ in breadth_first(f.root))


def test_prune_reduces_base_step_when_all_children_fail():
    parent = make_node(Color.GREEN, nu=1, h_init=2.0)
    for _ in range(2):
        parent.children.append(make_node(Color.BLACK, nu=3, h_init=1.0))
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(parent, params)
    assert parent.children == []
    assert parent.h_base == pytest.approx(2.0 * 0.9 * 0.25 / 1.5)


def test_prune_keeps_base_step_when_some_children_survive():
    parent = make_node(Color.GREEN, nu=1, h_init=2.0)
    black = make_node(Color.BLACK, nu=3, h_init=1.0)
    green = make_node(Color.GREEN, nu=1, h_init=1.0, nu_init=1)
    parent.children = [black, green]
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(parent, params)
    assert parent.children == [green]
    assert parent.h_base == 2.0


def test_prune_counts_every_black_node_and_backs_off_once():
    # The BLACK child's own BLACK child and GREEN child go with it; both
    # BLACK nodes count, and the parent backs off once, for its one batch.
    parent = make_node(Color.GREEN, nu=1, h_init=2.0)
    black = make_node(Color.BLACK, nu=3, h_init=1.0)
    black.children = [
        make_node(Color.BLACK, nu=3, h_init=1.0),
        make_node(Color.GREEN, nu=1, h_init=1.0),
    ]
    parent.children = [black]
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    assert prune_tree(parent, params) == 2
    assert parent.children == []
    assert parent.h_base == 2.0 * (0.9 * 0.25 / 1.5)


def test_prune_red_parent_drops_green_child(prune_fixture):
    # A red node cannot be part of any confirmed chain, so a green child
    # under it has no chain to justify it and is removed, while red
    # children are always left for the next round.
    f = prune_fixture
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    prune_tree(f.root, params)
    assert f.k1 not in f.r.children
    assert f.k2 in f.r.children


# ---------------------------------------------------------------------------
# Pruning: randomized invariants
# ---------------------------------------------------------------------------


@st.composite
def random_tree(draw, depth=0):
    color = draw(
        st.sampled_from(
            [Color.GREEN, Color.YELLOW, Color.RED, Color.BLACK]
            if depth > 0
            else [Color.GREEN]
        )
    )
    node = make_node(
        color,
        nu=draw(st.integers(0, 5)),
        h_init=draw(st.floats(0.01, 10.0)),
        nu_init=draw(st.integers(0, 3)) if depth > 0 else 0,
        residual=draw(st.floats(1e-12, 1.0)),
    )
    if depth < 3:
        n_children = draw(st.integers(0, 3))
        node.children = [
            draw(random_tree(depth=depth + 1)) for _ in range(n_children)
        ]
    return node


@settings(max_examples=60, deadline=None)
@given(root=random_tree())
def test_prune_invariants(root):
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    before = count_nodes(root)
    black = sum(1 for n, _ in breadth_first(root) if n.color is Color.BLACK)
    # Each node's base step, and whether it has children, all of them BLACK.
    state = {
        n: (n.h_base, bool(n.children) and all(c.color is Color.BLACK for c in n.children))
        for n, _ in breadth_first(root)
    }
    assert prune_tree(root, params) == black
    survivors = [n for n, _ in breadth_first(root)]
    assert count_nodes(root) <= before
    assert survivors[0] is root
    # the base step changes exactly on the survivors whose children all failed
    for node in survivors:
        h_base, all_black = state[node]
        assert (node.h_base != h_base) == all_black
    # no BLACK node survives
    assert all(n.color is not Color.BLACK for n in survivors)
    # at most one non-RED child anywhere; the rest must be RED
    for node in survivors:
        non_red = [c for c in node.children if c.color is not Color.RED]
        assert len(non_red) <= 1


@settings(max_examples=60, deadline=None)
@given(root=random_tree())
def test_path_metrics_invariants(root):
    for node, _ in breadth_first(root):
        valid, viable = compute_paths(node)
        for metrics in (valid, viable):
            if metrics is None:
                continue
            assert metrics.length >= 0.0
            assert metrics.length > 0.0  # all generated steps are positive
            assert metrics.cost >= metrics.nodes[-1].nu
            assert metrics.nodes[0] is node
        if valid is not None:
            assert all(n.color is Color.GREEN for n in valid.nodes)
        if viable is not None:
            assert all(
                n.color in (Color.GREEN, Color.YELLOW) for n in viable.nodes
            )


# ---------------------------------------------------------------------------
# Pruning: the recursive two-walk version as the oracle
# ---------------------------------------------------------------------------


def recursive_path_table(root):
    """The chain table built by recursion, one closure per node."""
    table = {}

    def visit(node):
        for child in node.children:
            visit(child)

        def best_chain(own_ok, pick_valid):
            if not own_ok:
                return None
            best = PathMetrics(abs(node.h_init), node.nu, [node])
            for child in node.children:
                sub = table[child][0 if pick_valid else 1]
                if sub is not None:
                    best = _extend(node, child, sub, best)
            return best

        valid = best_chain(node.color is Color.GREEN, True)
        viable = best_chain(node.color in (Color.GREEN, Color.YELLOW), False)
        table[node] = (valid, viable)

    visit(root)
    return table


def recursive_prune_tree(root, params):
    """Pruning as one recursive top-down walk over the kept children."""
    table = recursive_path_table(root)

    def thin(node):
        if node.children and all(c.color is Color.BLACK for c in node.children):
            reduce_base_step(node, params.scalings)
        keep = None
        viable = table[node][1]
        if viable is not None and len(viable.nodes) >= 2:
            viable_child = viable.nodes[1]
            alternative = None
            for child in node.children:
                if child is not viable_child and child.color is Color.GREEN:
                    alternative = _extend(node, child, table[child][0], alternative)
            keep = choose_best_path(alternative, viable).nodes[1]
        node.children = [
            c for c in node.children if c is keep or c.color is Color.RED
        ]
        for child in node.children:
            thin(child)

    thin(root)
    return sum(1 for node in table if node.color is Color.BLACK)


def seeded_tree(seed):
    """A random tree (depth <= 4, <= 3 children) and its nodes in build order.

    Seed steps take four magnitudes, multiples of 1/4, so every chain
    length is an exact sum and ties, in length and in cost, are common.
    """
    rng = np.random.default_rng(seed)
    colors = list(Color)
    nodes = []

    def build(depth):
        node = make_node(
            colors[rng.integers(len(colors))],
            nu=int(rng.integers(0, 6)),
            h_init=float(rng.choice([-1, 1]) * rng.integers(1, 5) / 4),
            nu_init=int(rng.integers(0, 4)),
        )
        nodes.append(node)
        if depth < 4:
            node.children = [build(depth + 1) for _ in range(rng.integers(0, 4))]
        return node

    return build(0), nodes


def chain_ids(metrics, index):
    if metrics is None:
        return None
    return metrics.length, metrics.cost, [index[n] for n in metrics.nodes]


def root_down_chains(node):
    """Every chain that starts at node and runs down through its children."""
    yield [node]
    for child in node.children:
        for chain in root_down_chains(child):
            yield [node] + chain


def chain_score(chain):
    """(length, cost) of a chain, accumulated leaf-up as PathMetrics defines."""
    length, cost = abs(chain[-1].h_init), chain[-1].nu
    for node, below in zip(chain[-2::-1], chain[:0:-1]):
        length = abs(node.h_init) + length
        cost = max(node.nu, cost + below.nu_init)
    return length, cost


# 300 seeded trees, in ten batches of 30.
@pytest.mark.parametrize("first", range(0, 300, 30))
def test_compute_paths_matches_recursive_table_and_exhaustive_search(first):
    for s in range(first, first + 30):
        root, nodes = seeded_tree(s)
        index = {node: i for i, node in enumerate(nodes)}
        oracle = recursive_path_table(root)
        for node in nodes:
            valid, viable = compute_paths(node)
            assert chain_ids(valid, index) == chain_ids(oracle[node][0], index)
            assert chain_ids(viable, index) == chain_ids(oracle[node][1], index)
            for found, allowed in (
                (valid, (Color.GREEN,)),
                (viable, (Color.GREEN, Color.YELLOW)),
            ):
                scores = [
                    chain_score(chain)
                    for chain in root_down_chains(node)
                    if all(n.color in allowed for n in chain)
                ]
                best = max(scores, key=lambda lc: (lc[0], -lc[1]), default=None)
                assert (None if found is None else (found.length, found.cost)) == best


@pytest.mark.parametrize("first", range(0, 300, 30))
def test_prune_tree_matches_recursive_walk(first):
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=2000.0, h_init=0.1)
    for s in range(first, first + 30):
        (root, nodes), (oracle_root, oracle_nodes) = seeded_tree(s), seeded_tree(s)
        assert prune_tree(root, params) == recursive_prune_tree(oracle_root, params)
        index = {node: i for i, node in enumerate(nodes)}
        oracle_index = {node: i for i, node in enumerate(oracle_nodes)}
        survivors = [index[n] for n, _ in breadth_first(root)]
        assert survivors == [oracle_index[n] for n, _ in breadth_first(oracle_root)]
        for i in survivors:
            assert [index[c] for c in nodes[i].children] == [
                oracle_index[c] for c in oracle_nodes[i].children
            ]
            assert nodes[i].h_base == oracle_nodes[i].h_base
