"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS line on success; run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctree import (
    TerminationReason,
    circle_problem,
    data_path,
    export_dot,
    ks_problem,
    load_ks_fixture,
    natural_continuation,
    parse_parameters,
    read_curve,
    run_continuation,
    serial_pac,
    write_curve,
    write_parameters,
)
from arctree.cli import main as cli_main
from arctree.engine import WorkerPool, corrector_round, spawn_round
from arctree.problems import ks_jacobian, ks_residual
from arctree.tree import (
    Color,
    PathMetrics,
    assign_color,
    choose_best_path,
    compute_paths,
    count_nodes,
    iter_nodes,
    prune_tree,
)
from conftest import build_prune_fixture, make_node, make_params
from test_engine import slow_params, slow_problem, started_root
from test_fileio import finite, run_params

CIRCLE_START = np.array([1.0, 0.0])


def circle_params():
    return parse_parameters(data_path("circle.params"))


def ks_params():
    # the packaged parameter file plus the benchmark's in-flight budget
    return replace(parse_parameters(data_path("ks_n128.params")), worker_budget=12)


def arc_length(points):
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


# ---------------------------------------------------------------------------
# Criterion 1: both arclength methods traverse the circle's folds while
# natural continuation stalls, all within one second.
# ---------------------------------------------------------------------------


def test_criterion_1_fold_traversal():
    params = circle_params()
    assert params.tol_residual == 1e-10
    assert params.h_min == 1e-8
    assert params.max_depth == 2 and params.max_children == 3
    assert params.scalings == (0.75, 1.0, 2.0)

    start = time.perf_counter()
    serial = serial_pac(circle_problem(), params, CIRCLE_START)
    tree = run_continuation(circle_problem(), params, CIRCLE_START)
    natural = natural_continuation(circle_problem(), params, CIRCLE_START)
    wall = time.perf_counter() - start

    for label, points in (
        ("serial", [p.z for p in serial.accepted_points]),
        ("tree", [p.z for p in tree.accepted_points]),
    ):
        pts = np.array(points)
        errors = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)
        assert errors.max() <= 1e-10, label
        # passes near (0, 1) and reaches (-1, 0): both folds crossed
        assert np.linalg.norm(pts - [0.0, 1.0], axis=1).min() <= 0.3, label
        assert pts[:, 0].min() <= -0.9, label

    assert natural.termination_reason is TerminationReason.STEP_UNDERFLOW
    nat = np.array([p.z for p in natural.accepted_points])
    # Solutions exist up to lambda = sqrt(1 + tol), so "stalls below the
    # fold" is checkable only at the residual tolerance itself.
    assert nat[:, 1].max() <= 1.0 + 1e-10
    assert nat[:, 1].max() >= 1.0 - 1e-3
    assert nat[:, 0].min() >= -1e-5

    assert wall < 1.0
    print(
        f"PASS criterion 1: folds traversed by serial "
        f"({len(serial.accepted_points)} pts) and tree "
        f"({len(tree.accepted_points)} pts); natural stalled at "
        f"lambda={nat[:, 1].max():.12f}; wall {wall:.2f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 2: a one-child one-level tree with unit scaling reproduces the
# serial stepper point for point when h_max = |h_init|, so neither grows
# its step.
# ---------------------------------------------------------------------------


def test_criterion_2_degenerate_tree_matches_serial():
    params = make_params(
        max_depth=1, max_children=1, scalings=(1.0,), h_init=0.1, h_max=0.1
    )
    tree = run_continuation(circle_problem(), params, CIRCLE_START)
    serial = serial_pac(circle_problem(), params, CIRCLE_START)
    a = np.array([p.z for p in tree.accepted_points])
    b = np.array([p.z for p in serial.accepted_points])
    assert np.array_equal(a, b)
    print(f"PASS criterion 2: degenerate tree == serial, {len(a)} points, bit-exact")


# ---------------------------------------------------------------------------
# Criterion 3: the pruning walkthrough: rates h/4 vs 5h/24 keep the
# confirmed chain inside the subtree, rates h/2 vs 9h/16 prefer the
# speculative branch at the root, and the final tree has 5 nodes.
# ---------------------------------------------------------------------------


def test_criterion_3_prune_walkthrough():
    h = 8.0
    f = build_prune_fixture(h)
    params = make_params(scalings=(0.25, 1.0, 1.5), h_max=1e6, h_init=0.1)

    valid_a, viable_a = compute_paths(f.a)
    assert valid_a.length / valid_a.cost == pytest.approx(h / 4)
    assert viable_a.length / (viable_a.cost + 1) == pytest.approx(5 * h / 24)
    assert choose_best_path(valid_a, viable_a) is valid_a

    # At the root the viable chain (root, b, b1) is compared against the
    # best all-GREEN chain through the other child a, assembled the same
    # way the pruning stage assembles it.
    viable_r = compute_paths(f.root)[1]
    assert viable_r.nodes == [f.root, f.b, f.b1]
    assert viable_r.length / (viable_r.cost + 1) == pytest.approx(9 * h / 16)
    through_a = PathMetrics(
        length=abs(f.root.h_init) + valid_a.length,
        cost=max(f.root.nu, valid_a.cost + f.a.nu_init),
        nodes=[f.root] + valid_a.nodes,
    )
    assert through_a.length / through_a.cost == pytest.approx(h / 2)
    assert choose_best_path(through_a, viable_r) is viable_r

    prune_tree(f.root, params)
    assert f.root.children == [f.b, f.r]
    assert f.b.children == [f.b1]
    assert f.r.children == [f.k2]
    assert count_nodes(f.root) == 5
    print(
        "PASS criterion 3: rates 2.0 vs 5/3 keep the confirmed chain, "
        "4.0 vs 4.5 switch to the speculative branch; 5 nodes survive"
    )


# ---------------------------------------------------------------------------
# Criterion 4: the four coloring rows at the published constants.
# ---------------------------------------------------------------------------


def test_criterion_4_coloring_rows():
    tol, gamma, mu, max_iter = 5e-7, 2.0, 0.5, 4
    params = make_params(
        tol_residual=tol, gamma=gamma, mu=mu, max_iter=max_iter
    )

    rows = [
        # (nu, previous residual, current residual, expected color)
        (2, 1e-3, 1e-8, Color.GREEN),
        (2, 1e-2, 5e-4, Color.YELLOW),  # 5e-4^2 = 2.5e-7 <= 5e-7
        (3, 1e-3, 8e-4, Color.BLACK),  # 8e-4 > 0.5 * 1e-3 and 8e-4^2 > 5e-7
        (1, 1e-2, 4e-3, Color.RED),  # converging but not yet close
    ]
    for nu, prev, cur, expected in rows:
        node = make_node(Color.RED, nu=nu, h_init=0.1, residual=cur)
        node.residual_norm_previous = prev
        got = assign_color(node, params)
        assert got is expected, (nu, prev, cur, got)

    # the iteration cap also blackens a still-converging sequence
    capped = make_node(Color.RED, nu=max_iter + 1, h_init=0.1, residual=1e-2)
    capped.residual_norm_previous = 1e-1
    assert assign_color(capped, params) is Color.BLACK
    print("PASS criterion 4: all four coloring rows reproduced at the "
          "published constants")


# ---------------------------------------------------------------------------
# Criterion 5: the 128-mode spectral run covers at least 50 units of
# arclength with every emitted point re-verified offline.
# ---------------------------------------------------------------------------


def test_criterion_5_spectral_branch_run():
    z0, config = load_ks_fixture()
    params = ks_params()
    problem = ks_problem(config)

    analytic = ks_jacobian(config, z0, z0)
    eps = 1e-6
    fd = np.empty_like(analytic)
    for j in range(z0.shape[0]):
        dz = np.zeros_like(z0)
        dz[j] = eps
        fd[:, j] = (
            ks_residual(config, z0 + dz, z0) - ks_residual(config, z0 - dz, z0)
        ) / (2 * eps)
    rel = np.abs(analytic - fd).max() / np.abs(analytic).max()
    assert rel <= 1e-5

    start = time.perf_counter()
    result = run_continuation(problem, params, z0, n_workers=3)
    wall = time.perf_counter() - start
    assert wall <= 300.0

    pts = np.array([p.z for p in result.accepted_points])
    arc = arc_length(pts)
    assert arc >= 50.0

    # offline re-verification: anchor the phase at each row itself
    worst = 0.0
    for row in pts:
        r = ks_residual(config, row, row)
        assert r[128] == 0.0
        worst = max(worst, float(np.abs(r).max()))
    assert worst <= 5e-7

    print(
        f"PASS criterion 5: {len(pts)} points, arclength {arc:.0f} >= 50, "
        f"max offline residual {worst:.1e} <= 5e-7, "
        f"Jacobian vs FD {rel:.1e} <= 1e-5, wall {wall:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 6: tree rounds on the spectral problem stay within the serial
# stepper's corrector-step count.
# ---------------------------------------------------------------------------


def test_criterion_6_rounds_vs_serial_steps(tmp_path):
    params = ks_params()

    z0, config = load_ks_fixture()
    tree = run_continuation(ks_problem(config), params, z0, n_workers=3)

    z0, config = load_ks_fixture()  # fresh anchor closure for fairness
    serial = serial_pac(ks_problem(config), params, z0)

    lines = [
        f"{'algorithm':<10} {'points':>8} {'rounds':>8} {'steps':>8} {'failures':>9}",
        f"{'tree':<10} {len(tree.accepted_points):>8} {tree.rounds_executed:>8} "
        f"{tree.corrector_steps_total:>8} {tree.failures:>9}",
        f"{'serial':<10} {len(serial.accepted_points):>8} {'-':>8} "
        f"{serial.corrector_steps_total:>8} {serial.failures:>9}",
    ]
    table = "\n".join(lines)
    (tmp_path / "rounds_vs_serial.txt").write_text(table + "\n", encoding="utf-8")
    print(table)

    # Both counters are deterministic, so the bound can be asserted, not
    # just reported: a round of parallel correction replaces one serial
    # corrector step.
    assert tree.rounds_executed <= serial.corrector_steps_total
    # Both runs end where the CLI would exit 0.
    assert tree.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    assert serial.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    print(
        f"PASS criterion 6: {tree.rounds_executed} tree rounds <= "
        f"{serial.corrector_steps_total} serial corrector steps"
    )


# ---------------------------------------------------------------------------
# Criterion 7: runs with 3 and 12 workers write byte-identical curves.
# ---------------------------------------------------------------------------


def test_criterion_7_worker_count_reproducibility(tmp_path):
    outs = {}
    for workers in (3, 12):
        outdir = tmp_path / f"w{workers}"
        rc = cli_main(
            [
                "--params", str(data_path("ks_n128.params")),
                "--initial-point", str(data_path("ks_start_n128.txt")),
                "--problem", "ks",
                "--budget", "12",
                "--workers", str(workers),
                "--outdir", str(outdir),
            ]
        )
        assert rc == 0
        outs[workers] = (outdir / "curve.txt").read_bytes()
    assert outs[3] == outs[12]
    n_rows = outs[3].count(b"\n")
    print(
        f"PASS criterion 7: 3-worker and 12-worker runs wrote "
        f"byte-identical curve.txt ({n_rows} rows)"
    )


# ---------------------------------------------------------------------------
# Criterion 8: file formats round trip under randomized inputs, and the
# DOT snapshot of a fully grown budget-12 tree has 13 vertices and 12
# edges.
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(run_params())
def test_criterion_8a_parameter_round_trip(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("accept") / "roundtrip.params"
    write_parameters(params, path)
    assert parse_parameters(path) == params


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=6)
)
def test_criterion_8b_curve_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("accept") / "roundtrip_curve.txt"
    write_curve(path, [np.array(r) for r in rows])
    assert np.array_equal(read_curve(path), np.array(rows))


def parse_dot(text):
    nodes = set(re.findall(r"\bn(\d+) \[", text))
    edges = re.findall(r"\bn(\d+) -> n(\d+);", text)
    return nodes, edges


def test_criterion_8c_dot_snapshot_of_full_tree(tmp_path):
    problem = slow_problem()
    params = slow_params()
    root = started_root(problem, params, np.zeros(2))
    pool = WorkerPool(1)
    for _ in range(2):
        active = sum(
            1 for n in iter_nodes(root) if n.color in (Color.RED, Color.YELLOW)
        )
        spawn_round(root, params, params.worker_budget - active)
        corrector_round(root, problem, params, pool)
    assert count_nodes(root) == 13

    path = export_dot(root, 2, tmp_path)
    nodes, edges = parse_dot(path.read_text(encoding="utf-8"))
    assert len(nodes) == 13
    assert len(edges) == 12
    targets = [b for _, b in edges]
    assert len(set(targets)) == 12  # every non-root has exactly one parent
    assert "0" in nodes and "0" not in targets
    print(
        "PASS criterion 8: parameter and curve files round trip (100 "
        "randomized cases each); DOT snapshot has 13 vertices, 12 edges"
    )
