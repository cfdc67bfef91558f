"""Spectral travelling-wave problem: operators, residual, symmetry, data."""

import dataclasses
import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest

import arctree.engine
import arctree.problems
from arctree import (
    KsConfig,
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
from arctree.problem import evaluate_residual
from arctree.problems import (
    grid,
    ks_derivatives,
    ks_jacobian,
    ks_operators,
    ks_residual,
    reflect_profile,
    reflect_state,
)
from arctree.tree import unfinished_nodes


def make_state(config, w, c=0.0, lam=0.3):
    z = np.empty(config.n_dim)
    z[: config.n_grid] = w
    z[config.n_grid] = c
    z[config.lambda_index] = lam
    return z


def fd_jacobian(fn, z, eps=1e-6):
    base = fn(z)
    out = np.empty((base.shape[0], z.shape[0]))
    for j in range(z.shape[0]):
        dz = np.zeros_like(z)
        dz[j] = eps
        out[:, j] = (fn(z + dz) - fn(z - dz)) / (2 * eps)
    return out


# ---------------------------------------------------------------------------
# Differentiation matrices
# ---------------------------------------------------------------------------


def test_first_derivative_is_exact_on_low_modes():
    n = 64
    d1, d2, d4 = ks_operators(n).rows.reshape(3, n, n)
    x = grid(n)
    w = np.sin(3 * x) + 0.5 * np.cos(7 * x)
    assert d1 @ w == pytest.approx(3 * np.cos(3 * x) - 3.5 * np.sin(7 * x), abs=1e-12)
    assert d2 @ w == pytest.approx(-9 * np.sin(3 * x) - 24.5 * np.cos(7 * x), abs=1e-11)
    assert d4 @ w == pytest.approx(81 * np.sin(3 * x) + 1200.5 * np.cos(7 * x), abs=1e-8)


def test_first_derivative_is_skew_symmetric():
    d1 = ks_operators(64).rows.reshape(3, 64, 64)[0]
    assert np.abs(d1 + d1.T).max() <= 1e-10


def test_fourth_derivative_is_second_squared():
    _, d2, d4 = ks_operators(32).rows.reshape(3, 32, 32)
    assert d4 == pytest.approx(d2 @ d2, abs=1e-8)


def dealias_projector(n):
    """The two-thirds rule as a dense matrix: it zeroes every mode above n // 3."""
    spec = np.fft.rfft(np.eye(n), axis=0)
    keep = np.arange(n // 2 + 1) <= n // 3
    return np.fft.irfft(spec * keep[:, None], n=n, axis=0)


def test_dealiased_first_derivative_cuts_the_modes_above_a_third():
    ops = ks_operators(32)
    x = grid(32)
    # mode 10 is within the kept band (k <= 32 // 3), mode 11 is not
    kept = ops.d1_dealiased @ np.cos(10 * x)
    assert kept == pytest.approx(-10 * np.sin(10 * x), abs=1e-12)
    assert np.abs(ops.d1_dealiased @ np.cos(11 * x)).max() <= 1e-12
    d1 = ops.rows.reshape(3, 32, 32)[0]
    assert np.abs(ops.d1_dealiased - d1 @ dealias_projector(32)).max() <= 1e-13


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


def test_zero_profile_is_an_equilibrium():
    config = KsConfig(n_grid=32)
    z = make_state(config, np.zeros(32))
    assert np.abs(ks_residual(config, z)).max() == 0.0


def test_residual_matches_hand_computation_on_a_sine():
    # For w = sin x at wave speed c the rows are
    #   -c cos x + (1/2) sin 2x - sin x + lam sin x - A sin(sin x)
    # (the quadratic term w w' = (1/2) sin 2x survives dealiasing).
    n, lam, c, amp = 128, 0.3, 0.7, 8.09
    config = KsConfig(n_grid=n, amplitude=amp)
    x = grid(n)
    z = make_state(config, np.sin(x), c=c, lam=lam)
    expected = (
        -c * np.cos(x)
        + 0.5 * np.sin(2 * x)
        - np.sin(x)
        + lam * np.sin(x)
        - amp * np.sin(np.sin(x))
    )
    rows = ks_residual(config, z)
    assert rows[:n] == pytest.approx(expected, abs=5e-9)


def term_by_term_residual(config, z, ref):
    """ks_residual written as one product per operator, anchored at ref.

    The terms are summed in ks_residual's order, so the bits must agree.
    """
    n = config.n_grid
    ops = ks_operators(n)
    d1, d2, d4 = ops.rows.reshape(3, n, n)
    w, c, lam = z[:n], z[n], z[n + 1]
    pde = (
        0.5 * (ops.d1_dealiased @ (w * w))
        - c * (d1 @ w)
        + d2 @ w
        + lam * (d4 @ w)
        - config.amplitude * np.sin(w)
    )
    phase = float((w - ref) @ (d1 @ ref)) / n
    return np.concatenate([pde, [phase]])


def test_residual_equals_the_term_by_term_formula():
    # The stacked product keeps the arithmetic of one product per
    # operator, so the bits must agree, with the phase anchored at a base.
    z0, config = load_ks_fixture()
    n = config.n_grid
    rng = np.random.default_rng(3)
    base = z0 + 0.01 * rng.standard_normal(z0.shape)
    for z in (z0, z0 + 1e-2 * rng.standard_normal(z0.shape)):
        expected = term_by_term_residual(config, z, base[:n])
        assert np.array_equal(ks_residual(config, z, base), expected)


def test_phase_row_vanishes_at_the_reference():
    n = 32
    x = grid(n)
    w = np.cos(x) + 0.2 * np.sin(2 * x)
    config = KsConfig(n_grid=n)
    z = make_state(config, w)
    assert ks_residual(config, z, z)[n] == 0.0
    # moving along the reference gradient changes the row linearly
    d1 = ks_operators(n).rows.reshape(3, n, n)[0]
    direction = d1 @ w
    z2 = make_state(config, w + 1e-3 * direction)
    expected = 1e-3 * float(direction @ direction) / n
    assert ks_residual(config, z2, z)[n] == pytest.approx(expected, rel=1e-12)


def test_operator_caches_are_read_only():
    # An in-place write to a cached operator would corrupt every later call.
    for op in ks_operators(32):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        with pytest.raises(ValueError):
            op *= 2.0


def test_stacked_operators_are_views_of_the_three_planes():
    n = 32
    ops = ks_operators(n)
    planes = ops.rows.reshape(3, n, n)
    assert np.array_equal(ops.flat, planes.reshape(3, n * n))
    for plane in planes:
        assert np.shares_memory(ops.rows, plane)
        assert np.shares_memory(ops.flat, plane)


def dense_ks_jacobian(config, z, ref, conservative=True):
    """The Jacobian written out term by term, as the oracle for ks_jacobian.

    Anchored at the reference profile ref.  With conservative=False it is
    the Jacobian of nonconservative_residual instead.
    """
    n = config.n_grid
    d1, d2, d4 = ks_operators(n).rows.reshape(3, n, n)
    dealias = dealias_projector(n)
    w, c, lam = z[:n], z[n], z[n + 1]
    d1w = d1 @ w
    if conservative:
        quadratic = d1 @ dealias @ np.diag(w)
    else:
        quadratic = dealias @ (np.diag(d1w) + w[:, None] * d1)
    j_ww = (
        -c * d1
        + quadratic
        + d2
        + lam * d4
        - config.amplitude * np.diag(np.cos(w))
    )
    top = np.hstack([j_ww, -d1w[:, None], (d4 @ w)[:, None]])
    phase_row = np.zeros(n + 2)
    phase_row[:n] = (d1 @ ref) / n
    return np.vstack([top, phase_row[None, :]])


def nonconservative_residual(config, z, ref):
    """ks_residual with the quadratic term as dealias (w w'), anchored at ref.

    The two forms agree on profiles band-limited to n // 3.
    """
    n = config.n_grid
    d1, d2, d4 = ks_operators(n).rows.reshape(3, n, n)
    w, c, lam = z[:n], z[n], z[n + 1]
    d1w = d1 @ w
    pde = (
        -c * d1w
        + dealias_projector(n) @ (w * d1w)
        + d2 @ w
        + lam * (d4 @ w)
        - config.amplitude * np.sin(w)
    )
    return np.append(pde, (w - ref) @ (d1 @ ref) / n)


def test_jacobian_matches_the_dense_formula():
    z0, config = load_ks_fixture()
    rng = np.random.default_rng(5)
    base = z0 + 0.01 * rng.standard_normal(z0.shape)
    for z in (z0, z0 + 1e-2 * rng.standard_normal(z0.shape)):
        z[128] = 0.3  # a non-zero wave speed exercises the c D1 term
        fused = ks_jacobian(config, z, base)
        dense = dense_ks_jacobian(config, z, base[:128])
        assert fused.shape == dense.shape == (129, 130)
        assert np.abs(fused - dense).max() <= 1e-13 * np.abs(dense).max()


def term_by_term_jacobian(config, z, ref):
    """ks_jacobian written as one product per operator, anchored at ref.

    The state block is d1_dealiased with its columns scaled by w, plus
    the [-c, 1, lam] product by the flattened operators, minus
    A cos w on the diagonal, in ks_jacobian's order, so the bits must
    agree; the c and lambda columns are -D1 w and D4 w, and the phase
    row is (D1 ref) / n.
    """
    n = config.n_grid
    ops = ks_operators(n)
    w, c, lam = z[:n], z[n], z[n + 1]
    state = ops.d1_dealiased * w
    state += (np.array([-c, 1.0, lam]) @ ops.flat).reshape(n, n)
    state[np.diag_indices(n)] -= config.amplitude * np.cos(w)
    d1, _, d4 = ops.rows.reshape(3, n, n)
    top = np.hstack([state, -(d1 @ w)[:, None], (d4 @ w)[:, None]])
    phase_row = np.zeros(n + 2)
    phase_row[:n] = (d1 @ ref) / n
    return np.vstack([top, phase_row[None, :]])


def test_jacobian_equals_the_term_by_term_formula():
    z0, config = load_ks_fixture()
    n = config.n_grid
    rng = np.random.default_rng(17)
    points = [z0, z0 + 1e-2 * rng.standard_normal(z0.shape)]
    points[1][n] = 0.3  # a non-zero wave speed exercises the c D1 term
    bases = [z0, points[1], z0 + 1e-2 * rng.standard_normal(z0.shape)]
    for z in points:
        for base in bases:
            expected = term_by_term_jacobian(config, z, base[:n])
            assert np.array_equal(ks_jacobian(config, z, base), expected)


@pytest.mark.parametrize("kind", ["float32", "int", "strided"])
def test_any_point_array_gets_the_term_by_term_bits(kind):
    # The derivatives are memoized by the float64 bytes of the profile, so
    # a point of another dtype or layout must still get the numbers numpy
    # gives it term by term, where the other terms keep its own dtype.
    z0, config = load_ks_fixture()
    n = config.n_grid
    rng = np.random.default_rng(19)
    z = z0 + 1e-2 * rng.standard_normal(z0.shape)
    z[n] = 0.3
    if kind == "float32":
        z = z.astype(np.float32)
    elif kind == "int":
        z = np.round(8 * z).astype(int)
    else:
        wide = np.zeros(2 * z.size)
        wide[::2] = z
        z = wide[::2]
    for base in (z, z0):
        ref = base[:n]
        assert np.array_equal(
            ks_residual(config, z, base), term_by_term_residual(config, z, ref)
        )
        assert np.array_equal(
            ks_jacobian(config, z, base), term_by_term_jacobian(config, z, ref)
        )


def test_memoized_derivatives_are_read_only_and_bounded():
    z0, config = load_ks_fixture()
    n = config.n_grid
    derivs = ks_derivatives(n, z0[:n])
    assert np.array_equal(derivs, np.dot(ks_operators(n).rows, z0[:n]))
    assert ks_derivatives(n, z0[:n].copy()) is derivs
    with pytest.raises(ValueError):
        derivs[0] = 1.0
    with pytest.raises(ValueError):
        derivs *= 2.0
    assert 0 < arctree.problems._derivatives.cache_info().maxsize < math.inf


def test_an_edited_point_is_never_served_a_stale_result():
    # The memo is keyed by content, so a point or base edited in place,
    # after both were evaluated, gets the bits of the edited values.
    z0, config = load_ks_fixture()
    n = config.n_grid
    rng = np.random.default_rng(23)
    z, base = z0.copy(), z0.copy()
    for fn in (ks_residual, ks_jacobian):
        fn(config, z, base)
    z[:n] += 1e-3 * rng.standard_normal(n)
    base[5] += 1e-3
    assert np.array_equal(
        ks_residual(config, z, base), term_by_term_residual(config, z, base[:n])
    )
    assert np.array_equal(
        ks_jacobian(config, z, base), term_by_term_jacobian(config, z, base[:n])
    )


def test_a_run_computes_each_profile_once_and_reuses_none_across_runs(monkeypatch):
    # Within a ks128-tree run every profile is computed once, however often
    # a step asks for it; a second identical run misses exactly as often,
    # so nothing a run computed serves the next.
    z0, config = load_ks_fixture()
    params = replace(
        parse_parameters(data_path("ks_n128.params")), worker_budget=12, round_limit=40
    )
    memo = arctree.problems._derivatives
    keys = []

    def spy(n, profile):
        keys.append(profile)
        return memo(n, profile)

    monkeypatch.setattr(arctree.problems, "_derivatives", spy)
    memo.cache_clear()  # of the profiles earlier tests left
    misses = []
    for _ in range(2):
        keys.clear()
        before = memo.cache_info().misses
        run_continuation(ks_problem(config), params, z0)
        misses.append(memo.cache_info().misses - before)
        assert misses[-1] == len(set(keys)) < len(keys)
    assert misses[0] == misses[1]


def test_carried_residuals_are_never_stale(monkeypatch):
    # Every residual a node carries into a step, across emissions too, is
    # F(zeta) with the phase anchored at the sequence's own base point.
    z0, config = load_ks_fixture()
    problem = ks_problem(config)
    params = replace(
        parse_parameters(data_path("ks_n128.params")),
        worker_budget=12,
        round_limit=10,
    )
    step = arctree.engine.corrector_step
    carried = []

    def spy(problem, zeta, tangent, z_base, h, f, turn):
        if f is not None:
            fresh = evaluate_residual(problem, zeta, z_base)
            carried.append(f.tobytes() == fresh.tobytes())
        return step(problem, zeta, tangent, z_base, h, f, turn)

    monkeypatch.setattr(arctree.engine, "corrector_step", spy)
    result = run_continuation(problem, params, z0)
    assert len(result.accepted_points) > 2
    assert len(carried) > 50
    assert all(carried)


@pytest.mark.parametrize("algorithm", ["tree", "serial-pac"])
def test_every_evaluation_is_anchored_at_its_sequence_base(monkeypatch, algorithm):
    # Inside engine.step, the residual and the Jacobian get the stepped
    # node's seed point z_init; every other evaluation re-verifies a point,
    # which is then its own base.
    z0, config = load_ks_fixture()
    inner = ks_problem(config)
    params = replace(
        parse_parameters(data_path("ks_n128.params")),
        worker_budget=12,
        round_limit=12,
    )
    stepping = []
    in_step, reverified = [], []

    def record(fn):
        def anchored(z, z_base):
            if stepping:
                in_step.append(np.array_equal(z_base, stepping[-1]))
            else:
                reverified.append(np.array_equal(z_base, z))
            return fn(z, z_base)

        return anchored

    step = arctree.engine.step

    def spy(problem, node, turn):
        stepping.append(node.z_init.copy())
        try:
            return step(problem, node, turn)
        finally:
            stepping.pop()

    monkeypatch.setattr(arctree.engine, "step", spy)
    problem = replace(
        inner, residual=record(inner.residual), jacobian=record(inner.jacobian)
    )
    run = run_continuation if algorithm == "tree" else serial_pac
    result = run(problem, params, z0)
    assert len(result.accepted_points) > 2
    assert len(in_step) > 50 and all(in_step)
    # One re-verification per accepted point, the start's included.
    assert reverified == [True] * len(result.accepted_points)


@pytest.mark.parametrize("algorithm", ["tree", "serial-pac"])
def test_the_start_residual_is_evaluated_once(algorithm):
    # Only the start's emission evaluates the residual at z0 anchored at
    # z0 itself; bootstrap's neighbor solve is anchored there but steps
    # away from it.
    z0, config = load_ks_fixture()
    inner = ks_problem(config)
    params = replace(
        parse_parameters(data_path("ks_n128.params")),
        worker_budget=12,
        round_limit=6,
    )
    at_start = []

    def residual(z, z_base):
        at_start.append(np.array_equal(z, z0) and np.array_equal(z_base, z0))
        return inner.residual(z, z_base)

    run = run_continuation if algorithm == "tree" else serial_pac
    result = run(replace(inner, residual=residual), params, z0)
    assert len(result.accepted_points) > 1
    assert sum(at_start) == 1


def test_jacobian_matches_finite_differences():
    n = 32
    x = grid(n)
    config = KsConfig(n_grid=n)
    base = make_state(config, np.cos(x))
    low = 0.8 * np.cos(x) - 0.3 * np.sin(2 * x)
    # Energy in modes 11-15, above n // 3, where w * w aliases.
    high = low + sum(0.1 * np.sin(k * x + k) for k in range(11, 16))
    for w in (low, high):
        z = make_state(config, w, c=0.2, lam=0.4)
        analytic = ks_jacobian(config, z, base)
        numeric = fd_jacobian(lambda v: ks_residual(config, v, base), z)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - numeric).max() / scale <= 1e-6


def ks128_tree(z0, config):
    """The ks128-tree run: the packaged KS inputs at worker budget 12."""
    params = replace(parse_parameters(data_path("ks_n128.params")), worker_budget=12)
    return run_continuation(ks_problem(config), params, z0)


def nudged_start(name, nudge):
    """The packaged ks or circle inputs, one start entry nudged by one ulp.

    Returns (problem, params, start).  nudge is None or (index, toward):
    the entry at index moves to the next float in the direction of toward,
    np.inf or -np.inf.
    A last-bit change in the start stands in for another CPU's BLAS: a
    count that such a change moves is rounding, not a property of the run.
    """
    if name == "ks":
        z0, config = load_ks_fixture()
        problem, params_file = ks_problem(config), "ks_n128.params"
    else:
        z0 = read_initial_point(data_path("circle_start.txt"))
        problem, params_file = circle_problem(), "circle.params"
    if nudge is not None:
        index, toward = nudge
        z0[index] = np.nextafter(z0[index], toward)
    return problem, parse_parameters(data_path(params_file)), z0


# The KS start nudged up at entries 5, 6 and 7; the circle start (1, 0)
# nudged up and down at each entry.  The KS ids predate the circle cases.
NUDGES = [pytest.param("ks", None, id="None")] + [
    pytest.param("ks", (i, np.inf), id=str(i)) for i in (5, 6, 7)
] + [pytest.param("circle", None, id="circle")] + [
    pytest.param("circle", (i, toward), id=f"circle-{i}-{way}")
    for i in (0, 1)
    for toward, way in ((np.inf, "up"), (-np.inf, "down"))
]


@pytest.mark.parametrize("name,nudge", NUDGES)
def test_ks128_tree_counts_survive_a_one_ulp_nudge(name, nudge):
    # ks128-tree at worker budget 12, circle-tree at the file's budget.
    problem, params, z0 = nudged_start(name, nudge)
    if name == "ks":
        params = replace(params, worker_budget=12)
    result = run_continuation(problem, params, z0)
    assert result.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    counts = (
        len(result.accepted_points),
        result.rounds_executed,
        result.corrector_steps_total,
        result.failures,
    )
    assert counts == {"ks": (76, 127, 1282, 158), "circle": (24, 36, 149, 0)}[name]


@pytest.mark.parametrize("name,nudge", NUDGES)
def test_ks128_serial_counts_survive_a_one_ulp_nudge(name, nudge):
    result = serial_pac(*nudged_start(name, nudge))
    assert result.termination_reason is TerminationReason.REACHED_LAMBDA_MAX
    counts = (
        len(result.accepted_points),
        result.corrector_steps_total,
        result.failures,
    )
    assert counts == {"ks": (259, 794, 5), "circle": (20, 57, 0)}[name]


def test_ks_natural_counts():
    # The packaged KS inputs marched in the parameter end in STEP_UNDERFLOW.
    # The counts hold under other BLAS kernel types; the curve's bits do not.
    result = natural_continuation(*nudged_start("ks", None))
    assert result.termination_reason is TerminationReason.STEP_UNDERFLOW
    counts = (
        len(result.accepted_points),
        result.corrector_steps_total,
        result.failures,
    )
    assert counts == (1777, 4101, 9)


@pytest.mark.parametrize("name", ["circle", "ks"])
def test_round_model_counts(monkeypatch, name):
    # ROADMAP's round model: T_P = sum over rounds of ceil(m_r / P), where
    # m_r is the number of corrector tasks, unfinished nodes, in round r.
    sizes = []
    corrector_round = arctree.engine.corrector_round

    def counted(root, *args):
        sizes.append(len(unfinished_nodes(root)))
        return corrector_round(root, *args)

    monkeypatch.setattr(arctree.engine, "corrector_round", counted)
    problem, params, z0 = nudged_start(name, None)
    if name == "ks":
        params = replace(params, worker_budget=12)
    result = run_continuation(problem, params, z0)
    assert sum(sizes) == result.corrector_steps_total
    model = [sum(-(-m // workers) for m in sizes) for workers in (2, 4, 12)]
    counts = (len(sizes), sum(sizes), max(sizes), *model)
    assert counts == {
        "circle": (36, 149, 11, 87, 49, 36),
        "ks": (127, 1282, 12, 654, 336, 127),
    }[name]


def test_ks128_tree_points_polish_under_the_nonconservative_form():
    # The discretisation change is bounded point by point: bordered Newton
    # steps at fixed lambda in the non-conservative form, anchored at the
    # point, meet TOL_RESIDUAL within 3 steps without moving it far.  The
    # points cannot be re-checked as they stand: the residual weighs a
    # state error by the Jacobian, whose lam D4 term has norm 1e5 and more
    # here, so the two forms' small state gap shows up as a
    # non-conservative residual of up to 1.6e-5 on this curve.
    z0, config = load_ks_fixture()
    n = config.n_grid
    tol = parse_parameters(data_path("ks_n128.params")).tol_residual
    border = np.zeros(n + 2)
    border[n + 1] = 1.0
    points = ks128_tree(z0, config).accepted_points
    assert len(points) == 76
    for point in points:
        ref = point.z[:n]
        z = point.z.copy()
        for _ in range(3):
            f = nonconservative_residual(config, z, ref)
            jacobian = dense_ks_jacobian(config, z, ref, conservative=False)
            z -= np.linalg.solve(np.vstack([jacobian, border]), np.append(f, 0.0))
            residual = np.linalg.norm(nonconservative_residual(config, z, ref))
            if residual <= tol:
                break
        assert residual <= tol
        assert np.abs(z - point.z).max() <= 1e-5


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------


def test_reflect_profile_is_an_involution():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(64)
    assert reflect_profile(reflect_profile(w)) == pytest.approx(w)


def test_reflection_maps_solutions_to_solutions():
    # The pde rows of the reflected state are the reflected negated rows
    # of the original, provided the phase base is reflected too.
    n = 64
    x = grid(n)
    rng = np.random.default_rng(3)
    w = np.cos(x) + 0.1 * rng.standard_normal(n)
    config = KsConfig(n_grid=n)
    base = make_state(config, np.cos(x + 0.2))
    z = make_state(config, w, c=0.15, lam=0.31)
    r = ks_residual(config, z, base)
    r_mirror = ks_residual(
        config, reflect_state(config, z), reflect_state(config, base)
    )
    assert r_mirror[:n] == pytest.approx(reflect_profile(r[:n]), abs=1e-10)
    # the phase row flips sign: reflection reverses the anchor's gradient
    assert r_mirror[n] == pytest.approx(-r[n], abs=1e-12)


# ---------------------------------------------------------------------------
# Configuration and packaged data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_n", [8, 12, 48, 100])
def test_grid_size_must_be_a_large_power_of_two(bad_n):
    with pytest.raises(ValueError):
        KsConfig(n_grid=bad_n)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_non_finite_amplitude_is_rejected(amplitude):
    with pytest.raises(ValueError, match="amplitude must be finite"):
        KsConfig(n_grid=32, amplitude=amplitude)


def test_fixture_with_the_wrong_entry_count_is_rejected(tmp_path, monkeypatch):
    # 129 values: one short of the 128 profile entries, c and lambda.
    short = tmp_path / "ks_start_n128.txt"
    short.write_text("\n".join(["0.0"] * 129) + "\n", encoding="utf-8")
    monkeypatch.setattr(arctree.problems, "data_path", lambda name: tmp_path / name)
    with pytest.raises(ValueError, match="fixture has 129 entries, expected 130"):
        load_ks_fixture()


def test_config_is_frozen():
    config = KsConfig(n_grid=32)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_grid = 64
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.amplitude = 1.0


def test_config_is_a_hashable_value():
    assert KsConfig(32) == KsConfig(32)
    assert KsConfig(32) != KsConfig(64)
    assert KsConfig(32) != KsConfig(32, amplitude=1.0)
    assert hash(KsConfig(32)) == hash(KsConfig(32))
    cache = {KsConfig(32): "n32"}
    assert cache[KsConfig(n_grid=32, amplitude=8.09)] == "n32"
    assert [f.name for f in dataclasses.fields(KsConfig)] == ["n_grid", "amplitude"]


def test_packaged_problems_survive_a_pickle_round_trip():
    z_ks, config = load_ks_fixture()
    cases = [
        (circle_problem(), read_initial_point(data_path("circle_start.txt"))),
        (ks_problem(config), z_ks),
    ]
    for problem, z0 in cases:
        copy = pickle.loads(pickle.dumps(problem))
        base = (z0,) if problem.anchored else ()
        for name in ("residual", "jacobian"):
            want = getattr(problem, name)(z0, *base)
            got = getattr(copy, name)(z0, *base)
            assert np.array_equal(got, want), name
    assert pickle.loads(pickle.dumps(config)) == config


def test_the_anchor_moves_only_the_phase_row():
    z0, config = load_ks_fixture()
    n = config.n_grid
    rng = np.random.default_rng(11)
    z = z0 + 1e-3 * rng.standard_normal(z0.shape)
    bases = [z0, z0 + 1e-2 * rng.standard_normal(z0.shape)]
    rows = [ks_residual(config, z, base) for base in bases]
    assert np.array_equal(rows[0][:n], rows[1][:n])
    assert rows[0][n] != rows[1][n]
    jacobians = [ks_jacobian(config, z, base) for base in bases]
    assert np.array_equal(jacobians[0][:n], jacobians[1][:n])
    # Anchored at itself, a point's phase row is exactly zero.
    assert ks_residual(config, z, z)[n] == 0.0
    assert ks_problem(config).residual(z, z)[n] == 0.0


def test_no_base_anchors_at_the_point_itself():
    z0, config = load_ks_fixture()
    rng = np.random.default_rng(13)
    for z in (z0, z0 + 1e-2 * rng.standard_normal(z0.shape)):
        for fn in (ks_residual, ks_jacobian):
            assert fn(config, z).tobytes() == fn(config, z, z).tobytes()


def test_threaded_rounds_match_one_worker_under_frequent_switches():
    # Worker threads share the problem and its read-only operators;
    # switching threads every microsecond must not change a single bit
    # of the curve.
    z0, _ = load_ks_fixture()
    params = replace(parse_parameters(data_path("ks_n128.params")), round_limit=12)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4):
            _, config = load_ks_fixture()
            problem = ks_problem(config)
            runs.append(run_continuation(problem, params, z0, n_workers=workers))
    finally:
        sys.setswitchinterval(interval)
    one, four = runs
    assert len(one.accepted_points) > 2  # sequences from several bases
    assert [p.z.tobytes() for p in four.accepted_points] == [
        p.z.tobytes() for p in one.accepted_points
    ]
    assert four.corrector_steps_total == one.corrector_steps_total


def test_natural_continuation_steps_on_the_packaged_params():
    # |DELTA_LAMBDA| 1e-4 is below H_MIN 0.01; natural continuation's floor
    # is H_MIN scaled by |DELTA_LAMBDA / H_INIT|, so it still steps.
    z0, config = load_ks_fixture()
    params = replace(parse_parameters(data_path("ks_n128.params")), round_limit=3)
    trace = natural_continuation(ks_problem(config), params, z0)
    assert trace.termination_reason is TerminationReason.ITERATION_BUDGET
    assert trace.failures == 0
    lams = [p.z[config.lambda_index] for p in trace.accepted_points]
    assert lams == pytest.approx([0.1828, 0.1827, 0.1826, 0.1825])


def test_packaged_fixture_converges():
    z, config = load_ks_fixture()
    assert z.shape == (130,)
    assert config.n_grid == 128
    assert config.amplitude == 8.09
    assert z[config.lambda_index] == pytest.approx(0.1828)
    assert z[config.n_grid] == 0.0  # starts on the standing branch
    r = ks_residual(config, z)
    assert np.abs(r).max() <= 5e-7
    assert r[config.n_grid] == 0.0  # with no base, anchored at z itself


def test_fixture_profile_is_reflection_symmetric():
    z, config = load_ks_fixture()
    w = z[: config.n_grid]
    assert reflect_profile(w) == pytest.approx(w, abs=1e-6)


def test_problem_definition_round_trip():
    z, config = load_ks_fixture()
    problem = ks_problem(config)
    assert problem.n_dim == 130
    assert problem.lambda_index == 129
    assert np.abs(problem.residual(z)).max() <= 5e-7
