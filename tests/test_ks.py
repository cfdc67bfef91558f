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
    ks_jacobian,
    ks_operators,
    ks_residual,
    reflect_profile,
    reflect_state,
)


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
    ops = ks_operators(n)
    d1, d2, d4 = ops.d1, ops.d2, ops.d4
    x = grid(n)
    w = np.sin(3 * x) + 0.5 * np.cos(7 * x)
    assert d1 @ w == pytest.approx(3 * np.cos(3 * x) - 3.5 * np.sin(7 * x), abs=1e-12)
    assert d2 @ w == pytest.approx(-9 * np.sin(3 * x) - 24.5 * np.cos(7 * x), abs=1e-11)
    assert d4 @ w == pytest.approx(81 * np.sin(3 * x) + 1200.5 * np.cos(7 * x), abs=1e-8)


def test_first_derivative_is_skew_symmetric():
    d1 = ks_operators(64).d1
    assert np.abs(d1 + d1.T).max() <= 1e-10


def test_fourth_derivative_is_second_squared():
    ops = ks_operators(32)
    assert ops.d4 == pytest.approx(ops.d2 @ ops.d2, abs=1e-8)


def test_dealias_mask_is_a_projector():
    dealias = ks_operators(32).dealias
    assert dealias @ dealias == pytest.approx(dealias, abs=1e-12)
    x = grid(32)
    # mode 10 is within the kept band (k <= 32 // 3), mode 11 is not
    kept = np.cos(10 * x)
    cut = np.cos(11 * x)
    assert dealias @ kept == pytest.approx(kept, abs=1e-12)
    assert np.abs(dealias @ cut).max() <= 1e-12


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


def test_residual_equals_the_term_by_term_formula():
    # The stacked product keeps the arithmetic of one product per
    # operator, so the bits must agree, with the phase anchored at a base.
    z0, config = load_ks_fixture()
    n = config.n_grid
    ops = ks_operators(n)
    d1, d2, d4, dealias = ops.d1, ops.d2, ops.d4, ops.dealias
    rng = np.random.default_rng(3)
    base = z0 + 0.01 * rng.standard_normal(z0.shape)
    ref = base[:n]
    for z in (z0, z0 + 1e-2 * rng.standard_normal(z0.shape)):
        w, c, lam = z[:n], z[n], z[n + 1]
        d1w = d1 @ w
        pde = (
            -c * d1w
            + dealias @ (w * d1w)
            + d2 @ w
            + lam * (d4 @ w)
            - config.amplitude * np.sin(w)
        )
        phase = float((w - ref) @ (d1 @ ref)) / n
        expected = np.concatenate([pde, [phase]])
        assert np.array_equal(ks_residual(config, z, base), expected)


def test_phase_row_vanishes_at_the_reference():
    n = 32
    x = grid(n)
    w = np.cos(x) + 0.2 * np.sin(2 * x)
    config = KsConfig(n_grid=n)
    z = make_state(config, w)
    assert ks_residual(config, z, z)[n] == 0.0
    # moving along the reference gradient changes the row linearly
    d1 = ks_operators(n).d1
    direction = d1 @ w
    z2 = make_state(config, w + 1e-3 * direction)
    expected = 1e-3 * float(direction @ direction) / n
    assert ks_residual(config, z2, z)[n] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_the_modes_span_what_the_dealias_projector_removes(n):
    ops = ks_operators(n)
    modes, modes_t = ops.modes, ops.modes_t
    assert modes.shape == (n, 2 * (n // 2 - n // 3 - 1) + 1)
    assert np.array_equal(modes_t, modes.T)
    assert np.abs(modes_t @ modes - np.eye(modes.shape[1])).max() <= 1e-14
    assert np.abs(np.eye(n) - modes @ modes_t - ops.dealias).max() <= 1e-14


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
    planes = np.stack([ops.d1, ops.d2, ops.d4])
    assert np.array_equal(ops.rows, planes.reshape(3 * n, n))
    assert np.array_equal(ops.flat, planes.reshape(3, n * n))
    for plane in (ops.d1, ops.d2, ops.d4):
        assert np.shares_memory(ops.rows, plane)
        assert np.shares_memory(ops.flat, plane)


def dense_ks_jacobian(config, z, ref):
    """The Jacobian written out term by term, as the oracle for ks_jacobian.

    Anchored at the reference profile ref.
    """
    n = config.n_grid
    ops = ks_operators(n)
    d1, d2, d4, dealias = ops.d1, ops.d2, ops.d4, ops.dealias
    w, c, lam = z[:n], z[n], z[n + 1]
    d1w = d1 @ w
    j_ww = (
        -c * d1
        + dealias @ (np.diag(d1w) + w[:, None] * d1)
        + d2
        + lam * d4
        - config.amplitude * np.diag(np.cos(w))
    )
    top = np.hstack([j_ww, -d1w[:, None], (d4 @ w)[:, None]])
    phase_row = np.zeros(n + 2)
    phase_row[:n] = (d1 @ ref) / n
    return np.vstack([top, phase_row[None, :]])


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

    def spy(problem, zeta, tangent, z_base, h, f=None):
        if f is not None:
            fresh = evaluate_residual(problem, zeta, z_base)
            carried.append(f.tobytes() == fresh.tobytes())
        return step(problem, zeta, tangent, z_base, h, f)

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

    def spy(problem, node):
        stepping.append(node.z_init.copy())
        try:
            return step(problem, node)
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
    z = make_state(config, 0.8 * np.cos(x) - 0.3 * np.sin(2 * x), c=0.2, lam=0.4)
    analytic = ks_jacobian(config, z, base)
    numeric = fd_jacobian(lambda v: ks_residual(config, v, base), z)
    scale = max(1.0, np.abs(analytic).max())
    assert np.abs(analytic - numeric).max() / scale <= 1e-6


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
