"""Spectral travelling-wave problem: operators, residual, symmetry, data."""

from dataclasses import replace

import numpy as np
import pytest

from arctree import (
    KsConfig,
    data_path,
    grid,
    ks_jacobian,
    ks_problem,
    ks_residual,
    load_ks_fixture,
    natural_continuation,
    parse_parameters,
    reflect_profile,
    reflect_state,
    spectral_operators,
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
    d1, d2, d4, _ = spectral_operators(n)
    x = grid(n)
    w = np.sin(3 * x) + 0.5 * np.cos(7 * x)
    assert d1 @ w == pytest.approx(3 * np.cos(3 * x) - 3.5 * np.sin(7 * x), abs=1e-12)
    assert d2 @ w == pytest.approx(-9 * np.sin(3 * x) - 24.5 * np.cos(7 * x), abs=1e-11)
    assert d4 @ w == pytest.approx(81 * np.sin(3 * x) + 1200.5 * np.cos(7 * x), abs=1e-8)


def test_first_derivative_is_skew_symmetric():
    d1 = spectral_operators(64)[0]
    assert np.abs(d1 + d1.T).max() <= 1e-10


def test_fourth_derivative_is_second_squared():
    _, d2, d4, _ = spectral_operators(32)
    assert d4 == pytest.approx(d2 @ d2, abs=1e-8)


def test_dealias_mask_is_a_projector():
    dealias = spectral_operators(32)[3]
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


def test_phase_row_vanishes_at_the_reference():
    n = 32
    x = grid(n)
    w = np.cos(x) + 0.2 * np.sin(2 * x)
    config = KsConfig(n_grid=n, reference_profile=w)
    z = make_state(config, w)
    assert ks_residual(config, z)[n] == 0.0
    # moving along the reference gradient changes the row linearly
    d1 = spectral_operators(n)[0]
    direction = d1 @ w
    z2 = make_state(config, w + 1e-3 * direction)
    expected = 1e-3 * float(direction @ direction) / n
    assert ks_residual(config, z2)[n] == pytest.approx(expected, rel=1e-12)


def test_jacobian_matches_finite_differences():
    n = 32
    x = grid(n)
    config = KsConfig(n_grid=n, reference_profile=np.cos(x))
    z = make_state(config, 0.8 * np.cos(x) - 0.3 * np.sin(2 * x), c=0.2, lam=0.4)
    analytic = ks_jacobian(config, z)
    numeric = fd_jacobian(lambda v: ks_residual(config, v), z)
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
    # of the original, provided the phase reference is reflected too.
    n = 64
    x = grid(n)
    rng = np.random.default_rng(3)
    w = np.cos(x) + 0.1 * rng.standard_normal(n)
    ref = np.cos(x + 0.2)
    config = KsConfig(n_grid=n, reference_profile=ref)
    mirrored = KsConfig(n_grid=n, reference_profile=reflect_profile(ref))
    z = make_state(config, w, c=0.15, lam=0.31)
    r = ks_residual(config, z)
    r_mirror = ks_residual(mirrored, reflect_state(config, z))
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


def test_reference_profile_shape_is_checked():
    with pytest.raises(ValueError):
        KsConfig(n_grid=32, reference_profile=np.zeros(16))


def test_config_copies_its_reference():
    ref = np.ones(32)
    config = KsConfig(n_grid=32, reference_profile=ref)
    ref[0] = 99.0
    assert config.reference_profile[0] == 1.0


def test_on_accept_refreshes_the_phase_anchor():
    config = KsConfig(n_grid=32)
    problem = ks_problem(config)
    problem.on_accept(make_state(config, np.full(32, 2.5)))
    assert config.reference_profile == pytest.approx(np.full(32, 2.5))


def test_natural_continuation_reanchors_the_phase():
    z0, config = load_ks_fixture()
    # The packaged H_MIN suits arclength steps; natural steps are DELTA_LAMBDA.
    params = replace(
        parse_parameters(data_path("ks_n128.params")), h_min=1e-6, round_limit=3
    )
    trace = natural_continuation(ks_problem(config), params, z0)
    assert len(trace.accepted_points) > 1
    last = trace.accepted_points[-1].z
    assert np.array_equal(config.reference_profile, last[: config.n_grid])


def test_packaged_fixture_converges():
    z, config = load_ks_fixture()
    assert z.shape == (130,)
    assert config.n_grid == 128
    assert config.amplitude == 8.09
    assert z[config.lambda_index] == pytest.approx(0.1828)
    assert z[config.n_grid] == 0.0  # starts on the standing branch
    r = ks_residual(config, z)
    assert np.abs(r).max() <= 5e-7
    assert r[config.n_grid] == 0.0  # reference equals the profile itself


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
