"""Built-in test problems.

Two problems ship with the package:

* ``circle``: the unit circle x^2 + lambda^2 = 1 in the plane.  Small
  enough to check every code path by hand, and it has two fold points
  (lambda = +-1) so it exercises arclength stepping where natural
  continuation stalls.

* ``ks``: travelling waves w(x - c t) of a modified
  fourth-order PDE on a 2*pi-periodic domain,

      -c w' + w w' + w'' + lambda w'''' - A sin(w) = 0,

  discretized pseudo-spectrally on n equispaced points.  The unknowns
  are the grid values of w, the wave speed c, and the viscosity lambda;
  the extra equation pins the translation phase against a reference
  profile.  The sin(u) term breaks Galilean invariance so the wave speed
  is well defined, and the branch has several folds, which makes it a
  demanding continuation target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .problem import Array, ProblemDefinition


def circle_problem() -> ProblemDefinition:
    """Unit circle in (x, lambda): F = x^2 + lambda^2 - 1."""

    def residual(z: Array) -> Array:
        return np.array([z[0] ** 2 + z[1] ** 2 - 1.0])

    def jacobian(z: Array) -> Array:
        return np.array([[2.0 * z[0], 2.0 * z[1]]])

    return ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=residual,
        jacobian=jacobian,
        name="circle",
    )


# ---------------------------------------------------------------------------
# Modified Kuramoto-Sivashinsky travelling waves
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def spectral_operators(n: int) -> tuple[Array, Array, Array, Array]:
    """Dense differentiation matrices D1, D2, D4 and the dealias projector.

    Built by transforming the identity: column j of D_p is the p-th
    spectral derivative of a unit impulse at grid point j.  The Nyquist
    mode is zeroed for odd derivative orders (it carries no usable sign
    information on a real grid).  The projector zeroes every mode above
    n // 3, the classic two-thirds rule for a quadratic nonlinearity.
    """
    eye = np.eye(n)
    spec = np.fft.rfft(eye, axis=0)
    k = np.arange(n // 2 + 1, dtype=float)

    def back(mult: Array) -> Array:
        return np.fft.irfft(spec * mult[:, None], n=n, axis=0)

    d1_mult = 1j * k
    if n % 2 == 0:
        d1_mult[-1] = 0.0
    d1 = back(d1_mult)
    d2 = back(-(k**2) + 0j)
    d4 = back(k**4 + 0j)
    mask = (k <= n // 3).astype(float) + 0j
    dealias = back(mask)
    return d1, d2, d4, dealias


def grid(n: int) -> Array:
    """Collocation points x_j = 2 pi j / n."""
    return 2.0 * np.pi * np.arange(n) / n


@dataclass
class KsConfig:
    """Discretization and closure data for the travelling-wave problem.

    reference_profile anchors the phase condition; the problem's
    on_accept hook refreshes it to the most recent accepted profile so the
    condition stays well scaled as the wave deforms along the branch.
    """

    n_grid: int
    amplitude: float = 8.09
    reference_profile: Array = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = self.n_grid
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("n_grid must be a power of two, at least 16")
        if self.reference_profile is None:
            self.reference_profile = np.zeros(n)
        else:
            self.reference_profile = np.asarray(
                self.reference_profile, dtype=float
            ).copy()
            if self.reference_profile.shape != (n,):
                raise ValueError("reference_profile must have n_grid entries")

    @property
    def n_dim(self) -> int:
        # state layout: (w_0 .. w_{n-1}, c, lambda)
        return self.n_grid + 2

    @property
    def lambda_index(self) -> int:
        return self.n_grid + 1


def ks_residual(config: KsConfig, z: Array) -> Array:
    """PDE rows on the grid plus one phase-pinning row.

    The quadratic term w * w' is formed pointwise and then dealiased;
    all derivatives are spectral.  The phase row is the inner product of
    (w - w_ref) with w_ref', scaled by 1/n so its magnitude is
    grid-size independent.
    """
    n = config.n_grid
    d1, d2, d4, dealias = spectral_operators(n)
    w = z[:n]
    c = z[n]
    lam = z[n + 1]
    d1w = d1 @ w
    pde = (
        -c * d1w
        + dealias @ (w * d1w)
        + d2 @ w
        + lam * (d4 @ w)
        - config.amplitude * np.sin(w)
    )
    ref = config.reference_profile
    phase = float((w - ref) @ (d1 @ ref)) / n
    return np.concatenate([pde, [phase]])


def ks_jacobian(config: KsConfig, z: Array) -> Array:
    """Analytic Jacobian of ks_residual, shape (n + 1, n + 2).

    The matrix is dense because of the sin(w) term.  Columns are ordered
    (w, c, lambda) to match the state layout.
    """
    n = config.n_grid
    d1, d2, d4, dealias = spectral_operators(n)
    w = z[:n]
    c = z[n]
    lam = z[n + 1]
    d1w = d1 @ w
    j_ww = (
        -c * d1
        + dealias @ (np.diag(d1w) + w[:, None] * d1)
        + d2
        + lam * d4
        - config.amplitude * np.diag(np.cos(w))
    )
    j_wc = -d1w
    j_wlam = d4 @ w
    top = np.hstack([j_ww, j_wc[:, None], j_wlam[:, None]])
    phase_row = np.zeros(n + 2)
    phase_row[:n] = (d1 @ config.reference_profile) / n
    return np.vstack([top, phase_row[None, :]])


def ks_problem(config: KsConfig) -> ProblemDefinition:
    """The travelling-wave problem; each accepted point re-anchors its phase."""

    def reanchor(z: Array) -> None:
        config.reference_profile = np.array(z[: config.n_grid])

    return ProblemDefinition(
        n_dim=config.n_dim,
        lambda_index=config.lambda_index,
        residual=lambda z: ks_residual(config, z),
        jacobian=lambda z: ks_jacobian(config, z),
        name="ks",
        on_accept=reanchor,
    )


def reflect_profile(w: Array) -> Array:
    """Apply the reflection symmetry (u, x) -> (-u, -x) on the grid.

    Grid point j maps to (n - j) mod n, so index 0 is fixed.
    """
    w = np.asarray(w)
    n = w.shape[0]
    idx = (-np.arange(n)) % n
    return -w[idx]


def reflect_state(config: KsConfig, z: Array) -> Array:
    """Reflect a full state vector: profile reflected, wave speed negated."""
    n = config.n_grid
    out = np.array(z, dtype=float)
    out[:n] = reflect_profile(z[:n])
    out[n] = -z[n]
    return out


# ---------------------------------------------------------------------------
# Packaged starting data
# ---------------------------------------------------------------------------


def data_path(name: str) -> Path:
    """Path of a packaged data file (starting points, parameter files)."""
    return Path(resources.files("arctree").joinpath("data", name))


def load_ks_fixture(n_grid: int = 128) -> tuple[Array, KsConfig]:
    """Packaged travelling-wave starting point and a matching config.

    The returned config's phase reference is the starting profile
    itself, so the phase row vanishes exactly at the starting point.
    """
    values = np.loadtxt(data_path(f"ks_start_n{n_grid}.txt"))
    if values.shape != (n_grid + 2,):
        raise ValueError(
            f"fixture has {values.shape[0]} entries, expected {n_grid + 2}"
        )
    config = KsConfig(n_grid=n_grid, reference_profile=values[:n_grid])
    return values, config
