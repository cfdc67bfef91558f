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
  the extra equation pins the translation phase against the previous
  solution, as AUTO does: each corrector sequence's own base point.  The
  sin(u) term breaks Galilean invariance so the wave speed is well
  defined, and the branch has several folds, which makes it a demanding
  continuation target.  Its residual and Jacobian read D1 w, D2 w and
  D4 w from ks_derivatives, one bounded, thread-safe cache keyed by the
  profile's content, so a corrector step forms them once per new point
  and reads its base's phase gradient from the same cache.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .problem import Array, ProblemDefinition


def circle_residual(z: Array) -> Array:
    """F(z) = x^2 + lambda^2 - 1 for z = (x, lambda)."""
    return np.array([z[0] ** 2 + z[1] ** 2 - 1.0])


def circle_jacobian(z: Array) -> Array:
    """dF/dz = [2 x, 2 lambda]."""
    return np.array([[2.0 * z[0], 2.0 * z[1]]])


def circle_problem() -> ProblemDefinition:
    """Unit circle in (x, lambda): F = x^2 + lambda^2 - 1."""
    return ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=circle_residual,
        jacobian=circle_jacobian,
    )


# ---------------------------------------------------------------------------
# Modified Kuramoto-Sivashinsky travelling waves
# ---------------------------------------------------------------------------


class KsOperators(NamedTuple):
    """Read-only operators of the n-point grid, cached by ks_operators.

    d1, d2 and d4 are the planes of one (3, n, n) array, which rows views
    as (3n, n) (rows @ w stacks D1 w, D2 w and D4 w) and flat as
    (3, n * n) ([a, b, c] @ flat is a D1 + b D2 + c D4, flattened).
    d1_dealiased is D1 with every mode above n // 3 zeroed.
    """

    d1: Array
    d2: Array
    d4: Array
    rows: Array
    flat: Array
    d1_dealiased: Array


@lru_cache(maxsize=8)
def ks_operators(n: int) -> KsOperators:
    """The KsOperators of n points, built by transforming the identity.

    Column j of D_p is the p-th spectral derivative of a unit impulse at
    grid point j.  The Nyquist mode is zeroed for odd derivative orders
    (it carries no usable sign information on a real grid).
    d1_dealiased also zeroes every mode above n // 3, the classic
    two-thirds rule for a quadratic nonlinearity.
    """
    eye = np.eye(n)
    spec = np.fft.rfft(eye, axis=0)
    k = np.arange(n // 2 + 1, dtype=float)

    def back(mult: Array) -> Array:
        return np.fft.irfft(spec * mult[:, None], n=n, axis=0)

    d1_mult = 1j * k
    if n % 2 == 0:
        d1_mult[-1] = 0.0
    derivatives = np.empty((3, n, n))
    for plane, mult in zip(derivatives, (d1_mult, -(k**2) + 0j, k**4 + 0j)):
        plane[...] = back(mult)
    d1_dealiased = back(d1_mult * (k <= n // 3))

    # Cached and shared by every later call: never to be written.  Views
    # taken of the read-only arrays are read-only too.
    for op in (derivatives, d1_dealiased):
        op.setflags(write=False)
    rows, flat = derivatives.reshape(3 * n, n), derivatives.reshape(3, n * n)
    return KsOperators(*derivatives, rows, flat, d1_dealiased)


def grid(n: int) -> Array:
    """Collocation points x_j = 2 pi j / n."""
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class KsConfig:
    """Discretization and closure data for the travelling-wave problem.

    A frozen, hashable value: equal configs compare and hash equal.
    """

    n_grid: int
    amplitude: float = 8.09
    # Accepted and ignored: perfbench/verify.py passes it until ROADMAP item 5.
    reference_profile: InitVar[Array | None] = None

    def __post_init__(self, reference_profile: Array | None) -> None:
        n = self.n_grid
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("n_grid must be a power of two, at least 16")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")

    @property
    def n_dim(self) -> int:
        # state layout: (w_0 .. w_{n-1}, c, lambda)
        return self.n_grid + 2

    @property
    def lambda_index(self) -> int:
        return self.n_grid + 1


@lru_cache(maxsize=128)
def _derivatives(n: int, profile: bytes) -> Array:
    """D1 w, D2 w and D4 w stacked, w the float64 profile held in bytes."""
    out = np.dot(ks_operators(n).rows, np.frombuffer(profile))
    out.setflags(write=False)
    return out


def ks_derivatives(n: int, w: Array) -> Array:
    """D1 w, D2 w and D4 w stacked in one read-only array of 3n entries.

    One product by the rows of KsOperators, memoized by content: the key
    is n and the bytes of w converted to float64, so an edited profile is
    a new key and a float32, int or strided w gets the numbers of its
    float64 copy.  A corrector step asks for the same profile several
    times (its residual, its Jacobian, and its base's D1 w as the phase
    gradient), so each new profile costs one product.  The cache is
    bounded (128 profiles, least recently used out), shared by every
    thread and safe to call from several at once: a race computes the
    same bits twice.
    """
    return _derivatives(n, np.asarray(w, dtype=float).tobytes())


def ks_residual(config: KsConfig, z: Array, z_base: Array | None = None) -> Array:
    """PDE rows on the grid plus one phase-pinning row.

    The quadratic term w w' is taken in conservative form, (1/2) (w^2)',
    through the dealiased first derivative; all derivatives are
    spectral, D1 w, D2 w and D4 w read from ks_derivatives.  The phase
    row is the inner product of (w - w_ref) with w_ref', scaled by 1/n so
    its magnitude is grid-size independent.  w_ref is the profile of the
    base point z_base, or of z itself when no base is given; anchored at
    z, the row is exactly 0.0.  w_ref' is the first block of w_ref's
    ks_derivatives.
    """
    n = config.n_grid
    ops = ks_operators(n)
    ref = (z if z_base is None else z_base)[:n]
    w = z[:n]
    c = z[n]
    lam = z[n + 1]
    derivs = ks_derivatives(n, w)
    out = np.empty(n + 1)
    pde = out[:n]
    # The terms are summed in the order
    #   (1/2) d1_dealiased (w w) - c D1 w + D2 w + lam D4 w - A sin(w).
    np.dot(ops.d1_dealiased, w * w, out=pde)
    pde *= 0.5
    pde -= c * derivs[:n]
    pde += derivs[n : 2 * n]
    pde += lam * derivs[2 * n :]
    forcing = np.sin(w)
    forcing *= config.amplitude
    pde -= forcing
    out[n] = np.dot(w - ref, ks_derivatives(n, ref)[:n]) / n
    return out


def ks_jacobian(config: KsConfig, z: Array, z_base: Array | None = None) -> Array:
    """Analytic Jacobian of ks_residual at base z_base, shape (n + 1, n + 2).

    The base is held fixed: the phase row is w_ref' / n, w_ref the
    profile of z_base, or of z itself when no base is given.

    The matrix is dense because of the sin(w) term.  Columns are ordered
    (w, c, lambda) to match the state layout.  The state block is

        d1_dealiased diag(w) + (-c D1 + D2 + lam D4) - A diag(cos w),

    d1_dealiased with its columns scaled, then one product by the
    flattened derivative operators (see KsOperators), built in one
    contiguous buffer and copied into place once.  The c and lambda
    columns, -D1 w and D4 w, and w_ref' are read from ks_derivatives.
    """
    n = config.n_grid
    ops = ks_operators(n)
    ref = (z if z_base is None else z_base)[:n]
    w = z[:n]
    c = z[n]
    lam = z[n + 1]
    derivs = ks_derivatives(n, w)
    state = np.multiply(ops.d1_dealiased, w)
    state += np.dot(np.array([-c, 1.0, lam]), ops.flat).reshape(n, n)
    # The diagonal, every (n + 1)-th entry of the flat buffer.
    state.reshape(-1)[:: n + 1] -= config.amplitude * np.cos(w)
    out = np.empty((n + 1, n + 2))
    out[:n, :n] = state
    np.negative(derivs[:n], out=out[:n, n])
    out[:n, n + 1] = derivs[2 * n :]
    np.divide(ks_derivatives(n, ref)[:n], n, out=out[n, :n])
    out[n, n:] = 0.0
    return out


def ks_problem(config: KsConfig) -> ProblemDefinition:
    """The travelling-wave problem, its phase anchored at each sequence's base.

    Called with z alone, residual and jacobian anchor at z itself.
    """
    return ProblemDefinition(
        n_dim=config.n_dim,
        lambda_index=config.lambda_index,
        residual=partial(ks_residual, config),
        jacobian=partial(ks_jacobian, config),
        anchored=True,
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
    """Packaged travelling-wave starting point and a matching config."""
    values = np.loadtxt(data_path(f"ks_start_n{n_grid}.txt"))
    if values.shape != (n_grid + 2,):
        raise ValueError(
            f"fixture has {values.shape[0]} entries, expected {n_grid + 2}"
        )
    return values, KsConfig(n_grid=n_grid)
