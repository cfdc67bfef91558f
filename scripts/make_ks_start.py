#!/usr/bin/env python3
"""Regenerate the packaged starting point for the travelling-wave problem.

The branch of interest bifurcates, at the packaged resolution, from the
reflection-symmetric equilibria of

    w w' + w'' + lambda w'''' - A sin(w) = 0

on the 2*pi-periodic domain with A = 8.09.  The wave-number-two
equilibria appear at lambda = (A + 4) / 16; marching that family down in
lambda reaches a translation-symmetry-breaking pitchfork near
lambda = 0.48, past which the branch the travelling waves later spring
from continues.  A plain march cannot cross a pitchfork, so a small
sin(x) forcing is switched on to unfold it, the forced branch is marched
to the target viscosity, and the forcing is then relaxed to zero.

The residual and Jacobian are the solver's own: the PDE rows of
problems.ks_residual and the (w, w) block of problems.ks_jacobian, both
at c = 0; only the forcing term is added here.  All arithmetic is
deterministic (no randomness), so a run repeats its output bit for bit
on one machine.  Another numpy, BLAS or CPU may round differently and
land within about 1e-9 of the packaged profile instead.  Run from
anywhere:

    python3 scripts/make_ks_start.py [--n 128] [--lam 0.1828] [--check]

With --check the script only verifies that the packaged file solves the
stationary problem to the advertised tolerance.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from arctree.problems import (
    KsConfig,
    data_path,
    grid,
    ks_jacobian,
    ks_residual,
)

BIRTH_MARGIN = 0.02  # start this far below the wave-number-two onset
PITCHFORK_SAFE = 0.50  # forcing switches on below this viscosity
FORCING = 0.5
TARGET_RESIDUAL = 5e-8


def state(w, lam):
    """The full state (w, c, lambda) at c = 0."""
    return np.concatenate([w, [0.0, lam]])


def pde_residual(config, w, lam, forcing, x):
    """The PDE rows of ks_residual at c = 0, plus the unfolding forcing."""
    return ks_residual(config, state(w, lam))[: config.n_grid] + forcing * np.sin(x)


def pde_jacobian(config, w, lam):
    """The (w, w) block of ks_jacobian at c = 0."""
    n = config.n_grid
    return ks_jacobian(config, state(w, lam))[:n, :n]


def solve_odd(w, lam, config, basis, project, x, forcing=0.0, itmax=30):
    """Newton in the odd (sine) subspace, which removes the translation
    null direction; returns the refined profile and its residual norm."""
    best = np.inf
    for _ in range(itmax):
        r = pde_residual(config, w, lam, forcing, x)
        norm = float(np.linalg.norm(r))
        if norm < TARGET_RESIDUAL or norm >= best:
            break
        best = norm
        reduced = project @ pde_jacobian(config, w, lam) @ basis
        w = w - basis @ np.linalg.solve(reduced, project @ r)
    return w, float(np.linalg.norm(pde_residual(config, w, lam, forcing, x)))


def build_start(n: int, lam_target: float, amplitude: float) -> np.ndarray:
    x = grid(n)
    config = KsConfig(n_grid=n, amplitude=amplitude)
    m = n // 2 - 1
    basis = np.array([np.sin((k + 1) * x) for k in range(m)]).T
    project = (2.0 / n) * basis.T  # sine modes are orthogonal on the grid

    lam = (amplitude + 4.0) / 16.0 - BIRTH_MARGIN
    w = 0.5 * np.sin(2 * x)
    w, _ = solve_odd(w, lam, config, basis, project, x)

    for lam in np.arange(lam, PITCHFORK_SAFE - 1e-12, -0.01):
        w, _ = solve_odd(w, lam, config, basis, project, x)

    for lam in np.arange(PITCHFORK_SAFE, lam_target - 1e-12, -0.005):
        w, _ = solve_odd(w, lam, config, basis, project, x, forcing=FORCING)

    for forcing in (0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0):
        w, norm = solve_odd(
            w, lam_target, config, basis, project, x, forcing=forcing
        )
    if norm > TARGET_RESIDUAL:
        raise SystemExit(f"final polish stalled at residual {norm:.2e}")
    return w


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--lam", type=float, default=0.1828)
    parser.add_argument("--amplitude", type=float, default=KsConfig.amplitude)
    parser.add_argument(
        "--out",
        default=None,
        help="output file (default: the packaged data file for this n)",
    )
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    out = Path(args.out) if args.out else data_path(f"ks_start_n{args.n}.txt")
    config = KsConfig(n_grid=args.n, amplitude=args.amplitude)

    if args.check:
        z = np.loadtxt(out)
        norm = float(np.linalg.norm(ks_residual(config, z)))
        print(f"{out}: residual {norm:.3e}")
        return 0 if norm < 5e-7 else 1

    w = build_start(args.n, args.lam, args.amplitude)
    z = state(w, args.lam)
    norm = float(np.linalg.norm(ks_residual(config, z)))
    print(f"stationary state at lambda={args.lam}: full-system residual {norm:.3e}")
    if norm > 5e-7:
        print("residual too large, not writing", file=sys.stderr)
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# starting point for the n={args.n} travelling-wave problem\n")
        fh.write(f"# layout: w_0 .. w_{args.n - 1}, c, lambda (one per line)\n")
        for value in z:
            fh.write("%.17g\n" % value)
    print(f"wrote {out} ({z.size} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
