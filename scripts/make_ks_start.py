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
land within about 1e-9 of the packaged profile instead, so on another
machine write to a scratch file: the packaged start is a pinned
benchmark input.  Run from anywhere:

    python3 scripts/make_ks_start.py [--n 128] [--out FILE]
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

LAMBDA = 0.1828  # the viscosity the packaged start sits at
BIRTH_MARGIN = 0.02  # start this far below the wave-number-two onset
PITCHFORK_SAFE = 0.50  # forcing switches on below this viscosity
FORCING = 0.5
TARGET_RESIDUAL = 5e-8


def state(w, lam):
    """The full state (w, c, lambda) at c = 0."""
    return np.concatenate([w, [0.0, lam]])


def build_start(n: int) -> np.ndarray:
    """The odd stationary profile at LAMBDA, or exit when the final polish
    leaves a PDE residual above TARGET_RESIDUAL."""
    x = grid(n)
    config = KsConfig(n_grid=n)
    basis = np.array([np.sin((k + 1) * x) for k in range(n // 2 - 1)]).T
    project = (2.0 / n) * basis.T  # sine modes are orthogonal on the grid

    def solve(w, lam, forcing=0.0):
        """Newton in the odd (sine) subspace, which removes the translation
        null direction, on the PDE rows at c = 0 plus the unfolding forcing;
        returns the refined profile and its residual norm."""
        best = np.inf
        for updates in range(31):
            r = ks_residual(config, state(w, lam))[:n] + forcing * np.sin(x)
            norm = float(np.linalg.norm(r))
            if norm < TARGET_RESIDUAL or norm >= best or updates == 30:
                return w, norm
            best = norm
            jacobian = ks_jacobian(config, state(w, lam))[:n, :n]
            w = w - basis @ np.linalg.solve(project @ jacobian @ basis, project @ r)

    lam = (config.amplitude + 4.0) / 16.0 - BIRTH_MARGIN
    w, _ = solve(0.5 * np.sin(2 * x), lam)
    for lam in np.arange(lam, PITCHFORK_SAFE - 1e-12, -0.01):
        w, _ = solve(w, lam)
    for lam in np.arange(PITCHFORK_SAFE, LAMBDA - 1e-12, -0.005):
        w, _ = solve(w, lam, FORCING)
    for forcing in (0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0):
        w, norm = solve(w, LAMBDA, forcing)
    if norm > TARGET_RESIDUAL:
        raise SystemExit(f"final polish stalled at residual {norm:.2e}")
    return w


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument(
        "--out",
        default=None,
        help="output file (default: the packaged data file for this n)",
    )
    args = parser.parse_args()

    out = Path(args.out) if args.out else data_path(f"ks_start_n{args.n}.txt")
    z = state(build_start(args.n), LAMBDA)
    norm = float(np.linalg.norm(ks_residual(KsConfig(n_grid=args.n), z)))
    print(f"stationary state at lambda={LAMBDA}: full-system residual {norm:.3e}")
    header = (
        f"starting point for the n={args.n} travelling-wave problem\n"
        f"layout: w_0 .. w_{args.n - 1}, c, lambda (one per line)"
    )
    np.savetxt(out, z, fmt="%.17g", header=header)
    print(f"wrote {out} ({z.size} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
