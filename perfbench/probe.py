"""Set-up probe: a fresh interpreter's way to a ready problem.

Run as ``python3 perfbench/probe.py ROOT CLI-ARGS...``.  It imports
``arctree.cli`` from ``ROOT/src``, reads the parameters and the start
point the CLI arguments name, resolves the problem and evaluates its
residual once at the start point (which builds the KS spectral
operators).  It then prints ``time.perf_counter()``, a CLOCK_MONOTONIC
reading the parent compares with the moment it started this process.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    import arctree.cli as cli

    args = cli.build_parser().parse_args(sys.argv[2:])
    params = cli.parse_parameters(args.params)
    z0 = cli.read_initial_point(args.initial_point)
    resolved = cli.resolve_problem(args.problem, params, z0, args.ks_amplitude)
    problem = resolved[0] if isinstance(resolved, tuple) else resolved
    problem.residual(z0)
    ready = time.perf_counter()
    print(Path(cli.__file__).resolve(), ready)


if __name__ == "__main__":
    main()
