"""Command-line front end.

Reads a parameter file and an initial point, runs the chosen
continuation algorithm, and streams accepted points to
``<outdir>/curve.txt`` (one point per line, 17 significant digits).
Exit status is 0 when the run swept the parameter to its window edge,
2 for usage errors or unreadable inputs, 1 for runs that stopped for
any other reason.  The run holds BLAS to one thread (see ``blas``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import natural_continuation, serial_pac
from .blas import one_blas_thread
from .engine import BootstrapError, TerminationReason, run_continuation
from .fileio import parse_parameters, read_initial_point, write_curve_point
from .params import ParameterError, RunParams
from .problem import CurvePoint, ProblemDefinition
from .problems import KsConfig, circle_problem, ks_problem


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctree",
        description=(
            "Parameter continuation of F(z) = 0 along a one-dimensional "
            "solution curve, with a speculative predictor tree or one of "
            "two serial baselines."
        ),
    )
    parser.add_argument(
        "--params",
        required=True,
        help="run-parameter file (KEY value lines)",
    )
    parser.add_argument(
        "--initial-point",
        required=True,
        help="file with the starting point, N_DIM whitespace-separated floats",
    )
    parser.add_argument(
        "--problem",
        default="circle",
        help=(
            "built-in problem name (circle, ks) or module:attr naming a "
            "ProblemDefinition or a zero-argument factory for one"
        ),
    )
    parser.add_argument(
        "--algo",
        choices=("pampac", "serial-pac", "natural"),
        default="pampac",
        help=(
            "pampac: the parallel speculative-tree engine; serial-pac: "
            "classic adaptive arclength stepping; natural: parameter "
            "marching (cannot pass folds)"
        ),
    )
    parser.add_argument(
        "--outdir",
        default=".",
        help="directory for curve.txt and tree snapshots (created if absent)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the logical worker budget from the parameter file",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads used to serve corrector steps (never changes results)",
    )
    parser.add_argument(
        "--ks-amplitude",
        type=float,
        default=8.09,
        help="forcing amplitude A for the built-in ks problem",
    )
    return parser


def resolve_problem(
    spec: str,
    params: RunParams,
    initial_point,
    ks_amplitude: float,
) -> ProblemDefinition:
    """Build the problem the --problem argument names."""
    if spec == "circle":
        return circle_problem()
    if spec == "ks":
        n = params.n_dim - 2
        config = KsConfig(
            n_grid=n,
            amplitude=ks_amplitude,
            reference_profile=initial_point[:n],
        )
        return ks_problem(config)
    if ":" in spec:
        module_name, attr = spec.split(":", 1)
        module = importlib.import_module(module_name)
        obj = getattr(module, attr)
        problem = obj() if callable(obj) and not isinstance(obj, ProblemDefinition) else obj
        if not isinstance(problem, ProblemDefinition):
            raise ValueError(f"{spec} did not produce a ProblemDefinition")
        return problem
    raise ValueError(
        f"unknown problem {spec!r}: use 'circle', 'ks', or 'module:attr'"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(
            f"arctree: --workers must be at least 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2

    try:
        params = parse_parameters(args.params)
        z0 = read_initial_point(args.initial_point)
    except (OSError, ParameterError) as exc:
        print(f"arctree: {exc}", file=sys.stderr)
        return 2
    if z0.shape != (params.n_dim,):
        print(
            f"arctree: initial point has {z0.shape[0]} entries, "
            f"parameter file says N_DIM {params.n_dim}",
            file=sys.stderr,
        )
        return 2
    if args.budget is not None:
        try:
            params = replace(params, worker_budget=args.budget)
        except ParameterError as exc:
            print(f"arctree: {exc}", file=sys.stderr)
            return 2

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        problem = resolve_problem(args.problem, params, z0, args.ks_amplitude)
    except (ImportError, AttributeError, ValueError) as exc:
        print(f"arctree: {exc}", file=sys.stderr)
        return 2

    try:
        with (
            one_blas_thread(),
            open(outdir / "curve.txt", "w", encoding="utf-8") as fh,
        ):

            def writer(point: CurvePoint) -> None:
                write_curve_point(fh, point.z)
                fh.flush()

            if args.algo == "pampac":
                result = run_continuation(
                    problem, params, z0, sink=writer,
                    n_workers=args.workers, dot_dir=outdir,
                )
                reason = result.termination_reason
                summary = (
                    f"{len(result.accepted_points)} points, "
                    f"{result.rounds_executed} rounds, "
                    f"{result.corrector_steps_total} corrector steps, "
                    f"{result.nodes_failed} failed nodes"
                )
            else:
                run = serial_pac if args.algo == "serial-pac" else natural_continuation
                trace = run(problem, params, z0, sink=writer)
                reason = trace.termination_reason
                summary = (
                    f"{len(trace.accepted_points)} points, "
                    f"{trace.corrector_steps_total} corrector steps, "
                    f"{trace.failed_predictors} failed predictors"
                )
    except BootstrapError as exc:
        print(f"arctree: {exc}", file=sys.stderr)
        return 1
    print(f"{summary}: {reason.value}")

    return 0 if reason is TerminationReason.REACHED_LAMBDA_MAX else 1


if __name__ == "__main__":
    sys.exit(main())
