"""Command-line front end.

Reads a parameter file and an initial point, runs the chosen
continuation algorithm, and streams accepted points to
``<outdir>/curve.txt`` (one point per line, 17 significant digits).
With ``VERBOSE 2`` in the parameter file, a tree run also writes one
Graphviz snapshot per round there.  The run ends with one summary line
on stdout.  Exit status is 0 when the run swept the parameter to its
window edge, 2 for usage errors, unreadable inputs or an output
directory that cannot take curve.txt, 1 for runs that stopped for any
other reason.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .baselines import natural_continuation, serial_pac
from .engine import BootstrapError, TerminationReason, run_continuation
from .fileio import parse_parameters, read_initial_point, write_curve_point
from .params import RunParams
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
        help=(
            "threads that serve each corrector round, the calling thread "
            "included (never changes results)"
        ),
    )
    parser.add_argument(
        "--ks-amplitude",
        type=float,
        default=KsConfig.amplitude,
        help="forcing amplitude A for the built-in ks problem",
    )
    return parser


def resolve_problem(
    spec: str,
    params: RunParams,
    initial_point,
    ks_amplitude: float,
) -> ProblemDefinition:
    """Build the problem the --problem argument names.

    initial_point is unused: the KS phase is anchored at each sequence's
    own base point.  The parameter stays because perfbench/probe.py passes
    it by position until ROADMAP item 5.
    """
    if spec == "circle":
        return circle_problem()
    if spec == "ks":
        config = KsConfig(n_grid=params.n_dim - 2, amplitude=ks_amplitude)
        return ks_problem(config)
    if ":" in spec:
        module_name, attr = spec.split(":", 1)
        module = importlib.import_module(module_name)
        problem = getattr(module, attr)
        if callable(problem) and not isinstance(problem, ProblemDefinition):
            try:
                inspect.signature(problem).bind()
            except TypeError:
                raise ValueError(f"{spec} cannot be called without arguments") from None
            problem = problem()
        if not isinstance(problem, ProblemDefinition):
            raise ValueError(f"{spec} did not produce a ProblemDefinition")
        return problem
    raise ValueError(
        f"unknown problem {spec!r}: use 'circle', 'ks', or 'module:attr'"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every usage error raises here; the output directory is touched last.
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        params = parse_parameters(args.params)
        z0 = read_initial_point(args.initial_point)
        if z0.shape != (params.n_dim,):
            raise ValueError(
                f"initial point has {z0.shape[0]} entries, "
                f"parameter file says N_DIM {params.n_dim}"
            )
        if args.budget is not None:
            params = replace(params, worker_budget=args.budget)
        problem = resolve_problem(args.problem, params, z0, args.ks_amplitude)
        for key, ours, theirs in (
            ("N_DIM", problem.n_dim, params.n_dim),
            ("LAMBDA_INDEX", problem.lambda_index, params.lambda_index),
        ):
            if ours != theirs:
                raise ValueError(
                    f"problem {args.problem} has {key} {ours}, "
                    f"parameter file says {key} {theirs}"
                )
        outdir = Path(args.outdir)
        curve_path = outdir / "curve.txt"
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            # A fresh file: truncating one written moments before first waits
            # for the filesystem to flush its pages, which can take tens of ms.
            curve_path.unlink(missing_ok=True)
            fh = open(curve_path, "w", encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write {curve_path}: {exc}") from exc
    except (OSError, ImportError, AttributeError, ValueError) as exc:
        print(f"arctree: {exc}", file=sys.stderr)
        return 2
    try:
        with fh:

            def writer(point: CurvePoint) -> None:
                write_curve_point(fh, point.z)
                fh.flush()

            if args.algo == "pampac":
                dot_dir = outdir if params.verbose >= 2 else None
                run = partial(run_continuation, n_workers=args.workers, dot_dir=dot_dir)
            else:
                run = serial_pac if args.algo == "serial-pac" else natural_continuation
            result = run(problem, params, z0, sink=writer)
    except BootstrapError as exc:
        print(f"arctree: {exc}", file=sys.stderr)
        return 1
    # A baseline runs no rounds, and its failures are failed predictors.
    tree = result.rounds_executed is not None
    rounds = f"{result.rounds_executed} rounds, " if tree else ""
    failed = "nodes" if tree else "predictors"
    reason = result.termination_reason
    print(
        f"{len(result.accepted_points)} points, {rounds}"
        f"{result.corrector_steps_total} corrector steps, "
        f"{result.failures} failed {failed}: {reason.value}"
    )

    return 0 if reason is TerminationReason.REACHED_LAMBDA_MAX else 1


if __name__ == "__main__":
    sys.exit(main())
