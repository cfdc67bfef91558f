#!/usr/bin/env python3
"""arctree benchmark: four continuation workloads through the CLI.

    python3 perfbench/run.py --workload ks128-tree --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Every run is one call of
``arctree.cli.main(argv)`` in this process, from the packaged start point
to the window exit; its curve.txt (under .perfbench_out/) is re-verified
offline before the next run starts.  One untimed run per workload comes
first, so caches and BLAS buffers fill; samples are then timed until
--seconds have passed.

--trace 0 prints the end-to-end metrics: wall and CPU seconds per run,
rounds and corrector steps per run, set-up time from a fresh interpreter
(median of several probes), peak RSS of this process and the share of
runs that passed; the three timings are scaled to a reference host speed
(see REFERENCE_LOOP_S).  --trace 1 alternates untraced and traced samples and
prints the per-layer metrics (see layertrace.py) with the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The inputs are the packaged files in src/arctree/data, so --seed changes
no input; it is recorded with the results.  BLAS threading is left at
the environment's default and recorded, with the core count, library
versions and load average.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time

from layertrace import LayerTrace, summarize
from verify import CurveCheck, check_curve
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# Host speed: the cores of a shared machine switch between speeds up to 1.5x
# apart for seconds to minutes at a time, and every timing moves with them,
# so a run's median lands on whichever speed held most of its samples.  A
# fixed pure-Python loop timed between samples moves by about the same factor.
# Each timed sample is therefore scaled by REFERENCE_LOOP_S over the mean of
# the loop times just before and just after it; the scaled figures read as
# seconds at the speed where the loop takes REFERENCE_LOOP_S, which is its
# time in the faster state of the 2-core machine the benchmark was defined on.
# Over five 25-second runs per workload there, scaling cut the spread of the
# run medians from 0.18 to 0.08 (ks128-tree), 0.33 to 0.08 (ks128-serial) and
# 0.28 to 0.14 (circle-tree, which slows more than the loop does).
LOOP_N = 50_000
REFERENCE_LOOP_S = 0.0033
MIN_SAMPLES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The CLI's one-line run summary; serial-pac prints no rounds.
SUMMARY = re.compile(
    r"(\d+) points, (?:(\d+) rounds, )?(\d+) corrector steps, "
    r"(\d+) failed (?:nodes|predictors)"
)


@dataclass(frozen=True)
class Counts:
    points: int
    rounds: int
    steps: int
    failures: int


@dataclass
class Run:
    code: int | str
    wall: float
    cpu: float
    counts: Counts | None
    check: CurveCheck


def run_cli(cli, workload: Workload, outdir: Path) -> Run:
    """One CLI run, timed, then its curve re-verified outside the timing."""
    argv = workload.argv(ROOT, outdir)
    # A run that writes nothing must not be checked against the last curve.
    (outdir / "curve.txt").unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start, cpu_start = perf_counter(), process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = "exception"
        wall, cpu = perf_counter() - start, process_time() - cpu_start
    counts = None
    match = SUMMARY.search(buf.getvalue())
    if match:
        points, rounds, steps, failures = match.groups()
        # In serial-pac every step is its own synchronization point.
        counts = Counts(int(points), int(rounds or steps), int(steps), int(failures))
    check = check_curve(
        outdir / "curve.txt",
        workload.problem,
        ROOT / workload.params_file,
        ROOT / workload.start_file,
    )
    return Run(code, wall, cpu, counts, check)


class Session:
    """Every CLI run of one invocation, with the checks each must pass.

    All runs must exit 0, pass offline re-verification and reproduce the
    first run's counts and curve bytes; for a workload with a reference,
    the first run is the reference workload's.
    """

    def __init__(self, cli, workload: Workload, outdir: Path):
        self.cli = cli
        self.workload = workload
        self.outdir = outdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_runs: set[int] = set()
        self.expected: tuple[Counts | None, str] | None = None
        self.last: Run | None = None

    def run(self, workload: Workload | None = None, label: str = "run") -> Run:
        workload = workload or self.workload
        run = run_cli(self.cli, workload, self.outdir / workload.name)
        self.attempted += 1
        problems = []
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if not run.check.ok:
            problems.append(run.check.reason)
        if run.counts is None:
            problems.append("no run summary on stdout")
        key = (run.counts, run.check.sha256)
        if self.expected is None:
            self.expected = key
        elif key != self.expected:
            problems.append(f"counts or curve differ from the first run: {key} != {self.expected}")
        if problems:
            self.fail("; ".join(problems), label, workload)
        self.last = run
        return run

    def fail(self, message: str, label: str = "run", workload: Workload | None = None) -> None:
        """Count the latest run as failed."""
        name = (workload or self.workload).name
        self.failed_runs.add(self.attempted)
        self.failures.append(f"{label} {self.attempted} ({name}): {message}")
        print("FAILED " + self.failures[-1], file=sys.stderr)

    @property
    def counts(self) -> Counts:
        return (self.expected and self.expected[0]) or Counts(0, 0, 0, 0)


@dataclass
class Sample:
    wall: float
    cpu: float
    # Mean time of the host-speed loop just before and just after it.
    loop: float = REFERENCE_LOOP_S

    @property
    def scale(self) -> float:
        return REFERENCE_LOOP_S / self.loop


def loop_time() -> float:
    """Shortest of three timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(LOOP_N):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


def measure(session: Session, seconds: float, trace: LayerTrace | None):
    """Timed samples until ``seconds`` have passed.

    The host-speed loop is timed around every untraced sample.  With a
    trace, samples alternate untraced and traced, so drift in the
    machine's speed falls on both; every traced run's spans are reduced
    to one layer summary.
    """
    k = session.workload.runs_per_sample
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    deadline = perf_counter() + seconds
    before = loop_time()
    while True:
        start = perf_counter()
        runs = [session.run() for _ in range(k)]
        after = loop_time()
        plain.append(_sample(runs, (before + after) / 2))
        before = after
        if trace is not None:
            runs = []
            for _ in range(k):
                with trace:
                    runs.append(session.run(label="traced run"))
                layers.append(summarize(trace.take(), runs[-1].wall))
                check_trace_counts(session, layers[-1])
            traced.append(_sample(runs))
            before = loop_time()
        took = perf_counter() - start
        if len(plain) >= MIN_SAMPLES and perf_counter() + took > deadline:
            return plain, traced, layers


def check_trace_counts(session: Session, layer: dict) -> None:
    """The spans must count what the untraced runs report."""
    want = session.counts
    got = layer["engine_steps"]
    if layer["rounds"]:
        ok = (layer["rounds"], layer["corrector_steps"], got) == (want.rounds, want.steps, want.steps)
    else:
        ok = got == want.steps
    if not ok:
        session.fail(
            label="traced run",
            message=f"traced counts {layer['rounds']} rounds / {got} steps differ from "
            f"untraced {want.rounds} / {want.steps}"
        )


def probe_setup(workload: Workload, outdir: Path) -> float:
    """Seconds from starting a fresh interpreter to a ready problem."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT)]
    cmd += workload.argv(ROOT, outdir / "probe")
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT, check=True)
    where, ready = proc.stdout.split()
    if not Path(where).is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported arctree from {where}")
    return float(ready) - start


def _sample(runs: list[Run], loop: float = REFERENCE_LOOP_S) -> Sample:
    n = len(runs)
    return Sample(sum(r.wall for r in runs) / n, sum(r.cpu for r in runs) / n, loop)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def describe(name: str, values: list[float]) -> str:
    """Unscaled median, quartiles and the highest of p90/p99/p99.9 that has
    at least ten samples beyond it."""
    quartiles = " / ".join(f"{q:.4f}" for q in statistics.quantiles(values, n=4))
    fits = [p for p in (90.0, 99.0, 99.9) if len(values) * (100.0 - p) / 100.0 >= 10]
    high = f"p{fits[-1]:g} {percentile(values, fits[-1]):.4f}" if fits else "no tail yet"
    return (
        f"{name} unscaled: median {statistics.median(values):.4f}, quartiles {quartiles}, "
        f"{high} (n={len(values)})"
    )


def environment(seed: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{key: os.environ.get(key) for key in BLAS_ENV},
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(session: Session, plain: list[Sample], setup: list[Sample]) -> dict:
    """Run metrics; the timed ones scaled to the reference host speed."""
    counts = session.counts
    return {
        "wall_s": (statistics.median(s.wall * s.scale for s in plain), "s"),
        "cpu_s": (statistics.median(s.cpu * s.scale for s in plain), "s"),
        "rounds": (counts.rounds, "count"),
        "corrector_steps": (counts.steps, "count"),
        "setup_s": (statistics.median(s.wall * s.scale for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (1.0 - len(session.failed_runs) / session.attempted, "frac"),
    }


def per_layer(session: Session, plain, traced, layers: list[dict]) -> dict:
    """Layer metrics of the traced runs; a layer the run never entered reads 0."""
    counts = session.counts
    check = session.last.check

    def med(key: str, scale: float = 1.0) -> float:
        return statistics.median(layer[key] for layer in layers) * scale

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        values = (l[num] / l[den] if l[den] else 0.0 for l in layers)
        return statistics.median(values) * scale

    def share(phase: str) -> float:
        return ratio(f"{phase}_time", "wall")

    round_ms = [t * 1e3 for l in layers for t in l["round_times"]]
    step_us = [t * 1e6 for l in layers for t in l["step_times"]]
    tree = any(l["rounds"] for l in layers)
    plain_wall = statistics.median(s.wall for s in plain)
    traced_wall = statistics.median(s.wall for s in traced)
    return {
        "engine.rounds": (med("rounds"), "count"),
        "engine.corrector_steps": (med("corrector_steps"), "count"),
        "engine.round_ms_p50": (percentile(round_ms, 50), "ms"),
        "engine.round_ms_p90": (percentile(round_ms, 90), "ms"),
        "engine.spawn_share": (share("spawn"), "frac"),
        "engine.correct_share": (share("correct"), "frac"),
        "engine.advance_share": (share("advance"), "frac"),
        "engine.steps_per_round": (ratio("corrector_steps", "rounds"), "count"),
        "engine.spawned": (med("spawned"), "count"),
        "engine.failed_nodes": (counts.failures if tree else 0, "count"),
        "engine.points_per_spawn": (ratio("emitted", "spawned"), "frac"),
        "engine.pool_busy_frac": (med("pool_busy"), "frac"),
        "engine.bootstrap_ms": (med("bootstrap_time", 1e3), "ms"),
        "tree.prune_us": (ratio("prune_time", "prune_calls", 1e6), "us"),
        "tree.prune_share": (share("prune"), "frac"),
        "tree.pruned_per_round": (ratio("pruned", "prune_calls"), "count"),
        "problem.step_us_p50": (percentile(step_us, 50), "us"),
        "problem.step_us_p99": (percentile(step_us, 99), "us"),
        "problem.step_calls": (med("step_calls"), "count"),
        "problem.lu_us": (ratio("lu_time", "step_calls", 1e6), "us"),
        "problem.overhead_us": (ratio("step_self_time", "step_calls", 1e6), "us"),
        "problem.residual_evals_per_step": (ratio("residual_calls", "engine_steps"), "count"),
        "problem.step_failures": (med("step_failures"), "count"),
        "problems.jacobian_us": (ratio("jacobian_time", "jacobian_calls", 1e6), "us"),
        "problems.jacobian_calls": (med("jacobian_calls"), "count"),
        "problems.residual_us": (ratio("residual_time", "residual_calls", 1e6), "us"),
        "problems.residual_calls": (med("residual_calls"), "count"),
        "baselines.steps_per_point": (
            counts.steps / counts.points if not tree and counts.points else 0.0, "count"
        ),
        # Accepted steps over predictor attempts; the first point is the start.
        "baselines.accept_frac": (
            (counts.points - 1) / (counts.points - 1 + counts.failures)
            if not tree and counts.points > 1
            else 0.0,
            "frac",
        ),
        "fileio.write_us": (ratio("write_time", "write_calls", 1e6), "us"),
        "cli.prepare_ms": (med("prepare_time", 1e3), "ms"),
        "curve.points": (check.points, "count"),
        "curve.arclength": (check.arclength, "1"),
        "curve.dlambda_sign_changes": (check.dlambda_sign_changes, "count"),
        "curve.lambda_end": (check.lambda_end, "1"),
        "curve.max_residual": (check.max_residual, "1"),
        # The first 52 bits, so the value survives as a JSON double.
        "curve.sha256": (int(check.sha256[:13], 16) if check.sha256 else 0, "hash"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "frac"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arctree" / "cli.py").is_file():
        print(f"perfbench: no arctree sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    env = environment(args.seed)
    setup: list[Sample] = []
    before = loop_time()
    for _ in range(0 if args.trace else SETUP_PROBES):
        seconds = probe_setup(workload, outdir)
        after = loop_time()
        setup.append(Sample(seconds, 0.0, (before + after) / 2))
        before = after

    sys.path.insert(0, str(SRC))
    import arctree.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: arctree imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    session = Session(cli, workload, outdir)
    if workload.reference is not None:
        session.run(WORKLOADS[workload.reference], label="reference run")
    session.run(label="warm-up run")
    trace = LayerTrace() if args.trace else None
    plain, traced, layers = measure(session, args.seconds, trace)
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        metrics = per_layer(session, plain, traced, layers)
        if trace.missing:
            print("trace: not found, reads 0: " + ", ".join(trace.missing))
    else:
        metrics = end_to_end(session, plain, setup)

    print("env " + json.dumps(env))
    print(
        f"workload {workload.name}: {len(plain)} samples of {workload.runs_per_sample} "
        f"run(s), {session.attempted} runs, failed_frac {len(session.failed_runs)}/"
        f"{session.attempted}, curve sha256 {session.last.check.sha256}"
    )
    loops = [s.loop for s in plain + setup]
    print(f"  host-speed loop: median {statistics.median(loops) * 1e3:.3f} ms, reference "
          f"{REFERENCE_LOOP_S * 1e3:g} ms")
    for name, samples in (("wall_s", plain), ("cpu_s", plain), ("setup_s", setup)):
        if samples:
            key = "cpu" if name == "cpu_s" else "wall"
            print("  " + describe(name, [getattr(s, key) for s in samples]))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    report = {
        "env": env,
        "workload": workload.name,
        "failures": session.failures,
        "setup": [asdict(s) for s in setup],
        "samples": [asdict(s) for s in plain],
        "traced_samples": [asdict(s) for s in traced],
        "metrics": metrics,
    }
    (outdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failed_runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
