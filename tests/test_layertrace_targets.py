"""The benchmark's pins on arctree still hold.

perfbench/ is read, never changed, by this suite; these tests turn a
change of arctree that the benchmark's files depend on into a test
failure:
- layertrace.py rebinds named functions in arctree modules; a target
  that no longer resolves is skipped and its metrics silently read 0.
- verify.py re-verifies a KS row with KsConfig(n_grid=, reference_profile=)
  and ks_residual(config, row), with no base; the keyword is accepted and
  ignored, and no base anchors the phase at the row itself.
- probe.py runs the CLI's parser, parse_parameters, read_initial_point
  and the positional resolve_problem(spec, params, z0, amplitude), then
  a one-argument problem.residual(z0).
- layertrace.py reads what the round phases return: spawn_round's int,
  the n_workers of corrector_round's 4th argument (the pool), the root
  as prune_tree's first argument and advance_root(...)[1]; a traced CLI
  run must give the untraced run's counts, four phases a round.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arctree.cli import build_parser, main
from arctree.problems import KsConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_bench(name: str):
    """perfbench/<name>.py, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


LAYERTRACE = load_bench("layertrace")
TARGETS = LAYERTRACE.TARGETS
WORKLOADS = load_bench("workloads").WORKLOADS


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in TARGETS])
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_verify_re_verifies_the_packaged_ks_start():
    verify = load_bench("verify")
    ks = WORKLOADS["ks128-tree"]
    tol = float(verify.read_params(ROOT / ks.params_file)["TOL_RESIDUAL"])
    rows = np.loadtxt(ROOT / ks.start_file)[None, :]
    # A phase row that is not exactly 0.0 reads as an infinite residual.
    (residual,) = verify._row_residuals("ks", rows)
    assert residual <= tol


def test_verify_keyword_still_builds_the_config():
    assert KsConfig(n_grid=128, reference_profile=np.ones(128)) == KsConfig(n_grid=128)


def test_probe_reads_the_default_amplitude():
    args = build_parser().parse_args(["--params", "p", "--initial-point", "z"])
    assert args.ks_amplitude == KsConfig.amplitude == 8.09


@pytest.mark.parametrize("workload", ["ks128-tree", "circle-tree"])
def test_probe_readies_the_problem_from_src(workload, tmp_path):
    argv = WORKLOADS[workload].argv(ROOT, tmp_path / "probe")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), str(ROOT), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    where, ready = proc.stdout.split()
    assert Path(where).is_relative_to(ROOT / "src")
    assert float(ready) > 0.0


@pytest.mark.parametrize(
    "workload,figures",
    [
        (
            "circle-tree",
            dict(rounds=36, corrector_steps=149, engine_steps=149, spawned=77,
                 emitted=23, pruned=53),
        ),
        (
            "ks128-tree",
            dict(rounds=127, corrector_steps=1282, engine_steps=1282, spawned=653,
                 emitted=75, pruned=572),
        ),
        ("ks128-serial", dict(rounds=0, engine_steps=794)),
    ],
)
def test_traced_run_reads_the_round_phases(workload, figures, tmp_path, capsys):
    with LAYERTRACE.LayerTrace() as trace:
        code = main(WORKLOADS[workload].argv(ROOT, tmp_path))
    assert code == 0, capsys.readouterr().err
    assert trace.missing == []
    layer = LAYERTRACE.summarize(trace.take(), wall=1.0)
    assert {key: layer[key] for key in figures} == figures
    # Every round ran all four phases.
    assert len(layer["round_times"]) == layer["rounds"]
