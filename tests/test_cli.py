"""Command line interface: argument handling, outputs, exit codes."""

import re
import subprocess
import sys

import numpy as np
import pytest

from arctree import data_path, read_curve
from arctree.cli import main


@pytest.fixture
def circle_args(tmp_path):
    def build(*extra, algo=None):
        argv = [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ]
        if algo:
            argv += ["--algo", algo]
        argv += list(extra)
        return argv

    return build


def test_default_run_writes_a_valid_curve(circle_args, tmp_path, capsys):
    assert main(circle_args()) == 0
    curve = read_curve(tmp_path / "curve.txt")
    assert curve.shape[1] == 2
    assert len(curve) >= 10
    errors = np.abs(curve[:, 0] ** 2 + curve[:, 1] ** 2 - 1.0)
    assert errors.max() <= 1e-10
    out = capsys.readouterr().out
    assert "REACHED_LAMBDA_MAX" in out
    assert "points" in out


def test_serial_algo_also_traverses(circle_args, tmp_path):
    assert main(circle_args(algo="serial-pac")) == 0
    curve = read_curve(tmp_path / "curve.txt")
    assert curve[:, 0].min() <= -0.9


def test_natural_algo_stalls_with_nonzero_exit(circle_args, tmp_path, capsys):
    assert main(circle_args(algo="natural")) == 1
    assert "STEP_UNDERFLOW" in capsys.readouterr().out
    curve = read_curve(tmp_path / "curve.txt")
    assert curve[:, 1].max() <= 1.0 + 1e-10


# The one-line summary, as perfbench/run.py parses it.
SUMMARY = re.compile(
    r"(\d+) points, (?:(\d+) rounds, )?(\d+) corrector steps, "
    r"(\d+) failed (nodes|predictors): [A-Z_]+$"
)


@pytest.mark.parametrize(
    "algo,rounds,failures",
    [
        ("pampac", True, "nodes"),
        ("serial-pac", False, "predictors"),
        ("natural", False, "predictors"),
    ],
)
def test_summary_line_wording(circle_args, tmp_path, capsys, algo, rounds, failures):
    main(circle_args(algo=algo))
    match = SUMMARY.search(capsys.readouterr().out.strip())
    assert match is not None
    assert (match.group(2) is not None) == rounds
    assert match.group(5) == failures
    rows = (tmp_path / "curve.txt").read_text(encoding="utf-8").splitlines()
    assert len(rows) == int(match.group(1))


@pytest.mark.parametrize("algo", ["pampac", "serial-pac", "natural"])
def test_curve_holds_only_verified_points(circle_args, tmp_path, capsys, algo):
    # The problem's on_accept hook breaks it before the start point is
    # re-verified, so nothing may reach curve.txt.
    argv = circle_args("--problem", "test_engine:corrupting_problem", algo=algo)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("0 points, ") and "EVALUATION_FAILURE" in out
    assert (tmp_path / "curve.txt").read_text(encoding="utf-8") == ""


def test_missing_params_file_is_a_usage_error(tmp_path, capsys):
    rc = main(
        [
            "--params", str(tmp_path / "nope.params"),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "arctree:" in capsys.readouterr().err


def test_bad_params_content_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.params"
    bad.write_text("N_DIM 2\nNOT_A_KEY 5\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(bad),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "NOT_A_KEY" in capsys.readouterr().err


def test_wrong_point_size_is_a_usage_error(tmp_path, capsys):
    start = tmp_path / "start.txt"
    start.write_text("1 0 0\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(start),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "N_DIM" in capsys.readouterr().err


def test_unconverged_start_is_a_runtime_error(tmp_path, capsys):
    start = tmp_path / "start.txt"
    start.write_text("2 0\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(start),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "arctree:" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["pampac", "natural"])
def test_non_finite_start_is_a_runtime_error(tmp_path, capsys, algo):
    start = tmp_path / "start.txt"
    start.write_text("nan 0\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(start),
            "--outdir", str(tmp_path),
            "--algo", algo,
        ]
    )
    assert rc == 1
    assert "arctree:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_is_a_usage_error(circle_args, tmp_path, capsys, workers):
    assert main(circle_args("--workers", workers)) == 2
    assert "arctree: --workers" in capsys.readouterr().err
    assert not (tmp_path / "curve.txt").exists()


def test_unknown_problem_plugin_is_rejected(circle_args, capsys):
    assert main(circle_args("--problem", "no.such.module:thing")) == 2
    assert "arctree:" in capsys.readouterr().err


def test_problem_plugin_via_module_attr(circle_args, tmp_path):
    # the built-in circle, loaded through the generic plugin path
    assert main(circle_args("--problem", "arctree.problems:circle_problem")) == 0
    curve = read_curve(tmp_path / "curve.txt")
    assert len(curve) >= 10


def test_budget_override_changes_the_run(circle_args, tmp_path):
    # A budget of 3 lets each round try only one leaf's scalings, so the
    # tree explores differently than the default budget of 12.
    assert main(circle_args("--budget", "3", "--workers", "2")) == 0
    narrow = read_curve(tmp_path / "curve.txt")
    assert main(circle_args()) == 0
    wide = read_curve(tmp_path / "curve.txt")
    assert narrow.shape != wide.shape or not np.array_equal(narrow, wide)


def test_verbose_params_produce_dot_snapshots(circle_args, tmp_path):
    verbose = tmp_path / "verbose.params"
    text = data_path("circle.params").read_text(encoding="utf-8")
    assert "VERBOSE" not in text
    verbose.write_text(text + "VERBOSE 2\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(verbose),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 0
    snapshots = sorted(tmp_path.glob("tree_*.dot"))
    assert snapshots
    assert all(p.read_text(encoding="utf-8").startswith("digraph") for p in snapshots)


def test_module_invocation_smoke(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "arctree",
            "--params", str(data_path("circle.params")),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve.txt").exists()
