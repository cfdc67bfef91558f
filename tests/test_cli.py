"""Command line interface: argument handling, outputs, exit codes."""

import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from arctree import circle_problem, data_path, read_curve
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


def test_second_run_replaces_the_curve(circle_args, tmp_path):
    assert main(circle_args()) == 0
    assert main(circle_args(algo="serial-pac")) == 0
    fresh = tmp_path / "fresh"
    assert main(circle_args("--outdir", str(fresh), algo="serial-pac")) == 0
    second = (fresh / "curve.txt").read_bytes()
    assert (tmp_path / "curve.txt").read_bytes() == second


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


# The KS n=128 workloads' inputs; given after the circle's, these options win.
KS128 = (
    "--problem", "ks",
    "--params", str(data_path("ks_n128.params")),
    "--initial-point", str(data_path("ks_start_n128.txt")),
    "--budget", "12",
)


# Each packaged circle run's exact line pins its counts, so a change that
# moves a count fails here; so do ks128-tree's and ks128-serial's, whose
# counts survive a one-ulp nudge of their start (tests/test_ks.py).
@pytest.mark.parametrize(
    "algo,extra,rounds,failures,line",
    [
        pytest.param(
            "pampac", (), True, "nodes",
            "24 points, 36 rounds, 149 corrector steps, 0 failed nodes: "
            "REACHED_LAMBDA_MAX",
            id="pampac-True-nodes",
        ),
        pytest.param(
            "serial-pac", (), False, "predictors",
            "20 points, 57 corrector steps, 0 failed predictors: "
            "REACHED_LAMBDA_MAX",
            id="serial-pac-False-predictors",
        ),
        pytest.param(
            "natural", (), False, "predictors",
            "117 points, 468 corrector steps, 24 failed predictors: "
            "STEP_UNDERFLOW",
            id="natural-False-predictors",
        ),
        pytest.param(
            "pampac", KS128, True, "nodes",
            "76 points, 127 rounds, 1282 corrector steps, 158 failed nodes: "
            "REACHED_LAMBDA_MAX",
            id="ks128-tree",
        ),
        pytest.param(
            "serial-pac", KS128, False, "predictors",
            "259 points, 794 corrector steps, 5 failed predictors: "
            "REACHED_LAMBDA_MAX",
            id="ks128-serial",
        ),
    ],
)
def test_summary_line_wording(
    circle_args, tmp_path, capsys, algo, extra, rounds, failures, line
):
    main(circle_args(*extra, algo=algo))
    out = capsys.readouterr().out.strip()
    assert out.splitlines()[-1] == line
    match = SUMMARY.search(out)
    assert match is not None
    assert (match.group(2) is not None) == rounds
    assert match.group(5) == failures
    rows = (tmp_path / "curve.txt").read_text(encoding="utf-8").splitlines()
    assert len(rows) == int(match.group(1))


@pytest.mark.parametrize("algo", ["pampac", "serial-pac", "natural"])
def test_curve_holds_only_verified_points(circle_args, tmp_path, capsys, algo):
    # The problem fails every re-verification after the start point's, so
    # the start is the one point that may reach curve.txt.
    argv = circle_args("--problem", "test_engine:corrupting_problem", algo=algo)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("1 points, ") and "EVALUATION_FAILURE" in out
    assert read_curve(tmp_path / "curve.txt").tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("algo", ["pampac", "serial-pac"])
def test_a_failed_bootstrap_writes_exactly_the_start(tmp_path, capsys, algo):
    # The start (0, 0) solves the problem's x = 0, but its corrector
    # refuses every step, so the bootstrap neighbor cannot converge.
    start = tmp_path / "start.txt"
    start.write_text("0 0\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(start),
            "--outdir", str(tmp_path),
            "--problem", "test_engine:refusing_problem",
            "--algo", algo,
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"arctree: [^\n]*\n", captured.err)
    assert read_curve(tmp_path / "curve.txt").tolist() == [[0.0, 0.0]]


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


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_an_empty_device_is_named_by_its_path(tmp_path, capsys):
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", "/dev/null",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err == "arctree: /dev/null: no values\n"
    assert not (tmp_path / "curve.txt").exists()


def test_malformed_initial_point_is_a_usage_error(tmp_path, capsys):
    start = tmp_path / "start.txt"
    start.write_text("1.0 abc\n", encoding="utf-8")
    rc = main(
        [
            "--params", str(data_path("circle.params")),
            "--initial-point", str(start),
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"arctree: {start}: ") and "abc" in err
    assert not (tmp_path / "curve.txt").exists()


@pytest.mark.parametrize("text", ["", "# only a comment\n"])
def test_an_initial_point_file_with_no_values_is_one_usage_line(tmp_path, capsys, text):
    start = tmp_path / "start.txt"
    start.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            [
                "--params", str(data_path("circle.params")),
                "--initial-point", str(start),
                "--outdir", str(tmp_path),
            ]
        )
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0] == f"arctree: {start}: no values"


def _outdir_is_a_file(tmp_path):
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    return target


def _outdir_below_a_file(tmp_path):
    return _outdir_is_a_file(tmp_path) / "sub"


def _curve_is_a_directory(tmp_path):
    (tmp_path / "out" / "curve.txt").mkdir(parents=True)
    return tmp_path / "out"


def _outdir_is_read_only(tmp_path):
    # Left empty, so the test directory can still be removed afterwards.
    target = tmp_path / "locked"
    target.mkdir()
    target.chmod(0o500)
    return target


@pytest.mark.parametrize(
    "make_outdir",
    [
        _outdir_is_a_file,
        _outdir_below_a_file,
        _curve_is_a_directory,
        pytest.param(
            _outdir_is_read_only,
            marks=pytest.mark.skipif(
                hasattr(os, "geteuid") and os.geteuid() == 0,
                reason="directory permissions do not bind the superuser",
            ),
        ),
    ],
)
def test_unusable_outdir_is_a_usage_error(circle_args, tmp_path, capsys, make_outdir):
    outdir = make_outdir(tmp_path)
    assert main(circle_args("--outdir", str(outdir))) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("arctree: cannot write ")
    assert captured.out == ""


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


def not_a_problem():
    return 42


def unreadable_problem():
    raise OSError("problem data is unreadable")


def circle_without_jacobian():
    """The circle with neither a Jacobian nor a corrector: it cannot step."""
    return replace(circle_problem(), jacobian=None)


def test_unknown_problem_plugin_is_rejected(circle_args, tmp_path, capsys):
    for spec in (
        "no.such.module:thing",
        "sphere",
        "test_cli:not_a_problem",
        "arctree.problems:grid",  # a factory that needs an argument
        "test_cli:unreadable_problem",  # a factory that raises OSError
        "test_cli:circle_without_jacobian",  # a problem that cannot step
    ):
        assert main(circle_args("--problem", spec)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("arctree: ")
        assert not (tmp_path / "curve.txt").exists()


@pytest.mark.parametrize("amplitude", ["nan", "inf"])
def test_non_finite_ks_amplitude_is_a_usage_error(tmp_path, capsys, amplitude):
    outdir = tmp_path / "out"
    argv = [
        "--problem", "ks",
        "--params", str(data_path("ks_n128.params")),
        "--initial-point", str(data_path("ks_start_n128.txt")),
        "--ks-amplitude", amplitude,
        "--outdir", str(outdir),
    ]
    assert main(argv) == 2
    assert "amplitude must be finite" in capsys.readouterr().err
    assert not outdir.exists()


def circle_in_three_dims():
    """The circle claiming N_DIM 3 (circle.params says 2)."""
    return replace(circle_problem(), n_dim=3)


def circle_over_x():
    """The circle with x as its parameter (circle.params says index 1)."""
    return replace(circle_problem(), lambda_index=0)


@pytest.mark.parametrize(
    "plugin,key",
    [("circle_in_three_dims", "N_DIM"), ("circle_over_x", "LAMBDA_INDEX")],
)
def test_problem_disagreeing_with_params_is_a_usage_error(
    circle_args, tmp_path, capsys, plugin, key
):
    assert main(circle_args("--problem", f"test_cli:{plugin}")) == 2
    err = capsys.readouterr().err
    assert err.startswith("arctree: ") and key in err
    assert not (tmp_path / "curve.txt").exists()


def test_problem_plugin_via_module_attr(circle_args, tmp_path):
    # the built-in circle, loaded through the generic plugin path
    assert main(circle_args("--problem", "arctree.problems:circle_problem")) == 0
    curve = read_curve(tmp_path / "curve.txt")
    assert len(curve) >= 10


def test_budget_override_changes_the_run(circle_args, tmp_path, capsys):
    # A budget below one is a usage error.
    assert main(circle_args("--budget", "0")) == 2
    assert "arctree:" in capsys.readouterr().err
    assert not (tmp_path / "curve.txt").exists()
    # A budget of 3 lets each round try only one leaf's scalings, so the
    # tree explores differently than the default budget of 12.
    assert main(circle_args("--budget", "3", "--workers", "2")) == 0
    narrow = read_curve(tmp_path / "curve.txt")
    assert main(circle_args()) == 0
    wide = read_curve(tmp_path / "curve.txt")
    assert narrow.shape != wide.shape or not np.array_equal(narrow, wide)


def edited_circle_args(tmp_path, **settings):
    """CLI arguments for the packaged circle run with each KEY=value setting."""
    lines = [
        line
        for line in data_path("circle.params").read_text(encoding="utf-8").splitlines()
        if line.partition(" ")[0] not in settings
    ]
    lines += [f"{key} {value}" for key, value in settings.items()]
    params = tmp_path / "edited.params"
    params.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [
        "--params", str(params),
        "--initial-point", str(data_path("circle_start.txt")),
        "--outdir", str(tmp_path),
    ]


def test_non_finite_setting_is_a_usage_error(tmp_path, capsys):
    assert main(edited_circle_args(tmp_path, H_INIT="nan")) == 2
    assert "H_INIT must be finite" in capsys.readouterr().err
    assert not (tmp_path / "curve.txt").exists()


def test_scalings_all_above_one_are_a_usage_error(tmp_path, capsys):
    # No child could fit under H_MAX once the step controller reaches it.
    argv = edited_circle_args(
        tmp_path, SCALE_PROCESS_0=2, SCALE_PROCESS_1=3, SCALE_PROCESS_2=4
    )
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("arctree:")
    assert "SCALE_PROCESS" in err[0]
    assert not (tmp_path / "curve.txt").exists()


def test_scalings_in_any_file_order_give_the_same_run(tmp_path, capsys):
    unsorted = tmp_path / "unsorted"
    unsorted.mkdir()
    argv = edited_circle_args(unsorted, SCALE_PROCESS_0=2.0, SCALE_PROCESS_2=0.75)
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == (
        "24 points, 36 rounds, 149 corrector steps, 0 failed nodes: "
        "REACHED_LAMBDA_MAX"
    )
    assert main(edited_circle_args(tmp_path)) == 0
    assert (unsorted / "curve.txt").read_bytes() == (
        tmp_path / "curve.txt"
    ).read_bytes()


def test_verbose_1_prints_only_the_summary(tmp_path, capsys):
    assert main(edited_circle_args(tmp_path, VERBOSE=1)) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and SUMMARY.search(out.strip())
    assert not list(tmp_path.glob("tree_*.dot"))


def test_verbose_params_produce_dot_snapshots(tmp_path):
    assert main(edited_circle_args(tmp_path, VERBOSE=2)) == 0
    snapshots = sorted(tmp_path.glob("tree_*.dot"))
    assert snapshots
    assert all(p.read_text(encoding="utf-8").startswith("digraph") for p in snapshots)


def test_module_invocation_smoke(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-W", "error", "-m", "arctree",
            "--params", str(data_path("circle.params")),
            "--initial-point", str(data_path("circle_start.txt")),
            "--outdir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve.txt").exists()
