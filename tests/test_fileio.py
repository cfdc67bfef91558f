"""Parameter files, curve files, initial points, DOT snapshots."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctree import (
    ParameterError,
    RunParams,
    export_dot,
    parse_parameters,
    read_curve,
    read_initial_point,
    write_curve,
)
from arctree.tree import Color
from conftest import make_node, make_params

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
positive = st.floats(allow_nan=False, min_value=1e-12, max_value=1e6)


@st.composite
def run_params(draw):
    n_dim = draw(st.integers(min_value=2, max_value=50))
    lambda_index = draw(st.integers(min_value=0, max_value=n_dim - 1))
    lam_a = draw(st.floats(allow_nan=False, min_value=-100.0, max_value=99.0))
    lam_b = lam_a + draw(positive)
    h_min = draw(st.floats(min_value=1e-12, max_value=1e-3))
    h_max = h_min * draw(st.floats(min_value=10.0, max_value=1e6))
    h_init = draw(st.sampled_from([1.0, -1.0])) * min(
        h_max, h_min * draw(st.floats(min_value=1.0, max_value=1e4))
    )
    n_children = draw(st.integers(min_value=1, max_value=5))
    # In file order, not sorted: RunParams stores them ascending.  The first
    # is at most 1, as the smallest must be.
    scalings = (draw(st.floats(min_value=0.01, max_value=1.0)),) + tuple(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=n_children - 1,
                max_size=n_children - 1,
            )
        )
    )
    return RunParams(
        n_dim=n_dim,
        lambda_min=lam_a,
        lambda_max=lam_b,
        lambda_index=lambda_index,
        delta_lambda=draw(st.sampled_from([1.0, -1.0])) * draw(positive),
        h_min=h_min,
        h_max=h_max,
        h_init=h_init,
        tol_residual=draw(st.floats(min_value=1e-15, max_value=1e-2)),
        max_iter=draw(st.integers(min_value=1, max_value=50)),
        mu=draw(st.floats(min_value=0.01, max_value=0.999)),
        gamma=draw(st.floats(min_value=1.0, max_value=8.0, exclude_min=True)),
        max_depth=draw(st.integers(min_value=1, max_value=9)),
        max_children=n_children,
        scalings=scalings,
        verbose=draw(st.integers(min_value=0, max_value=2)),
    )


def write_lines(tmp_path, lines, name="bad.params"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def valid_lines():
    params = make_params()
    lines = [
        "# comment line",
        f"N_DIM {params.n_dim}",
        f"LAMBDA_MIN {params.lambda_min}",
        f"LAMBDA_MAX {params.lambda_max}",
        f"LAMBDA_INDEX {params.lambda_index}",
        f"DELTA_LAMBDA {params.delta_lambda}",
        f"H_MIN {params.h_min}",
        f"H_MAX {params.h_max}",
        f"H_INIT {params.h_init}",
        f"TOL_RESIDUAL {params.tol_residual}",
        f"MAX_ITER {params.max_iter}",
        f"MU {params.mu}",
        f"GAMMA {params.gamma}",
        f"MAX_DEPTH {params.max_depth}",
        f"MAX_CHILDREN {params.max_children}",
    ]
    lines += [f"SCALE_PROCESS_{i} {s}" for i, s in enumerate(params.scalings)]
    return lines


def test_parse_accepts_comments_and_blank_lines(tmp_path):
    lines = valid_lines() + ["", "   ", "MU 0.5 # inline note".replace("MU", "# MU")]
    path = write_lines(tmp_path, lines, "ok.params")
    params = parse_parameters(path)
    assert params == make_params()
    assert params.verbose == 0  # VERBOSE is optional


def parse_error(tmp_path, lines) -> str:
    """The ParameterError message for a file of these lines."""
    path = write_lines(tmp_path, lines)
    with pytest.raises(ParameterError) as info:
        parse_parameters(path)
    return str(info.value)


def test_parse_rejects_unknown_key(tmp_path):
    for line, message in [
        ("WIDGET 3", "unknown key 'WIDGET'"),
        ("SCALE_PROCESS_x 1.0", "bad scaling key 'SCALE_PROCESS_x'"),
    ]:
        lines = valid_lines() + [line]
        assert parse_error(tmp_path, lines) == (
            f"{tmp_path / 'bad.params'}:{len(lines)}: {message}"
        )


def test_parse_rejects_duplicate_key(tmp_path):
    # SCALE_PROCESS_00 names the same slot as SCALE_PROCESS_0.
    for line in ["MU 0.25", "SCALE_PROCESS_0 1.0", "SCALE_PROCESS_00 1.0"]:
        key = line.split()[0]
        lines = valid_lines() + [line]
        assert parse_error(tmp_path, lines) == (
            f"{tmp_path / 'bad.params'}:{len(lines)}: duplicate key {key!r}"
        )


def test_parse_rejects_bad_value(tmp_path):
    for key, text in [("MAX_ITER", "six"), ("SCALE_PROCESS_0", "abc")]:
        lines = valid_lines()
        index = next(i for i, l in enumerate(lines) if l.startswith(key + " "))
        lines[index] = f"{key} {text}"
        assert parse_error(tmp_path, lines) == (
            f"{tmp_path / 'bad.params'}:{index + 1}: bad value for {key}: {text!r}"
        )


def test_parse_rejects_malformed_line(tmp_path):
    path = write_lines(tmp_path, valid_lines() + ["MU"])
    with pytest.raises(ParameterError, match=r"expected 'KEY value'"):
        parse_parameters(path)


def test_parse_reports_missing_keys(tmp_path):
    lines = [l for l in valid_lines() if not l.startswith("TOL_RESIDUAL")]
    path = write_lines(tmp_path, lines)
    with pytest.raises(ParameterError, match=r"missing required key.*TOL_RESIDUAL"):
        parse_parameters(path)


def test_parse_rejects_scaling_gap(tmp_path):
    lines = [l for l in valid_lines() if not l.startswith("SCALE_PROCESS_1")]
    lines.append("SCALE_PROCESS_5 1.0")
    path = write_lines(tmp_path, lines)
    with pytest.raises(ParameterError, match=r"SCALE_PROCESS_0 \.\. SCALE_PROCESS_2"):
        parse_parameters(path)


def test_parse_rejects_scaling_count_mismatch(tmp_path):
    path = write_lines(tmp_path, valid_lines() + ["SCALE_PROCESS_3 4.0"])
    with pytest.raises(ParameterError, match=r"MAX_CHILDREN=3"):
        parse_parameters(path)


def test_parse_is_bounded_by_the_file(tmp_path):
    # The scaling slots are checked against the lines present, so a huge
    # MAX_CHILDREN costs nothing in proportion to it.
    lines = valid_lines()
    lines[lines.index("MAX_CHILDREN 3")] = f"MAX_CHILDREN {10**6}"
    tracemalloc.start()
    try:
        message = parse_error(tmp_path, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message.endswith(
        "need SCALE_PROCESS_0 .. SCALE_PROCESS_999999 to match "
        "MAX_CHILDREN=1000000, got: SCALE_PROCESS_0, SCALE_PROCESS_1, "
        "SCALE_PROCESS_2"
    )
    assert peak < 1_000_000
    # A deep shape parses to the capped default budget.
    lines = valid_lines()
    lines[lines.index("MAX_DEPTH 2")] = f"MAX_DEPTH {10**9}"
    assert parse_parameters(write_lines(tmp_path, lines)).worker_budget == sys.maxsize


def test_parse_rejects_invalid_combination(tmp_path):
    lines = valid_lines()
    lines[lines.index("LAMBDA_INDEX 1")] = "LAMBDA_INDEX 7"
    path = write_lines(tmp_path, lines)
    with pytest.raises(ValueError, match="LAMBDA_INDEX"):
        parse_parameters(path)


# ---------------------------------------------------------------------------
# Curve and point files
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(finite, min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_curve_files_round_trip_exactly(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("curve") / "curve.txt"
    points = [np.array(r) for r in rows]
    write_curve(path, points)
    back = read_curve(path)
    assert back.shape == (len(rows), 3)
    assert np.array_equal(back, np.array(rows))


def test_read_initial_point_skips_comments(tmp_path):
    path = tmp_path / "start.txt"
    path.write_text("# starting state\n\n1.5\n-2.25e-3\n0\n", encoding="utf-8")
    assert read_initial_point(path) == pytest.approx([1.5, -2.25e-3, 0.0])


def test_read_initial_point_accepts_one_row(tmp_path):
    path = tmp_path / "start.txt"
    path.write_text("1 0\n", encoding="utf-8")
    assert read_initial_point(path) == pytest.approx([1.0, 0.0])


# ---------------------------------------------------------------------------
# DOT snapshots
# ---------------------------------------------------------------------------


def test_export_dot_writes_one_file_per_round(tmp_path):
    root = make_node(Color.GREEN, nu=2, h_init=1.0, residual=1e-12)
    left = make_node(Color.YELLOW, nu=1, h_init=0.5, residual=1e-4)
    right = make_node(Color.BLACK, nu=3, h_init=2.0, residual=9.0)
    leaf = make_node(Color.RED, nu=0, h_init=0.25, residual=0.3)
    root.children = [left, right]
    left.children = [leaf]

    out = export_dot(root, 7, tmp_path)
    assert out.name == "tree_7.dot"
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph round_7 {")
    assert text.rstrip().endswith("}")

    node_lines = re.findall(r"n(\d+) \[label=\"([^\"]*)\", fillcolor=(\w+)", text)
    assert len(node_lines) == 4
    colors = [c for _, _, c in node_lines]
    assert sorted(colors) == ["black", "green", "red", "yellow"]
    assert "fontcolor=white" in text  # the black node stays readable
    for _, label, _ in node_lines:
        assert re.fullmatch(r"nu=\d+ h=[\d.eE+-]+ r=[\d.eE+-]+", label)

    edges = re.findall(r"n(\d+) -> n(\d+);", text)
    assert len(edges) == 3
    ids = {int(i) for i, _, _ in node_lines}
    assert {int(a) for a, _ in edges} <= ids and {int(b) for _, b in edges} <= ids
