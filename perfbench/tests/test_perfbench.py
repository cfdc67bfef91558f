"""Self-tests of the benchmark's checks and tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import importlib
import json

import arctree.cli as cli
import pytest

import run
from layertrace import TARGETS, LayerTrace, summarize
from workloads import WORKLOADS

CIRCLE = WORKLOADS["circle-tree"]


def test_traced_counts_equal_untraced_counts(tmp_path):
    session = run.Session(cli, CIRCLE, tmp_path)
    plain = session.run()
    with LayerTrace() as trace:
        traced = session.run(label="traced run")
    layer = summarize(trace.take(), traced.wall)
    run.check_trace_counts(session, layer)

    assert session.failures == []
    assert traced.counts == plain.counts
    assert (layer["rounds"], layer["corrector_steps"]) == (plain.counts.rounds, plain.counts.steps)
    assert layer["engine_steps"] == plain.counts.steps
    # Bootstrap's neighbour point adds its own bordered Newton steps.
    assert layer["step_calls"] > layer["engine_steps"]


def test_corrupted_row_counts_as_failed_run(tmp_path, monkeypatch):
    session = run.Session(cli, CIRCLE, tmp_path)
    session.run()
    assert not session.failed_runs

    write = cli.write_curve_point
    rows = []

    def corrupt_third_row(fh, z):
        rows.append(z)
        write(fh, z * (1.0 + 1e-6) if len(rows) == 3 else z)

    monkeypatch.setattr(cli, "write_curve_point", corrupt_third_row)
    bad = session.run()

    assert bad.code == 0
    assert not bad.check.ok and bad.check.reason.startswith("row 3:")
    assert session.failed_runs == {2}
    assert session.attempted == 2
    assert "row 3:" in session.failures[-1]


def test_curve_differing_from_first_run_fails(tmp_path, monkeypatch):
    # As ks128-tree-w2 against its ks128-tree reference: a curve that
    # verifies but is not byte-identical to the first run's fails.
    session = run.Session(cli, CIRCLE, tmp_path)
    session.run(label="reference run")
    write = cli.write_curve_point
    rows = []

    def nudge_fifth_row(fh, z):
        rows.append(z)
        write(fh, z * (1.0 + 1e-15) if len(rows) == 5 else z)

    monkeypatch.setattr(cli, "write_curve_point", nudge_fifth_row)
    other = session.run()

    assert other.code == 0 and other.check.ok
    assert session.failed_runs == {2}
    assert "differ from the first run" in session.failures[-1]


def _bound_targets():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in TARGETS
    }


def test_trace_restores_original_functions(tmp_path):
    before = _bound_targets()
    session = run.Session(cli, CIRCLE, tmp_path)
    with LayerTrace() as trace:
        assert all(_bound_targets()[key] is not fn for key, fn in before.items())
        session.run()
    assert trace.missing == []
    assert _bound_targets() == before

    with pytest.raises(RuntimeError):
        with LayerTrace():
            raise RuntimeError("run aborted")
    assert _bound_targets() == before


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, kind, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "circle-tree", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]
    }
