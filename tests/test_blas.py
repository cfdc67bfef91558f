"""BLAS thread pinning around a continuation run."""

from dataclasses import replace

import pytest

from arctree import circle_problem, data_path
from arctree.blas import one_blas_thread, thread_controls
from arctree.cli import main

SEEN: list[list[int]] = []


def counts() -> list[int]:
    return [get() for get, _ in thread_controls()]


@pytest.fixture
def two_threads():
    """Every found OpenBLAS at two threads."""
    if not thread_controls():
        pytest.skip("no OpenBLAS found beside numpy or scipy")
    before = counts()
    for _, put in thread_controls():
        put(2)
    yield
    for (_, put), count in zip(thread_controls(), before):
        put(count)


def recording_problem():
    """The circle, recording the BLAS thread counts at every residual."""
    problem = circle_problem()

    def residual(z):
        SEEN.append(counts())
        return problem.residual(z)

    return replace(problem, residual=residual)


def test_one_blas_thread_pins_and_restores(two_threads):
    with one_blas_thread():
        assert counts() == [1] * len(thread_controls())
    assert counts() == [2] * len(thread_controls())


def test_cli_run_holds_one_blas_thread(two_threads, tmp_path):
    SEEN.clear()
    argv = [
        "--problem", "test_blas:recording_problem",
        "--params", str(data_path("circle.params")),
        "--initial-point", str(data_path("circle_start.txt")),
        "--outdir", str(tmp_path),
    ]
    assert main(argv) == 0
    assert SEEN and all(seen == [1] * len(thread_controls()) for seen in SEEN)
    assert counts() == [2] * len(thread_controls())
