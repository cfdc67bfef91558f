"""BLAS thread pinning around a continuation run, from the CLI or the library."""

import platform
import threading
from dataclasses import replace
from functools import partial

import pytest

from arctree import (
    circle_problem,
    data_path,
    natural_continuation,
    parse_parameters,
    read_initial_point,
    run_continuation,
    serial_pac,
)
from arctree.blas import one_blas_thread, thread_controls
from arctree.cli import main
from conftest import run_fresh

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


def test_overlapping_holds_restore_on_the_last_exit(two_threads):
    # A enters, B enters, A exits while B still holds, then B exits.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    waited, seen_by_b = [], []

    def a():
        with one_blas_thread():
            a_in.set()
            waited.append(b_in.wait(10))
        a_out.set()

    def b():
        waited.append(a_in.wait(10))
        with one_blas_thread():
            b_in.set()
            waited.append(a_out.wait(10))
            seen_by_b.append(counts())

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    assert waited == [True] * 3
    assert seen_by_b == [[1] * len(thread_controls())]
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


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(partial(run_continuation, n_workers=1), id="pampac-w1"),
        pytest.param(partial(run_continuation, n_workers=2), id="pampac-w2"),
        pytest.param(serial_pac, id="serial-pac"),
        pytest.param(natural_continuation, id="natural"),
    ],
)
def test_library_run_with_workers_holds_one_blas_thread(two_threads, run):
    SEEN.clear()
    params = parse_parameters(data_path("circle.params"))
    z0 = read_initial_point(data_path("circle_start.txt"))
    run(recording_problem(), params, z0)
    assert SEEN and all(seen == [1] * len(thread_controls()) for seen in SEEN)
    assert counts() == [2] * len(thread_controls())


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap trim threshold is a glibc setting",
)
def test_worker_steps_do_not_fault_their_temporaries_back_in():
    # After a warm-up run, a 2-worker KS tree run reuses the heap pages its
    # steps free; at glibc's default trim threshold it took about 50 minor
    # faults per corrector step.
    out = run_fresh(
        """
        import resource
        from dataclasses import replace
        from arctree import (
            data_path, ks_problem, load_ks_fixture, parse_parameters,
            run_continuation,
        )
        z0, config = load_ks_fixture()
        params = parse_parameters(data_path("ks_n128.params"))
        params = replace(params, worker_budget=12, round_limit=40)
        problem = ks_problem(config)
        run_continuation(problem, params, z0, n_workers=2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = run_continuation(problem, params, z0, n_workers=2)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(result.rounds_executed, result.corrector_steps_total, faults)
        """
    )
    rounds, steps, faults = map(int, out.split())
    assert rounds == 40
    assert faults < steps
