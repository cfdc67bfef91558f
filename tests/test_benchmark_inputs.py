"""The packaged inputs that perfbench/workloads.py runs, pinned by content."""

import hashlib

import pytest

from arctree import data_path

PINNED = {
    "ks_n128.params": "a6390240f0f37792c1868592e8ccb0bae2e3900f28be935268f62decd758bc67",
    "ks_start_n128.txt": "a3d915c912168d6628c944e3802f45fabc557f2472b6f96c054d02251a3e5e2a",
    "circle.params": "28c4638d539189933e5731a9871b36f45a764ecf9bf9b8056cc690c5f4b9eeef",
    "circle_start.txt": "339baf78315bdce6bf329e9fff649cff5ec8b69d45a3481f8d76efbb54f6f738",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_inputs_are_unchanged(name):
    digest = hashlib.sha256(data_path(name).read_bytes()).hexdigest()
    assert digest == PINNED[name], (
        f"{name} is an input of the workloads BENCHMARK.json declares "
        "(perfbench/workloads.py), so changing it is a change to the "
        "benchmark, made on its own; new inputs go beside it under new "
        "names (ROADMAP item 11)"
    )
