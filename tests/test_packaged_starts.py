"""Every packaged start passes the check a run makes before it emits.

A CLI run builds its problem with cli.resolve_problem and accepts its
start through engine.start_point, whose bound is the parameter file's own
TOL_RESIDUAL.  A new packaged start is one more case here.
"""

import pytest

from arctree import KsConfig, data_path, parse_parameters, read_initial_point
from arctree.cli import resolve_problem
from arctree.engine import start_point

# (--problem, parameter file, start file)
PACKAGED = [
    ("circle", "circle.params", "circle_start.txt"),
    ("ks", "ks_n128.params", "ks_start_n128.txt"),
]


@pytest.mark.parametrize(
    "spec,params_file,start_file", PACKAGED, ids=[case[2] for case in PACKAGED]
)
def test_packaged_start_is_accepted_as_a_run_accepts_it(spec, params_file, start_file):
    params = parse_parameters(data_path(params_file))
    z0 = read_initial_point(data_path(start_file))
    problem = resolve_problem(spec, params, z0, KsConfig.amplitude)
    accepted = []
    # Raises BootstrapError, naming the residual, above TOL_RESIDUAL.
    start = start_point(problem, params, z0, accepted, None)
    assert [p.residual_norm for p in accepted] == [start.residual_norm_current]
    assert start.residual_norm_current <= params.tol_residual
