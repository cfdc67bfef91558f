"""Run-parameter validation."""

import math
import sys

import pytest

import arctree.params
from arctree import ParameterError
from arctree.params import default_worker_budget
from conftest import make_params


def test_defaults_accepted():
    params = make_params()
    assert params.scalings == (0.75, 1.0, 2.0)
    assert params.verbose == 0
    assert params.round_limit == 1_000_000


def test_default_worker_budget_geometric_sum():
    assert default_worker_budget(3, 1) == 3
    assert default_worker_budget(3, 2) == 12
    assert default_worker_budget(3, 3) == 39
    assert default_worker_budget(1, 5) == 5
    params = make_params(max_depth=2, max_children=3)
    assert params.worker_budget == 12


def test_default_worker_budget_is_capped_for_deep_trees():
    # A full tree this deep holds more slots than any run can fill, so the
    # default stops at sys.maxsize instead of summing depth-long integers.
    assert make_params(max_depth=5000).worker_budget == sys.maxsize
    assert default_worker_budget(2, 10**9) == sys.maxsize
    assert default_worker_budget(1, 10**9) == 10**9
    assert default_worker_budget(2, 62) == 2**63 - 2


def test_default_worker_budget_waits_for_a_valid_shape(monkeypatch):
    def refuse(*shape):
        raise AssertionError(f"default budget computed for shape {shape}")

    monkeypatch.setattr(arctree.params, "default_worker_budget", refuse)
    for shape in [
        dict(max_children=0, scalings=(), max_depth=10**9),
        dict(max_depth=0),
    ]:
        with pytest.raises(ParameterError, match="must be at least 1"):
            make_params(**shape)


def test_worker_budget_override():
    assert make_params(worker_budget=4).worker_budget == 4
    with pytest.raises(ParameterError):
        make_params(worker_budget=0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_dim=1),
        dict(lambda_index=-1),
        dict(lambda_index=2),
        dict(lambda_min=2.0),  # window empty
        dict(delta_lambda=0.0),
        dict(h_min=0.0),
        dict(h_max=1e-9),  # below h_min
        dict(h_init=0.0),
        dict(h_init=0.5),  # above h_max
        dict(max_iter=0),
        dict(tol_residual=0.0),
        dict(mu=0.0),
        dict(mu=1.0),
        dict(gamma=1.0),
        dict(max_depth=0),
        dict(max_children=0),
        dict(scalings=(0.75, 1.0)),  # length mismatch
        dict(scalings=(0.75, -1.0, 2.0)),
        dict(verbose=-1),
        dict(round_limit=0),
        # non-finite settings
        dict(lambda_min=-math.inf),
        dict(lambda_max=math.inf),
        dict(delta_lambda=math.nan),
        dict(delta_lambda=math.inf),
        dict(delta_lambda=-math.inf),
        dict(h_min=math.nan),
        dict(h_max=math.nan),
        dict(h_max=math.inf),
        dict(h_init=math.nan),
        dict(tol_residual=math.nan),
        dict(tol_residual=math.inf),
        dict(gamma=math.nan),
        dict(gamma=math.inf),
        dict(scalings=(0.75, math.nan, 2.0)),
        dict(scalings=(0.75, 1.0, math.inf)),
    ],
)
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ParameterError):
        make_params(**overrides)


def test_scalings_are_stored_ascending():
    assert make_params(scalings=(2.0, 1.0, 0.75)).scalings == (0.75, 1.0, 2.0)
    assert make_params(scalings=(2.0, 1.0, 0.75)) == make_params()


def test_scalings_all_above_one_rejected():
    # No child could fit once the step controller reaches h_max.
    with pytest.raises(ParameterError, match="smallest SCALE_PROCESS"):
        make_params(scalings=(1.5, 2.0, 3.0))
    assert make_params(scalings=(1.0, 2.0, 3.0)).scalings[0] == 1.0


def test_bad_scaling_is_named_by_its_file_position():
    with pytest.raises(ParameterError, match="SCALE_PROCESS_2 must be positive"):
        make_params(scalings=(2.0, 0.5, -1.0))


def test_signed_h_init_allowed():
    assert make_params(h_init=-0.1).h_init == -0.1


def test_h_init_below_h_min_is_not_a_validation_error():
    # A run with |h_init| < h_min terminates immediately with a step
    # underflow instead of being rejected up front.
    params = make_params(h_min=1e-3, h_init=1e-4)
    assert params.h_init == 1e-4
