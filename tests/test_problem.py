"""Residual evaluation and the bordered corrector step."""

import re
import threading

import numpy as np
import pytest

from arctree import (
    CorrectorFailure,
    EvaluationError,
    ProblemDefinition,
    circle_problem,
)
from arctree import problem as problem_module
from arctree.problem import (
    bordered_newton_step,
    corrector_step,
    evaluate_residual,
    residual_norm,
)
from test_engine import counting_circle


def exactly(message):
    """A pytest.raises match for this whole message and nothing else."""
    return f"^{re.escape(message)}$"


def test_problem_definition_validation():
    with pytest.raises(ValueError):
        ProblemDefinition(n_dim=1, lambda_index=0, residual=lambda z: z)
    with pytest.raises(ValueError):
        ProblemDefinition(n_dim=3, lambda_index=3, residual=lambda z: z)


def no_jacobian(z):
    """A Jacobian stub for problems whose residual alone is under test."""
    raise AssertionError("the Jacobian is not evaluated here")


def test_evaluate_residual_shape_and_finiteness():
    bad = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([np.nan]),
        jacobian=no_jacobian,
    )
    with pytest.raises(EvaluationError):
        evaluate_residual(bad, np.zeros(2))
    wrong_shape = ProblemDefinition(
        n_dim=2, lambda_index=1, residual=lambda z: np.zeros(2), jacobian=no_jacobian
    )
    with pytest.raises(
        ValueError, match=exactly("residual has shape (2,), expected (1,)")
    ):
        evaluate_residual(wrong_shape, np.zeros(2))


def test_residual_norm_circle():
    problem = circle_problem()
    assert residual_norm(problem, np.array([1.0, 0.0])) == 0.0
    assert residual_norm(problem, np.array([1.0, 0.1])) == pytest.approx(0.01)


def test_bordered_step_hand_oracle():
    # One step from the predictor (1, 0.1): the 2x2 system
    # [[2, 0.2], [0, 1]] d = [-0.01, 0] gives d = (-0.005, 0).
    problem = circle_problem()
    z_base = np.array([1.0, 0.0])
    tangent = np.array([0.0, 1.0])
    zeta = z_base + 0.1 * tangent
    out = corrector_step(problem, zeta, tangent, z_base, 0.1, problem.residual(zeta))
    assert out == pytest.approx(np.array([0.995, 0.1]), abs=1e-15)


def test_bordered_step_converges_onto_curve():
    problem = circle_problem()
    z_base = np.array([1.0, 0.0])
    tangent = np.array([0.0, 1.0])
    h = 0.1
    zeta = z_base + h * tangent
    for _ in range(8):
        zeta = corrector_step(problem, zeta, tangent, z_base, h, problem.residual(zeta))
    assert residual_norm(problem, zeta) < 1e-14
    assert tangent @ (zeta - z_base) == pytest.approx(h, abs=1e-12)


def test_hyperplane_constraint_preserved():
    # When the input already satisfies T (zeta - z_base) = h to 1e-12,
    # the output satisfies it to 1e-10.
    problem = circle_problem()
    rng = np.random.default_rng(7)
    for _ in range(25):
        theta = rng.uniform(0.1, 1.4)
        z_base = np.array([np.cos(theta), np.sin(theta)])
        tangent = np.array([-np.sin(theta), np.cos(theta)])
        h = rng.uniform(0.01, 0.2)
        zeta = z_base + h * tangent + rng.normal(scale=0.01, size=2)
        zeta += (h - tangent @ (zeta - z_base)) * tangent
        assert abs(tangent @ (zeta - z_base) - h) < 1e-12
        out = corrector_step(problem, zeta, tangent, z_base, h, problem.residual(zeta))
        assert abs(tangent @ (out - z_base) - h) < 1e-10


def test_residual_contraction_near_curve():
    # Inside the quadratic basin (distance <= 0.05 from the circle) one
    # bordered step contracts the residual by better than mu = 0.5.
    problem = circle_problem()
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(0.0, 2 * np.pi)
        on_curve = np.array([np.cos(theta), np.sin(theta)])
        tangent = np.array([-np.sin(theta), np.cos(theta)])
        offset = rng.uniform(-0.05, 0.05)
        zeta = on_curve + offset * on_curve  # radial perturbation
        h = float(tangent @ (zeta - on_curve))
        before = residual_norm(problem, zeta)
        if before == 0.0:
            continue
        out = corrector_step(problem, zeta, tangent, on_curve, h, problem.residual(zeta))
        assert residual_norm(problem, out) <= 0.5 * before


def test_singular_bordered_matrix_fails():
    # At the origin the circle's Jacobian row vanishes; stacking it with
    # the tangent leaves a singular 2x2 system.  Under the row [[1, 0]] the
    # tangent (0, 1e-16) leaves a nonzero pivot below the relative threshold.
    circle = circle_problem()
    line = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        jacobian=lambda z: np.array([[1.0, 0.0]]),
    )
    for problem, tangent in [
        (circle, np.array([0.0, 1.0])),
        (line, np.array([0.0, 1e-16])),
    ]:
        with pytest.raises(CorrectorFailure, match="singular"):
            bordered_newton_step(
                problem, np.zeros(2), tangent, np.zeros(2), 0.1,
                problem.residual(np.zeros(2)),
            )


# Each input puts a NaN or an infinity into the bordered system at the
# predictor (1, 0.1), whose Jacobian row is [[2, 0.2]].  An infinite pivot
# alone solves to a finite update, so only the pivot test catches it; the
# rest reach the update, which corrector_step judges.
NON_FINITE = {
    "jacobian": dict(jacobian=[[np.nan, 0.2]]),
    "inf-jacobian": dict(jacobian=[[np.inf, 0.2]]),
    "tangent": dict(tangent=[np.nan, 1.0]),
    "inf-pivot": dict(jacobian=[[np.inf, 0.0]]),
    "inf-off-pivot": dict(jacobian=[[1.0, np.inf]]),
    "nan-gap": dict(z_base=[np.nan, 0.0]),
    "inf-h": dict(h=np.inf),
}


@pytest.mark.parametrize("where", list(NON_FINITE))
def test_non_finite_bordered_system_fails(where):
    case = dict(
        jacobian=[[2.0, 0.2]], tangent=[0.0, 1.0], z_base=[1.0, 0.0], h=0.1
    )
    case.update(NON_FINITE[where])
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=circle_problem().residual,
        jacobian=lambda z: np.array(case["jacobian"]),
    )
    with pytest.raises(CorrectorFailure):
        corrector_step(
            problem, np.array([1.0, 0.1]), np.array(case["tangent"]),
            np.array(case["z_base"]), case["h"], np.array([0.01]),
        )


def test_zero_bordered_matrix_fails():
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        jacobian=lambda z: np.zeros((1, 2)),
    )
    with pytest.raises(CorrectorFailure):
        bordered_newton_step(
            problem, np.zeros(2), np.zeros(2), np.zeros(2), 0.1, np.zeros(1)
        )


def test_a_turn_is_let_go_only_while_the_matrix_is_factored(monkeypatch):
    # No thread is started: the caller holds the turn throughout, and the
    # step lets it go around lu_factor alone, returning or raising.
    problem = circle_problem()
    zeta, tangent = np.array([1.0, 0.1]), np.array([0.0, 1.0])
    z_base, f = np.array([1.0, 0.0]), np.array([0.01])
    expected = bordered_newton_step(problem, zeta, tangent, z_base, 0.1, f)
    turn = threading.Lock()
    free = []
    factor = problem_module.lu_factor
    refuse = [False]

    def lu_factor(matrix):
        free.append(not turn.locked())
        if refuse[0]:
            raise ValueError("getrf refused")
        return factor(matrix)

    monkeypatch.setattr(problem_module, "lu_factor", lu_factor)
    with turn:
        out = bordered_newton_step(problem, zeta, tangent, z_base, 0.1, f, turn=turn)
        assert turn.locked()
        refuse[0] = True
        with pytest.raises(ValueError, match="getrf refused"):
            bordered_newton_step(problem, zeta, tangent, z_base, 0.1, f, turn=turn)
        assert turn.locked()
    assert free == [True, True]
    assert out.tobytes() == expected.tobytes()


def test_known_residual_is_used_in_place_of_an_evaluation():
    problem, calls = counting_circle()
    corrector_step(
        problem, np.array([1.0, 0.1]), np.array([0.0, 1.0]),
        np.array([1.0, 0.0]), 0.1, np.array([0.01]),
    )
    assert calls == []


def test_an_overflowing_bordered_solve_fails():
    # Both pivots pass the relative test (largest pivot 1), but the solve
    # for the constraint row divides h = 1e300 by 1e-13.
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        jacobian=lambda z: np.array([[1.0, 0.0]]),
    )
    with pytest.raises(CorrectorFailure, match="non-finite corrector update"):
        corrector_step(
            problem, np.zeros(2), np.array([0.0, 1e-13]), np.zeros(2), 1e300,
            np.zeros(1),
        )
    # The bordered step itself leaves the update to corrector_step.
    out = bordered_newton_step(
        problem, np.zeros(2), np.array([0.0, 1e-13]), np.zeros(2), 1e300,
        np.zeros(1),
    )
    assert not np.isfinite(out).all()


def test_corrector_requires_jacobian_or_custom():
    # A problem that cannot take a corrector step is refused when built.
    with pytest.raises(ValueError, match="jacobian or a corrector"):
        ProblemDefinition(n_dim=2, lambda_index=1, residual=lambda z: np.array([z[0]]))
    # A Jacobian of the wrong shape is a contract error too.
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        jacobian=lambda z: np.ones((2, 2)),
    )
    with pytest.raises(
        ValueError, match=exactly("jacobian has shape (2, 2), expected (1, 2)")
    ):
        corrector_step(
            problem, np.zeros(2), np.array([0.0, 1.0]), np.zeros(2), 0.1, np.zeros(1)
        )


def test_custom_corrector_dispatch():
    calls = []

    def stepper(zeta, tangent, z_base, h):
        calls.append(1)
        return zeta * 0.5

    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        corrector=stepper,
    )
    out = corrector_step(
        problem, np.ones(2), np.array([0.0, 1.0]), np.zeros(2), 0.1, np.ones(1)
    )
    assert calls == [1]
    assert out == pytest.approx(np.array([0.5, 0.5]))


def test_custom_corrector_output_checked():
    problem = ProblemDefinition(
        n_dim=2,
        lambda_index=1,
        residual=lambda z: np.array([z[0]]),
        corrector=lambda zeta, tangent, z_base, h: np.array([np.inf, 0.0]),
    )
    # Both steppers' output is judged once, by the same check.
    with pytest.raises(CorrectorFailure, match=exactly("non-finite corrector update")):
        corrector_step(
            problem, np.ones(2), np.array([0.0, 1.0]), np.zeros(2), 0.1, np.ones(1)
        )
    # A wrong shape is a contract error, not a step failure.
    problem.corrector = lambda zeta, tangent, z_base, h: np.zeros(3)
    with pytest.raises(
        ValueError, match=exactly("corrector returned shape (3,), expected (2,)")
    ):
        corrector_step(
            problem, np.ones(2), np.array([0.0, 1.0]), np.zeros(2), 0.1, np.ones(1)
        )


def test_circle_jacobian_matches_finite_differences():
    problem = circle_problem()
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.normal(size=2)
        jac = problem.jacobian(z)
        eps = 1e-6
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = eps
            fd = (problem.residual(z + dz) - problem.residual(z - dz)) / (2 * eps)
            assert jac[:, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
