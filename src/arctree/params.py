"""Run configuration shared by the tree, the engine, and the baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """Invalid run configuration or parameter file content."""


def default_worker_budget(max_children: int, max_depth: int) -> int:
    """Corrector slots needed to populate a full speculation tree."""
    return sum(max_children**k for k in range(1, max_depth + 1))


@dataclass
class RunParams:
    """Validated knobs for one continuation run.

    h_init is signed: its sign selects the traversal direction along the
    curve at bootstrap time (parameter increasing when positive), while
    all tree step lengths use its magnitude.  scalings holds one positive
    predictor step multiplier per speculative child, max_children in
    total, stored ascending, the smallest at most 1 (so some child fits
    under h_max).  worker_budget is the number of logical corrector slots
    and is part of the algorithm (it bounds speculation); the number of
    threads that physically serve those slots is a separate execution
    detail and never changes results.  Only the CLI reads verbose.

    A parameter file (see fileio) holds one ``KEY value`` line per field
    but scalings, worker_budget and round_limit: KEY is the field name in
    upper case, the value is read as the field's annotated type (int or
    float), and the key may be left out exactly when the field has a
    default.  The scalings are the lines SCALE_PROCESS_0 ..
    SCALE_PROCESS_{max_children - 1}.
    """

    n_dim: int
    lambda_min: float
    lambda_max: float
    lambda_index: int
    delta_lambda: float
    h_min: float
    h_max: float
    h_init: float
    max_iter: int
    tol_residual: float
    mu: float
    gamma: float
    max_depth: int
    max_children: int
    scalings: tuple[float, ...]
    verbose: int = 0
    worker_budget: int | None = None
    round_limit: int = 1_000_000

    def __post_init__(self) -> None:
        self.scalings = tuple(float(t) for t in self.scalings)
        if self.worker_budget is None:
            self.worker_budget = default_worker_budget(
                self.max_children, self.max_depth
            )
        self._validate()

    def _validate(self) -> None:
        def bad(msg: str) -> ParameterError:
            return ParameterError(f"invalid parameters: {msg}")

        if self.n_dim < 2:
            raise bad("N_DIM must be at least 2")
        if not 0 <= self.lambda_index < self.n_dim:
            raise bad("LAMBDA_INDEX out of range")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise bad(f"{f.name.upper()} must be finite")
        if not self.lambda_min < self.lambda_max:
            raise bad("LAMBDA_MIN must be below LAMBDA_MAX")
        if self.delta_lambda == 0.0:
            raise bad("DELTA_LAMBDA must be nonzero")
        if self.h_min <= 0.0:
            raise bad("H_MIN must be positive")
        if self.h_max < self.h_min:
            raise bad("H_MAX must be at least H_MIN")
        if self.h_init == 0.0:
            raise bad("H_INIT must be nonzero")
        if abs(self.h_init) > self.h_max:
            raise bad("H_INIT magnitude exceeds H_MAX")
        if self.max_iter < 1:
            raise bad("MAX_ITER must be at least 1")
        if self.tol_residual <= 0.0:
            raise bad("TOL_RESIDUAL must be positive")
        if not 0.0 < self.mu < 1.0:
            raise bad("MU must lie strictly between 0 and 1")
        if self.gamma <= 1.0:
            raise bad("GAMMA must exceed 1")
        if self.max_depth < 1:
            raise bad("MAX_DEPTH must be at least 1")
        if self.max_children < 1:
            raise bad("MAX_CHILDREN must be at least 1")
        if len(self.scalings) != self.max_children:
            raise bad("one scaling is required per speculative child")
        for k, t in enumerate(self.scalings):
            if not 0.0 < t < math.inf:
                raise bad(f"SCALE_PROCESS_{k} must be positive and finite")
        self.scalings = tuple(sorted(self.scalings))
        if self.scalings[0] > 1.0:
            raise bad("the smallest SCALE_PROCESS must be at most 1")
        if self.verbose < 0:
            raise bad("VERBOSE must be nonnegative")
        if self.worker_budget < 1:
            raise bad("worker budget must be at least 1")
        if self.round_limit < 1:
            raise bad("round limit must be at least 1")
