"""Picard iteration for the semilinear Dirichlet problem L u = f(x, u).

Each outer step solves the linear problem with the nonlinearity frozen at
the previous iterate, reusing the operator's one LU factor, then blends
old and new solutions with a damping weight.  Convergence is declared
when the sup-norm update drops below the configured tolerance; a run
whose updates fail to shrink for five consecutive steps is declared
stalled and raises FixedPointError naming the last update.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import SOLVER_RTOL, LinearOperator, solve_dirichlet
from .errors import FieldValidationError, FixedPointError, check_numbers
from .fields import Nonlinearity
from .grid import DiscreteField


@dataclass(frozen=True)
class PicardConfig:
    max_outer: int = 60
    tol: float = 1e-9
    damping: float = 1.0

    def __post_init__(self):
        check_numbers(self, ints=("max_outer",), floats=("tol", "damping"))
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.tol <= SOLVER_RTOL:
            raise ValueError(
                f"outer tolerance {self.tol} must exceed the linear solver tolerance {SOLVER_RTOL}"
            )
        if self.max_outer < 1:
            raise ValueError("need at least one outer iteration")


@dataclass(frozen=True)
class PicardResult:
    u: DiscreteField
    outer_iterations: int
    increments: tuple
    damping_used: float
    residual_sup: float


def _stalled(increments) -> bool:
    if len(increments) < 5:
        return False
    tail = increments[-5:]
    return all(tail[i + 1] >= tail[i] for i in range(4))


def picard_solve(op: LinearOperator, nonlinearity: Nonlinearity,
                 boundary: DiscreteField, config: PicardConfig | None = None) -> PicardResult:
    """Iterate u <- (1-theta) u + theta L^{-1} f(x, u) from u = 0.

    The damping weight starts at config.damping and is halved once, the
    first time an update fails to shrink.  The reported residual is the
    row-equilibrated sup of L u - f(x, u), which convergence keeps within
    a small multiple of the outer tolerance.
    """
    if config is None:
        config = PicardConfig()
    if boundary.role != "boundary":
        raise FieldValidationError("boundary field must have the boundary role")
    grid = op.grid
    if boundary.grid is not grid:
        raise FieldValidationError("boundary field lives on a different grid")

    pts = grid.coords
    u = np.zeros(grid.n_interior)
    theta = config.damping
    halved = False
    increments: list[float] = []
    converged = False

    for _ in range(config.max_outer):
        rhs = DiscreteField(grid, nonlinearity.eval(pts, u), "rhs")
        lin = solve_dirichlet(op, rhs, boundary)
        new = (1.0 - theta) * u + theta * lin.values
        step = float(np.max(np.abs(new - u)))
        increments.append(step)
        u = new
        if step <= config.tol:
            converged = True
            break
        if len(increments) >= 2 and step > increments[-2] and not halved:
            theta *= 0.5
            halved = True
        if _stalled(increments):
            raise FixedPointError(
                f"updates stopped shrinking for 5 consecutive steps "
                f"(last {increments[-1]:.3e})")

    if not converged:
        raise FixedPointError(
            f"no fixed point within {config.max_outer} outer iterations "
            f"(last update {increments[-1]:.3e})")

    f_final = nonlinearity.eval(pts, u)
    raw = f_final - op.apply(u, boundary.values)
    residual = float(np.max(np.abs(raw / op.row_scale)))
    return PicardResult(DiscreteField(grid, u, "solution"),
                        len(increments), tuple(increments), theta, residual)
