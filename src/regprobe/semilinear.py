"""Picard iteration for the semilinear Dirichlet problem L u = f(x, u).

Each outer step solves the linear problem with the nonlinearity frozen at
the previous iterate, reusing the operator's one LU factor, then blends
old and new solutions with a damping weight.  Convergence is declared
when the sup-norm update drops below the configured tolerance; a run
whose updates fail to shrink for five consecutive steps is declared
stalled and raises FixedPointError with the full update history attached.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import LinearOperator, assemble, solve_dirichlet
from .errors import FieldValidationError, FixedPointError
from .fields import CoefficientField, Nonlinearity
from .grid import DiscreteField, DiskGrid


@dataclass(frozen=True)
class PicardConfig:
    max_outer: int = 60
    tol: float = 1e-9
    damping: float = 1.0
    rtol: float = 1e-11

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.tol <= self.rtol:
            raise ValueError(
                f"outer tolerance {self.tol} must exceed the linear solver tolerance {self.rtol}"
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
        lin = solve_dirichlet(op, rhs, boundary, rtol=config.rtol)
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
            err = FixedPointError(
                f"updates stopped shrinking for 5 consecutive steps "
                f"(last {increments[-1]:.3e})"
            )
            err.history = tuple(increments)
            raise err

    if not converged:
        err = FixedPointError(
            f"no fixed point within {config.max_outer} outer iterations "
            f"(last update {increments[-1]:.3e})"
        )
        err.history = tuple(increments)
        raise err

    f_final = nonlinearity.eval(pts, u)
    raw = f_final - op.apply(u, boundary.values)
    residual = float(np.max(np.abs(raw / op.row_scale)))
    return PicardResult(DiscreteField(grid, u, "solution"),
                        len(increments), tuple(increments), theta, residual)


def contraction_estimate(op: LinearOperator, lipschitz: float,
                         rtol: float = 1e-11) -> float:
    """Upper bound lipschitz * ||L^{-1} 1||_inf on the Picard contraction factor.

    Solves L w = -1 with zero boundary values; for the Laplacian on the
    unit disk the sup of w is 1/4.
    """
    if lipschitz < 0.0:
        raise ValueError("Lipschitz bound must be nonnegative")
    grid = op.grid
    rhs = DiscreteField(grid, -np.ones(grid.n_interior), "rhs")
    zero = DiscreteField(grid, np.zeros(grid.n_boundary), "boundary")
    w = solve_dirichlet(op, rhs, zero, rtol=rtol)
    return lipschitz * float(np.max(np.abs(w.values)))


@dataclass(frozen=True)
class SemilinearProblem:
    """Coefficients, nonlinearity and boundary data, ready to solve on a grid."""

    field: CoefficientField
    nonlinearity: Nonlinearity
    boundary: object
    label: str = ""

    def solve(self, grid: DiskGrid, config: PicardConfig | None = None) -> PicardResult:
        op = assemble(self.field, grid, label=self.label)
        g = grid.boundary_from_function(self.boundary)
        return picard_solve(op, self.nonlinearity, g, config)
