"""Picard iteration for the semilinear Dirichlet problem L u = f(x, u).

Each outer step solves the linear problem with the nonlinearity frozen at
the current iterate, reusing the operator's one LU factor, and blends old
and new solutions with a damping weight that starts at 1 and is halved
once.  Once the updates shrink, each step is corrected by a one-vector
secant (Anderson) step built from the previous iterate, which turns the
slow linear tail of a reaction term that is not Lipschitz (contraction
about 0.45 a step for the log-inverse modulus) into a few steps.
Convergence is declared when the plain damped update drops below the
configured tolerance; a run whose updates fail to shrink for five
consecutive steps, or that misses the tolerance within MAX_OUTER steps,
raises FixedPointError naming the last update.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elliptic import SOLVER_RTOL, LinearOperator, solve_dirichlet
from .errors import FieldValidationError, FixedPointError
from .fields import Nonlinearity
from .grid import DiscreteField


# nondini_c11 and drift_c1 reach tol = 1e-9 in at most 10 outer steps on
# 64 or 128 cells, and an oscillating reaction that needs the halved
# damping in 14; a run still moving after 60 is not converging.
MAX_OUTER = 60


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-9

    def __post_init__(self):
        # a bool is not a number, so a JSON true never passes as 1
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a number, got {self.tol!r}")
        try:
            finite = math.isfinite(self.tol)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"tol must be finite, got {self.tol!r}")
        if self.tol <= SOLVER_RTOL:
            raise ValueError(
                f"outer tolerance {self.tol} must exceed the linear solver tolerance {SOLVER_RTOL}"
            )


@dataclass(frozen=True)
class PicardResult:
    u: DiscreteField
    outer_iterations: int
    increments: tuple
    damping_used: float
    residual_sup: float


def _stopped_shrinking(increments) -> bool:
    if len(increments) < 5:
        return False
    tail = increments[-5:]
    return all(tail[i + 1] >= tail[i] for i in range(4))


def picard_solve(op: LinearOperator, nonlinearity: Nonlinearity,
                 boundary: DiscreteField, config: PicardConfig | None = None) -> PicardResult:
    """Iterate u <- (1-theta) u + theta L^{-1} f(x, u) from u = 0, with a
    secant correction once the updates shrink.

    At iterate u_k the undamped residual is r_k = L^{-1} f(x, u_k) - u_k
    and the plain step is u_k + theta r_k; ``increments`` records its size
    theta sup|r_k|.  When that size is below the previous one, the next
    iterate is the plain step minus gamma (du + theta dr), where du and dr
    are the changes of u and r since the previous iterate and gamma =
    <dr, r_k> / <dr, dr> (no correction when dr vanishes).  The iteration
    stops at the first plain update within the tolerance and returns that
    plain step, so the last linear solve certifies the fixed point.

    The damping weight starts at 1 and is halved once, the first time an
    update fails to shrink.  The reported residual is the row-equilibrated
    sup of L u - f(x, u), d (f(x, u) - B g) - A u with A = ``equilibrated``,
    B = ``boundary_matrix`` and d = 1 / ``row_scale``, the system
    ``solve_dirichlet`` solves; convergence keeps it within a small
    multiple of the outer tolerance.
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
    theta = 1.0
    halved = False
    increments: list[float] = []
    u_prev = r_prev = None

    for _ in range(MAX_OUTER):
        rhs = DiscreteField(grid, nonlinearity.eval(pts, u), "rhs")
        lin = solve_dirichlet(op, rhs, boundary).values
        new = (1.0 - theta) * u + theta * lin
        step = float(np.max(np.abs(new - u)))
        increments.append(step)
        if step <= config.tol:
            u = new
            break
        r = lin - u
        if len(increments) >= 2 and step < increments[-2]:
            dr = r - r_prev
            # not BLAS dot: its summation order follows the thread count
            dr_dr = float(np.sum(dr * dr))
            if dr_dr > 0.0:
                gamma = float(np.sum(dr * r)) / dr_dr
                new -= gamma * ((u - u_prev) + theta * dr)
        u_prev, r_prev, u = u, r, new
        if len(increments) >= 2 and step > increments[-2] and not halved:
            theta *= 0.5
            halved = True
        if _stopped_shrinking(increments):
            raise FixedPointError(
                f"updates stopped shrinking for 5 consecutive steps "
                f"(last {increments[-1]:.3e})")
    else:
        raise FixedPointError(
            f"no fixed point within {MAX_OUTER} outer iterations "
            f"(last update {increments[-1]:.3e})")

    d = 1.0 / op.row_scale
    b_vec = d * (nonlinearity.eval(pts, u) - op.boundary_matrix @ boundary.values)
    residual = float(np.max(np.abs(b_vec - op.equilibrated @ u)))
    return PicardResult(DiscreteField(grid, u, "solution"),
                        len(increments), tuple(increments), theta, residual)
