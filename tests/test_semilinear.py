"""Picard iteration tests.

The linear-in-u cases have an independent oracle: a direct sparse solve of
the absorbed system (L - eps) u = g checks the fixed point.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from regprobe import elliptic, semilinear
from regprobe.elliptic import assemble, solve_dirichlet
from regprobe.errors import FieldValidationError, FixedPointError, SolverError
from regprobe.fields import CoefficientField, Nonlinearity
from regprobe.grid import DiscreteField, DiskGrid
from regprobe.manufactured import get_problem
from regprobe.modulus import power, zero_modulus
from regprobe.semilinear import (
    PicardConfig,
    PicardResult,
    picard_solve,
)


def laplacian_field():
    return CoefficientField(
        a=lambda pts: np.tile(np.eye(2), (len(pts), 1, 1)),
        b=lambda pts: np.zeros((len(pts), 2)),
    )


def linear_reaction(eps, g_fn):
    return Nonlinearity(
        f=lambda pts, t: eps * np.asarray(t) * np.ones(len(pts)) + g_fn(pts),
        modulus=power(1.0),
    )


def absorbed_direct_solve(op, eps, g_vals, boundary_vals):
    # (L - eps) u = g - B g_boundary, every row divided by its row scale
    d = 1.0 / op.row_scale
    mat = op.equilibrated - eps * sp.diags(d, format="csr")
    b = d * (g_vals - op.boundary_matrix @ boundary_vals)
    return spla.spsolve(mat.tocsc(), b)


def test_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(tol=1e-12)
    with pytest.raises(ValueError):
        PicardConfig(tol=float("nan"))


def test_t_independent_matches_linear_solve():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    g = grid.boundary_from_function(lambda p: np.zeros(len(p)))
    nl = Nonlinearity(lambda pts, t: np.full(len(pts), -4.0), zero_modulus())
    result = picard_solve(op, nl, g)
    rhs = grid.field_from_function(lambda p: np.full(len(p), -4.0))
    direct = solve_dirichlet(op, rhs, g)
    assert isinstance(result, PicardResult)
    assert np.array_equal(result.u.values, direct.values)
    assert result.increments[-1] == 0.0
    assert result.residual_sup < 1e-9


def test_absorbed_linear_reaction_oracle():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    g_fn = lambda p: np.cos(2.0 * p[:, 0]) * p[:, 1]
    nl = linear_reaction(0.3, g_fn)
    boundary = grid.boundary_from_function(lambda p: p[:, 0] ** 2)
    result = picard_solve(op, nl, boundary, PicardConfig(tol=1e-10))
    direct = absorbed_direct_solve(op, 0.3, g_fn(grid.coords), boundary.values)
    assert np.max(np.abs(result.u.values - direct)) < 1e-8
    assert result.residual_sup < 1e-9
    assert result.damping_used == 1.0


def test_outer_step_cap_raises(monkeypatch):
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    nl = linear_reaction(0.3, lambda p: np.cos(2.0 * p[:, 0]) * p[:, 1])
    boundary = grid.boundary_from_function(lambda p: p[:, 0] ** 2)
    monkeypatch.setattr(semilinear, "MAX_OUTER", 3)
    with pytest.raises(FixedPointError,
                       match=r"no fixed point within 3 outer iterations"):
        picard_solve(op, nl, boundary, PicardConfig(tol=1e-10))


def test_picard_steps_share_one_factorization(count_factorizations):
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    nl = linear_reaction(0.3, lambda p: np.cos(2.0 * p[:, 0]) * p[:, 1])
    boundary = grid.boundary_from_function(lambda p: p[:, 0] ** 2)
    result = picard_solve(op, nl, boundary, PicardConfig(tol=1e-10))
    assert result.outer_iterations > 2
    assert len(count_factorizations) == 1


def test_oscillatory_reaction_rescued_by_damping():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    nl = linear_reaction(9.0, lambda p: np.full(len(p), 4.0))
    boundary = grid.boundary_from_function(lambda p: np.zeros(len(p)))
    result = picard_solve(op, nl, boundary, PicardConfig(tol=1e-9))
    assert result.damping_used == 0.5
    direct = absorbed_direct_solve(op, 9.0, np.full(grid.n_interior, 4.0),
                                   boundary.values)
    assert np.max(np.abs(result.u.values - direct)) < 1e-7
    d = result.increments
    assert any(d[i + 1] > d[i] for i in range(len(d) - 1))


def test_sublinear_nonlinearity_converges():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)

    def sqrt_dini(pts, t):
        tt = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
        return np.sqrt(np.minimum(np.abs(tt), 1.0))

    sqrt_part = Nonlinearity(sqrt_dini, power(0.5))
    nl = Nonlinearity(
        f=lambda pts, t: -4.0 + 0.5 * sqrt_part.eval(pts, t),
        modulus=sqrt_part.modulus,
    )
    boundary = grid.boundary_from_function(lambda p: np.zeros(len(p)))
    result = picard_solve(op, nl, boundary, PicardConfig(tol=1e-10))
    assert result.residual_sup < 1e-9
    assert result.increments[0] > result.increments[-1]
    f_now = nl.eval(grid.coords, result.u.values)
    check = (op.equilibrated @ result.u.values
             - (f_now - op.boundary_matrix @ boundary.values) / op.row_scale)
    assert np.max(np.abs(check)) < 1e-9


@pytest.mark.parametrize("cells", [32, 64])
def test_residual_sup_is_the_row_scaled_residual(cells):
    # drift_c1's drift and reaction on a grid of its own; the residual is
    # that of the system solve_dirichlet solves, formed again here
    problem = get_problem("drift_c1")
    grid = DiskGrid(1.0, 1.0 / cells)
    op = assemble(problem.field, grid)
    boundary = grid.boundary_from_function(problem.u)
    result = picard_solve(op, problem.nonlinearity, boundary)
    u = result.u.values
    f_now = problem.nonlinearity.eval(grid.coords, u)
    scaled = (1.0 / op.row_scale) * (f_now - op.boundary_matrix
                                     @ boundary.values)
    assert result.residual_sup == float(np.max(np.abs(
        scaled - op.equilibrated @ u)))
    assert 0.0 < result.residual_sup < 1e-9


def test_runaway_reaction_stalls():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    nl = linear_reaction(-8.0, lambda p: np.full(len(p), 1.0))
    boundary = grid.boundary_from_function(lambda p: np.zeros(len(p)))
    with pytest.raises(FixedPointError,
                       match=r"stopped shrinking for 5 consecutive steps"):
        picard_solve(op, nl, boundary, PicardConfig(tol=1e-9))


def plain_picard(op, nl, boundary, tol, max_outer=200):
    """Undamped Picard iteration u <- L^{-1} f(x, u) from u = 0, the
    reference the accelerated solver must agree with."""
    grid = op.grid
    u = np.zeros(grid.n_interior)
    for steps in range(1, max_outer + 1):
        rhs = DiscreteField(grid, nl.eval(grid.coords, u), "interior")
        new = solve_dirichlet(op, rhs, boundary).values
        step = float(np.max(np.abs(new - u)))
        u = new
        if step <= tol:
            return u, steps
    raise AssertionError(f"plain Picard missed {tol} in {max_outer} steps")


def test_secant_picard_outer_steps(count_factorizations):
    # The log-inverse reaction is not Lipschitz at u = 0, so plain Picard
    # contracts only about 0.45 a step: 21 steps to 1e-9 on this grid.
    problem = get_problem("nondini_c11")
    grid = DiskGrid(1.0, 1.0 / 64)
    op = assemble(problem.field, grid)
    boundary = grid.boundary_from_function(problem.u)
    result = picard_solve(op, problem.nonlinearity, boundary,
                          PicardConfig(tol=1e-9))
    assert result.outer_iterations <= 10
    assert result.residual_sup < 1e-9
    reference, plain_steps = plain_picard(op, problem.nonlinearity, boundary,
                                          1e-12)
    assert plain_steps > 21
    assert np.max(np.abs(result.u.values - reference)) < 1e-9
    assert len(count_factorizations) == 1


def picard_through_solve_dirichlet(op, nonlinearity, boundary, tol):
    """``picard_solve`` with each step a whole ``solve_dirichlet`` call, the
    loop that forms the Dirichlet data's part again every step: the oracle
    for the loop that forms it once."""
    grid = op.grid
    pts = grid.coords
    u = np.zeros(grid.n_interior)
    theta = 1.0
    halved = False
    increments = []
    u_prev = r_prev = None
    for _ in range(semilinear.MAX_OUTER):
        rhs = DiscreteField(grid, nonlinearity.eval(pts, u), "interior")
        lin = solve_dirichlet(op, rhs, boundary).values
        new = (1.0 - theta) * u + theta * lin
        step = float(np.max(np.abs(new - u)))
        increments.append(step)
        if step <= tol:
            u = new
            break
        r = lin - u
        if len(increments) >= 2 and step < increments[-2]:
            dr = r - r_prev
            dr_dr = float(np.sum(dr * dr))
            if dr_dr > 0.0:
                gamma = float(np.sum(dr * r)) / dr_dr
                new -= gamma * ((u - u_prev) + theta * dr)
        u_prev, r_prev, u = u, r, new
        if len(increments) >= 2 and step > increments[-2] and not halved:
            theta *= 0.5
            halved = True
    else:
        raise AssertionError("the oracle loop did not converge")
    d = 1.0 / op.row_scale
    b_vec = d * (nonlinearity.eval(pts, u) - op.boundary_matrix @ boundary.values)
    residual = float(np.max(np.abs(b_vec - op.equilibrated @ u)))
    return u, tuple(increments), theta, residual


def oscillating_case():
    grid = DiskGrid(1.0, 1.0 / 32)
    return (assemble(laplacian_field(), grid),
            linear_reaction(9.0, lambda p: np.full(len(p), 4.0)),
            grid.boundary_from_function(lambda p: np.zeros(len(p))))


def problem_case(name):
    problem = get_problem(name)
    grid = DiskGrid(1.0, 1.0 / 64)
    return (assemble(problem.field, grid), problem.nonlinearity,
            grid.boundary_from_function(problem.u))


@pytest.mark.parametrize("case", ["nondini_c11", "drift_c1", "oscillating"])
def test_picard_matches_a_loop_of_whole_dirichlet_solves(case):
    op, nl, boundary = (oscillating_case() if case == "oscillating"
                        else problem_case(case))
    result = picard_solve(op, nl, boundary, PicardConfig(tol=1e-9))
    u, increments, theta, residual = picard_through_solve_dirichlet(
        op, nl, boundary, 1e-9)
    assert np.array_equal(result.u.values, u)
    assert result.increments == increments
    assert result.damping_used == theta
    assert result.residual_sup == residual
    if case == "oscillating":
        assert theta == 0.5


def test_picard_rejects_a_non_finite_reaction_as_a_field_does():
    op, _, boundary = oscillating_case()
    nl = Nonlinearity(lambda pts, t: np.full(len(pts), np.nan), zero_modulus())
    with pytest.raises(FieldValidationError,
                       match="^interior field contains non-finite values$"):
        picard_solve(op, nl, boundary)


def test_picard_rejects_a_batch_of_boundary_data():
    # each step solves one problem, as solve_dirichlet with a 1-D rhs would
    op, nl, boundary = oscillating_case()
    batch = DiscreteField(op.grid, np.stack([boundary.values] * 2, axis=1),
                          "boundary")
    with pytest.raises(FieldValidationError,
                       match="^rhs and boundary hold different batches$"):
        picard_solve(op, nl, batch)


def test_picard_and_solve_dirichlet_fail_one_residual_check(monkeypatch):
    # the check lives in one place: a solve that returns NaN fails it with
    # the same residual and target from either caller
    op, nl, boundary = problem_case("drift_c1")
    monkeypatch.setattr(elliptic.LinearOperator, "solve",
                        lambda self, b: np.full_like(b, np.nan))
    u0 = np.zeros(op.grid.n_interior)      # the first step's iterate
    rhs = DiscreteField(op.grid, nl.eval(op.grid.coords, u0), "interior")
    with pytest.raises(SolverError) as direct:
        solve_dirichlet(op, rhs, boundary)
    with pytest.raises(SolverError) as picard:
        picard_solve(op, nl, boundary)
    assert str(picard.value) == str(direct.value)
    assert str(direct.value).startswith(
        "linear solve missed its residual check: residual nan above target ")
