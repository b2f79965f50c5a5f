"""Grid, assembly and Dirichlet solver tests.

Closed-form solutions drive most checks: quadratics are reproduced exactly
by the stencil (including the cut-arm corrections), harmonic functions
composed with an affine map give exact solutions for constant coefficient
matrices, and smooth manufactured problems pin the convergence order.
"""
from __future__ import annotations

import dataclasses
import functools
import platform
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from regprobe import campanato, elliptic, grid as grid_module, scenarios
from regprobe.cli import main
from regprobe.elliptic import (
    abp_check,
    assemble,
    convergence_order,
    solve_dirichlet,
    sup_errors,
)
from regprobe.errors import AnisotropyError, DomainError, FieldValidationError, SolverError
from regprobe.fields import CoefficientField, constant_field
from regprobe.grid import (CENTRE, DIRECTIONS, SLOTS, DiscreteField, DiskGrid,
                           bicubic_sampler)
from regprobe.manufactured import get_problem


def const_field(a11, a22, a12, b1=0.0, b2=0.0):
    a0 = np.array([[a11, a12], [a12, a22]])
    return CoefficientField(
        a=lambda pts: np.broadcast_to(a0, (len(pts), 2, 2)).copy(),
        b=lambda pts: np.tile([b1, b2], (len(pts), 1)),
    )


def laplacian_field():
    return const_field(1.0, 1.0, 0.0)


def random_smooth_field(seed):
    """Smooth rotating anisotropic coefficients with eigenvalue ratio < 5."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, 4)
    kappa = rng.uniform(1.5, 4.5)

    def a(pts):
        th = c[0] + c[1] * pts[:, 0] + 0.8 * c[2] * np.sin(2.0 * pts[:, 1])
        t = 0.5 * (1.0 + np.tanh(c[3] * (pts[:, 0] + pts[:, 1])))
        mu = 1.0 + (kappa - 1.0) * t
        co, si = np.cos(th), np.sin(th)
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = mu * co * co + si * si
        out[:, 1, 1] = mu * si * si + co * co
        out[:, 0, 1] = out[:, 1, 0] = (mu - 1.0) * co * si
        return out

    return CoefficientField(a=a, b=lambda pts: np.zeros((len(pts), 2)))


def trig_boundary(seed):
    rng = np.random.default_rng(1000 + seed)
    c = rng.uniform(-1.0, 1.0, 5)

    def g(pts):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return (c[0] + c[1] * np.cos(th) + c[2] * np.sin(th)
                + c[3] * np.cos(2 * th) + c[4] * np.sin(2 * th))

    return g


def test_grid_geometry():
    grid = DiskGrid(1.0, 1.0 / 32)
    n = grid.n_interior
    assert abs(n * grid.h ** 2 - np.pi) < 0.1
    r = np.hypot(grid.coords[:, 0], grid.coords[:, 1])
    assert np.all(r < 1.0)
    assert np.min(r) == 0.0
    assert np.all((grid.arm > 0.0) & (grid.arm <= 1.0))
    cut = grid.slots.columns[:, SLOTS] < 0
    assert np.all(grid.arm[~cut] == 1.0)
    assert grid.n_boundary == int(cut.sum())
    assert grid.boundary_points.shape == (grid.n_boundary, 2)
    br = np.hypot(grid.boundary_points[:, 0], grid.boundary_points[:, 1])
    assert np.max(np.abs(br - 1.0)) < 1e-9


@pytest.mark.parametrize("radius, h", [(1.0, 1.0 / 16), (0.75, 0.75 / 37),
                                       (2.5, 0.13), (0.3, 0.017)])
def test_grid_layout_of_arms_and_cut_points(radius, h):
    # 2.5 / 0.13 and 0.3 / 0.017 are not integers
    grid = DiskGrid(radius, h)
    at = {tuple(ij): i for i, ij in enumerate(grid.lattice.tolist())}
    want = [[at.get((i + di, j + dj), -1) for di, dj in DIRECTIONS.tolist()]
            for i, j in grid.lattice.tolist()]
    slots = grid.slots
    assert slots.columns.dtype == np.int32
    assert np.array_equal(slots.columns[:, SLOTS], want)
    assert np.array_equal(slots.columns[:, CENTRE], np.arange(grid.n_interior))

    # the cut arms are numbered direction by direction, then node by node;
    # the slot pattern lists them node by node, in direction order
    cols = np.full((grid.n_interior, 8), -1)
    count = 0
    for k in range(8):
        for i in range(grid.n_interior):
            if want[i][k] < 0:
                cols[i, k] = count
                count += 1
    assert count == grid.n_boundary
    node, k = np.nonzero(cols >= 0)
    assert np.array_equal(slots.cut, node * 9 + SLOTS[k])
    assert slots.cut_columns.dtype == np.int32
    assert np.array_equal(slots.cut_columns, cols[node, k])

    points = grid.coords[node] + grid.arm[node, k, None] * h * DIRECTIONS[k]
    assert (grid.boundary_points[slots.cut_columns].tobytes()
            == points.tobytes())
    rho = np.hypot(points[:, 0], points[:, 1])
    assert np.max(np.abs(rho - radius)) <= 1e-12 * radius


def test_grid_arrays_are_read_only():
    # every scenario and both solver_validation workers share one grid
    grid = DiskGrid(1.0, 1.0 / 16)
    arrays = [getattr(grid, name) for name in (
        "coords", "arm", "boundary_points", "lattice", "black_order",
        "dissection_order", "node_weights")]
    for pattern in (grid.slots, grid.red_black):
        arrays += vars(pattern).values()
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def grid_arrays(value):
    """Every array that ``value``, a grid or one of its patterns, holds."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for part in vars(value).values():
            yield from grid_arrays(part)


def test_a_128_cell_grid_holds_at_most_164_bytes_a_node():
    # GRID_CACHE_NODES is sized at this figure; with every computed
    # property filled the arrays take 163.3 B a node
    grid = DiskGrid(1.0, 1.0 / 128)
    computed = [name for name, attr in vars(DiskGrid).items()
                if isinstance(attr, functools.cached_property)]
    assert {"lattice", "black_order", "red_black"} <= set(computed)
    for name in computed:
        getattr(grid, name)
    held = sum(array.nbytes for array in grid_arrays(grid))
    assert held <= 164 * grid.n_interior


def test_disk_grid_keeps_the_cached_nodes_within_the_bound(
        count_grid_builds):
    cells = (32, 64, 128, 256)
    for n in cells:
        newest = grid_module.disk_grid(1.0, 1.0 / n)
        kept = list(grid_module._GRIDS.values())
        assert kept[-1] is newest
        assert (sum(g.n_interior for g in kept)
                <= grid_module.GRID_CACHE_NODES or kept == [newest])
    # the 256-cell grid alone exceeds the bound, so it is kept alone
    assert kept == [newest]
    assert grid_module.disk_grid(1.0, 1.0 / 256) is newest
    assert count_grid_builds == [(1.0, 1.0 / n) for n in cells]


def test_disk_grid_builds_each_grid_once_across_threads(count_grid_builds):
    keys = [(1.0, 1.0 / n) for n in (16, 20, 24)] + [(0.5, 0.5 / 16)]
    seen = {key: set() for key in keys}
    errors = []

    def worker():
        try:
            for _ in range(20):
                for key in keys:
                    seen[key].add(id(grid_module.disk_grid(*key)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(count_grid_builds) == sorted(keys)
    assert all(len(ids) == 1 for ids in seen.values())


def test_grid_rejects_coarse_spacing():
    with pytest.raises(DomainError):
        DiskGrid(1.0, 1.0 / 8)


def test_node_weights_cover_disk():
    got = []
    for h in (1.0 / 32, 1.0 / 64):
        grid = DiskGrid(1.0, h)
        total = float(np.sum(grid.node_weights))
        assert total < np.pi
        got.append(np.pi - total)
    assert got[0] < 4.0 * np.pi / 32
    assert got[1] < got[0]


def test_field_role_validation():
    grid = DiskGrid(1.0, 1.0 / 16)
    with pytest.raises(FieldValidationError):
        DiscreteField(grid, np.zeros(grid.n_interior), "velocity")
    with pytest.raises(FieldValidationError):
        DiscreteField(grid, np.zeros(3), "rhs")
    bad = np.zeros(grid.n_interior)
    bad[0] = np.nan
    with pytest.raises(FieldValidationError):
        DiscreteField(grid, bad, "solution")


def test_boundary_field_checks_its_length():
    # one value per boundary point, as an interior field has one per node
    grid = DiskGrid(1.0, 1.0 / 16)
    for fn in (lambda p: 1.0, lambda p: np.zeros(len(p) - 1)):
        with pytest.raises(FieldValidationError, match="boundary field has"):
            grid.boundary_from_function(fn)


def test_bicubic_sampler_reads_node_values_only():
    def cubic(p):
        return p[:, 0] ** 3 - 2.0 * p[:, 0] * p[:, 1] ** 2 + p[:, 1]

    grid = DiskGrid(0.5, 0.5 / 20)
    sample = bicubic_sampler(DiscreteField(grid, cubic(grid.coords), "solution"))
    pts = np.array([[0.0, 0.0], [0.11, 0.113], [-0.13, -0.13]])
    assert np.allclose(sample(pts), cubic(pts), rtol=0.0, atol=1e-13)


def unscaled(op):
    """The operator's interior matrix L = diag(row_scale) @ equilibrated."""
    return sp.diags(op.row_scale) @ op.equilibrated


def assert_monotone(op):
    """Every off-center stencil weight is nonnegative, up to rounding."""
    floor = -1e-12 * op.row_scale.max()
    off = unscaled(op).tocoo()
    assert np.all(off.data[off.row != off.col] >= floor)
    assert np.all(op.boundary_matrix.data >= floor)


def apply_to(op, grid, u_fn):
    u = u_fn(grid.coords)
    g = u_fn(grid.boundary_points)
    return (unscaled(op) @ np.asarray(u, float)
            + op.boundary_matrix @ np.asarray(g, float))


def test_assemble_laplacian_on_quadratic():
    grid = DiskGrid(1.0, 1.0 / 16)
    op = assemble(laplacian_field(), grid)
    got = apply_to(op, grid, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2)
    regular = np.all(grid.slots.columns >= 0, axis=1)
    assert np.max(np.abs(got[regular] - 4.0)) < 1e-12
    assert np.max(np.abs(got - 4.0)) < 1e-10
    assert_monotone(op)


def test_assemble_mixed_positive_cross():
    grid = DiskGrid(1.0, 1.0 / 16)
    field = const_field(2.0, 1.0, 0.8, b1=0.5, b2=-0.3)
    op = assemble(field, grid)

    def u(p):
        return p[:, 0] ** 2 + 3.0 * p[:, 0] * p[:, 1] - p[:, 1] ** 2 + 2.0 * p[:, 0]

    def exact(p):
        second = 2.0 * 2.0 + 2.0 * 0.8 * 3.0 + 1.0 * (-2.0)
        return second + 0.5 * (2.0 * p[:, 0] + 3.0 * p[:, 1] + 2.0) - 0.3 * (3.0 * p[:, 0] - 2.0 * p[:, 1])

    got = apply_to(op, grid, u)
    assert np.max(np.abs(got - exact(grid.coords))) < 1e-9
    assert_monotone(op)


def test_assemble_mixed_negative_cross():
    grid = DiskGrid(1.0, 1.0 / 16)
    field = const_field(2.0, 1.5, -0.9)
    op = assemble(field, grid)

    def u(p):
        return 0.5 * p[:, 0] ** 2 - 2.0 * p[:, 0] * p[:, 1] + p[:, 1] ** 2

    want = 2.0 * 1.0 + 2.0 * (-0.9) * (-2.0) + 1.5 * 2.0
    got = apply_to(op, grid, u)
    assert np.max(np.abs(got - want)) < 1e-9
    assert_monotone(op)


def cross_changing_sign():
    """a12 = x / 2 changes sign inside the disk, so each node picks its own
    diagonal; the drift varies too."""
    def a(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = 2.0 + 0.5 * y
        out[:, 1, 1] = 1.5 - 0.3 * x
        out[:, 0, 1] = out[:, 1, 0] = 0.5 * x
        return out

    return CoefficientField(
        a=a, b=lambda pts: np.stack([0.5 + pts[:, 1], -0.3 * pts[:, 0]], axis=1))


def test_assemble_cross_term_changing_sign():
    field = cross_changing_sign()

    def u(p):
        return p[:, 0] ** 2 + 3.0 * p[:, 0] * p[:, 1] - p[:, 1] ** 2 + 2.0 * p[:, 0]

    def exact(p):
        (a11, a12), (_, a22) = field.eval_a(p).transpose(1, 2, 0)
        b1, b2 = field.eval_b(p).T
        return (2.0 * a11 + 6.0 * a12 - 2.0 * a22
                + b1 * (2.0 * p[:, 0] + 3.0 * p[:, 1] + 2.0)
                + b2 * (3.0 * p[:, 0] - 2.0 * p[:, 1]))

    grid = DiskGrid(1.0, 1.0 / 16)
    cross = field.eval_a(grid.coords)[:, 0, 1]
    assert np.any(cross > 0.0) and np.any(cross < 0.0)
    op = assemble(field, grid)
    got = apply_to(op, grid, u)
    assert np.max(np.abs(got - exact(grid.coords))) < 1e-9
    assert_monotone(op)


def test_assemble_refuses_strong_anisotropy():
    grid = DiskGrid(1.0, 1.0 / 16)
    with pytest.raises(AnisotropyError) as err:
        assemble(const_field(5.5, 1.0, 0.0), grid)
    assert "5.5" in str(err.value)
    assemble(const_field(5.0, 1.0, 0.0), grid)


def test_assemble_rejects_asymmetric_matrix():
    grid = DiskGrid(1.0, 1.0 / 16)

    def a(pts):
        out = np.tile(np.eye(2), (len(pts), 1, 1))
        out[:, 0, 1] = 0.3
        return out

    field = CoefficientField(a=a, b=lambda p: np.zeros((len(p), 2)))
    with pytest.raises(FieldValidationError):
        assemble(field, grid)


def test_solve_laplace_linear_boundary():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    u = solve_dirichlet(op, grid.zeros(),
                        grid.boundary_from_function(lambda p: p[:, 0]))
    assert np.max(np.abs(u.values - grid.coords[:, 0])) < 1e-10


def test_solve_poisson_quadratic():
    grid = DiskGrid(1.0, 1.0 / 24)
    op = assemble(laplacian_field(), grid)
    rhs = grid.field_from_function(lambda p: np.full(len(p), -4.0))
    u = solve_dirichlet(op, rhs, grid.boundary_from_function(lambda p: np.zeros(len(p))))
    exact = 1.0 - grid.coords[:, 0] ** 2 - grid.coords[:, 1] ** 2
    assert np.max(np.abs(u.values - exact)) < 1e-10


def test_solve_half_radius_ball():
    grid = DiskGrid(0.5, 0.5 / 20)
    field = const_field(1.5, 1.0, 0.4)
    op = assemble(field, grid)
    rhs = grid.field_from_function(lambda p: np.full(len(p), 2.0 * 1.5 + 2.0))
    u = solve_dirichlet(op, rhs, grid.boundary_from_function(
        lambda p: p[:, 0] ** 2 + p[:, 1] ** 2))
    exact = grid.coords[:, 0] ** 2 + grid.coords[:, 1] ** 2
    assert np.max(np.abs(u.values - exact)) < 1e-10


def test_constant_coeff_rotated_oracle():
    angle = np.pi / 6.0
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    a0 = rot @ np.diag([2.0, 1.0]) @ rot.T
    evals, evecs = np.linalg.eigh(a0)
    tmap = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T

    def u_exact(pts):
        y = pts @ tmap.T
        return y[:, 0] ** 2 - y[:, 1] ** 2

    grid = DiskGrid(1.0, 1.0 / 32)
    u = solve_dirichlet(assemble(constant_field(a0), grid), grid.zeros(),
                        grid.boundary_from_function(u_exact))
    assert np.max(np.abs(u.values - u_exact(grid.coords))) < 1e-8


def test_constant_coeff_rejects_indefinite():
    grid = DiskGrid(1.0, 1.0 / 16)
    with pytest.raises(FieldValidationError):
        assemble(constant_field([[1.0, 2.0], [2.0, 1.0]]), grid)
    with pytest.raises(FieldValidationError):
        assemble(constant_field(np.eye(3)), grid)


def assert_same_operator(op, oracle):
    # bit for bit: the matrices' structure and entries, and the row scales
    for got, want in ((op.equilibrated, oracle.equilibrated),
                      (op.boundary_matrix, oracle.boundary_matrix)):
        for name in ("data", "indices", "indptr"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert op.row_scale.tobytes() == oracle.row_scale.tobytes()
    assert (op.order is None) == (oracle.order is None)


class _Captured(Exception):
    pass


def test_constant_fields_assemble_like_a_hand_built_oracle(monkeypatch):
    grid = DiskGrid(1.0, 1.0 / 16)
    # the bundled problems have a = I and the drift b = (b1, 0)
    for name, b1 in (("zero_case", 0.0), ("drift_c1", 1.0),
                     ("cubic_c11", 0.1), ("nondini_c11", 0.0)):
        assert_same_operator(assemble(get_problem(name).field, grid),
                             assemble(const_field(1.0, 1.0, 0.0, b1), grid))
    smooth = {name: field for name, field, _, _ in scenarios._SMOOTH_CASES}
    for name, oracle in (("drift_exponential", const_field(1.0, 1.0, 0.0, 1.0)),
                         ("mixed_derivative", const_field(1.0, 1.0, 0.2))):
        assert_same_operator(assemble(smooth[name], grid),
                             assemble(oracle, grid))

    # the solver suite's frozen quadratic: its error study is that field's
    seen = []

    def capture(field, u_exact, rhs_fn, grids):
        if u_exact is not scenarios._exact_quadratic:
            return [1.0] * len(grids)
        seen.append(field)
        raise _Captured

    monkeypatch.setattr(scenarios, "convergence_order", lambda *args: 2.0)
    monkeypatch.setattr(scenarios, "sup_errors", capture)
    with pytest.raises(_Captured):
        scenarios.run_scenario(scenarios.load_scenario("solver_validation"),
                               "unused")
    assert_same_operator(assemble(seen[0], grid),
                         assemble(const_field(1.2, 0.9, 0.3), grid))


def test_solver_error_carries_history(monkeypatch):
    monkeypatch.setattr(elliptic, "SOLVER_RTOL", 1e-18)
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    rhs = grid.field_from_function(lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1])
    g = grid.boundary_from_function(trig_boundary(0))
    with pytest.raises(SolverError, match="missed its residual check: "
                       r"residual \S+ above target \S+"):
        solve_dirichlet(op, rhs, g)


def test_solver_deterministic():
    vals = []
    for _ in range(2):
        grid = DiskGrid(1.0, 1.0 / 32)
        op = assemble(random_smooth_field(7), grid)
        u = solve_dirichlet(op, grid.zeros(),
                            grid.boundary_from_function(trig_boundary(7)))
        vals.append(u.values.copy())
    assert np.array_equal(vals[0], vals[1])


def disk_grids(hs):
    return [DiskGrid(1.0, h) for h in hs]


def test_convergence_order_variable_coefficients():
    def a(pts):
        out = np.tile(np.eye(2), (len(pts), 1, 1))
        out[:, 0, 0] = 1.0 + 0.25 * pts[:, 0] ** 2
        return out

    field = CoefficientField(
        a=a,
        b=lambda pts: np.stack([pts[:, 1] / 5.0, -pts[:, 0] / 5.0], axis=1),
    )

    def u_exact(p):
        return np.exp(p[:, 0]) * np.cos(p[:, 1])

    def rhs(p):
        a11 = 1.0 + 0.25 * p[:, 0] ** 2
        val = np.exp(p[:, 0]) * np.cos(p[:, 1])
        d1 = val
        d2 = -np.exp(p[:, 0]) * np.sin(p[:, 1])
        return (a11 - 1.0) * val + p[:, 1] / 5.0 * d1 - p[:, 0] / 5.0 * d2

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a non-monotone error sequence warns
        hs = [1 / 16, 1 / 32, 1 / 64]
        order = convergence_order(
            hs, sup_errors(field, u_exact, rhs, disk_grids(hs)))
    assert 1.8 <= order <= 2.2


def test_convergence_order_is_the_fitted_slope():
    hs = [1 / 16, 1 / 32, 1 / 64]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert convergence_order(hs, [3.0 * h ** 2 for h in hs]) == \
            pytest.approx(2.0, abs=1e-12)
    with pytest.warns(RuntimeWarning, match="not monotone"):
        convergence_order(hs, [1e-3, 2e-3, 1e-4])


def test_maximum_principle_random_operators():
    for seed in range(5):
        grid = DiskGrid(1.0, 1.0 / 32)
        op = assemble(random_smooth_field(seed), grid)
        assert_monotone(op)
        g = grid.boundary_from_function(trig_boundary(seed))
        u = solve_dirichlet(op, grid.zeros(), g)
        assert float(np.max(u.values)) <= float(np.max(g.values)) + 1e-10
        assert float(np.min(u.values)) >= float(np.min(g.values)) - 1e-10


def test_abp_poisson_example():
    grid = DiskGrid(1.0, 1.0 / 64)
    op = assemble(laplacian_field(), grid)
    rhs = grid.field_from_function(lambda p: np.full(len(p), -4.0))
    g = grid.boundary_from_function(lambda p: np.zeros(len(p)))
    u = solve_dirichlet(op, rhs, g)
    implied_C, passed = abp_check(u, rhs, g)
    assert abs(u.values.max() - 1.0) < 1e-9
    want = 1.0 / (4.0 * np.sqrt(np.pi))
    assert abs(implied_C - want) < 5e-3
    assert passed


def test_abp_zero_forcing():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(laplacian_field(), grid)
    g = grid.boundary_from_function(trig_boundary(2))
    u = solve_dirichlet(op, grid.zeros(), g)
    implied_C, passed = abp_check(u, grid.zeros(), g)
    assert implied_C == 0.0
    assert passed


def second_difference_sup(grid, values, min_dist):
    neighbor = grid.slots.columns[:, SLOTS]
    idx_e, idx_w = neighbor[:, 0], neighbor[:, 1]
    idx_n, idx_s = neighbor[:, 2], neighbor[:, 3]
    idx_ne, idx_sw = neighbor[:, 4], neighbor[:, 5]
    regular = np.all(neighbor >= 0, axis=1)
    d = grid.coords
    deep = regular & (np.hypot(d[:, 0], d[:, 1]) <= grid.radius - min_dist)
    h2 = grid.h ** 2
    d11 = (values[idx_e[deep]] - 2 * values[deep] + values[idx_w[deep]]) / h2
    d22 = (values[idx_n[deep]] - 2 * values[deep] + values[idx_s[deep]]) / h2
    diag = (values[idx_ne[deep]] - 2 * values[deep] + values[idx_sw[deep]]) / (2 * h2)
    d12 = diag - 0.5 * (d11 + d22)
    return float(np.max(np.abs(d11) + np.abs(d22) + np.abs(d12)))


def test_harmonic_second_difference_decay():
    rng = np.random.default_rng(3)
    coef = rng.uniform(-1.0, 1.0, (12, 2))

    def rough(pts):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros(len(pts))
        for k in range(1, 13):
            out += coef[k - 1, 0] * np.cos(k * th) + coef[k - 1, 1] * np.sin(k * th)
        return out

    grid = DiskGrid(1.0, 1.0 / 64)
    op = assemble(laplacian_field(), grid)
    g = grid.boundary_from_function(rough)
    u = solve_dirichlet(op, grid.zeros(), g)
    sup = u.sup_norm()
    sups = [second_difference_sup(grid, u.values, d) for d in (0.1, 0.2, 0.3)]
    assert sups[0] >= sups[1] >= sups[2]
    for s, delta in zip(sups, (0.1, 0.2, 0.3)):
        assert s * delta ** 2 / sup < 16.0


def test_residual_of_solution_small():
    grid = DiskGrid(1.0, 1.0 / 32)
    op = assemble(random_smooth_field(11), grid)
    rhs = grid.field_from_function(lambda p: np.cos(2.0 * p[:, 0]) * p[:, 1])
    g = grid.boundary_from_function(trig_boundary(11))
    u = solve_dirichlet(op, rhs, g)
    scaled = ((rhs.values - op.boundary_matrix @ g.values) / op.row_scale
              - op.equilibrated @ u.values)
    assert float(np.max(np.abs(scaled))) < 1e-9


def test_factor_pins_mmap_threshold(monkeypatch):
    if platform.libc_ver()[0] == "glibc":
        assert elliptic._MALLOPT is not None
    # a12 = 0 is the 5-point branch, which factors the red-black reduced
    # system; a12 != 0 the 7-point one, which factors the whole matrix
    for a12 in (0.0, 0.3):
        calls = []
        monkeypatch.setattr(elliptic, "_MALLOPT",
                            lambda *args: calls.append(args))
        a0 = np.array([[1.0, a12], [a12, 1.0]])
        op = assemble(constant_field(a0), DiskGrid(1.0, 1.0 / 16))
        assert (op.order is None) == (a12 == 0.0)
        op.factor
        assert calls == [(-3, 4 << 20)]


def test_solver_validation_trims_the_heap_once(tmp_path, monkeypatch):
    if platform.libc_ver()[0] == "glibc":
        assert elliptic._MALLOC_TRIM is not None
    # the worker threads' malloc arenas keep what SuperLU freed; one trim
    # after the randomized operators hands it back before the next pass
    calls = []
    monkeypatch.setattr(elliptic, "_MALLOC_TRIM",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(scenarios, "_OPERATORS", 2)
    monkeypatch.setattr(scenarios, "_RESOLUTIONS", (1 / 32, 1 / 48, 1 / 64))
    assert main(["run", "solver_validation", "--out", str(tmp_path)]) == 0
    assert calls == [(0,)]


def test_two_threads_factor_two_operators_at_once(monkeypatch):
    # functools.cached_property on Python 3.11 holds one lock for every
    # instance while it computes, which would let solver_validation's
    # worker threads factor only one operator at a time
    entered, released, done = (threading.Event() for _ in range(3))
    splu = elliptic.spla.splu

    def first_call_waits(matrix, **kwargs):
        if not entered.is_set():
            entered.set()
            released.wait(10)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(elliptic.spla, "splu", first_call_waits)
    grid = DiskGrid(1.0, 1.0 / 16)
    ops = [assemble(constant_field([[1.0, a12], [a12, 1.0]]), grid)
           for a12 in (0.2, 0.3)]
    waiting = threading.Thread(target=lambda: ops[0].factor)
    waiting.start()
    assert entered.wait(10)
    other = threading.Thread(target=lambda: (ops[1].factor, done.set()))
    other.start()
    try:
        assert done.wait(10)
    finally:
        released.set()
        waiting.join()
        other.join()
    for op in ops:
        assert op.factor is op.factor


def test_dissection_order_is_a_permutation_fixed_by_the_geometry():
    for radius, h in ((1.0, 1.0 / 32), (0.5, 0.5 / 21)):
        grid = DiskGrid(radius, h)
        order = grid.dissection_order
        assert np.array_equal(np.sort(order), np.arange(grid.n_interior))
        assert not order.flags.writeable
        assert grid.dissection_order is order
        assert np.array_equal(DiskGrid(radius, h).dissection_order, order)
        black = grid.black_order
        odd = np.flatnonzero(grid.lattice.sum(axis=1) % 2)
        assert np.array_equal(np.sort(black), odd)
        assert not black.flags.writeable
        assert grid.black_order is black
        assert np.array_equal(DiskGrid(radius, h).black_order, black)


def test_diagonal_stencil_factors_in_dissection_order(count_factorizations):
    grid = DiskGrid(1.0, 1.0 / 64)
    field, boundary_fn, forcing_fn = scenarios._random_operator(
        np.random.default_rng(0))
    op = assemble(field, grid)
    assert op.order is grid.dissection_order
    rhs = grid.field_from_function(forcing_fn)
    g = grid.boundary_from_function(boundary_fn)
    u = solve_dirichlet(op, rhs, g)
    (matrix, kwargs), = count_factorizations
    assert kwargs["permc_spec"] == "NATURAL"
    p = grid.dissection_order
    assert (matrix != op.equilibrated[p][:, p]).nnz == 0
    # minimum degree fills 867,534 entries on this 7-point stencil, nested
    # dissection 807,458 (scipy 1.17)
    mmd = elliptic.spla.splu(op.equilibrated.tocsc(),
                             permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})
    assert op.factor.L.nnz + op.factor.U.nnz < mmd.L.nnz + mmd.U.nnz
    d = 1.0 / op.row_scale
    ref = mmd.solve(d * (rhs.values - op.boundary_matrix @ g.values))
    assert np.max(np.abs(u.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_five_point_stencil_factors_in_black_lattice_order(
        count_factorizations):
    grid = DiskGrid(1.0, 1.0 / 128)
    op = assemble(get_problem("nondini_c11").field, grid)
    assert op.order is None
    op.factor
    (matrix, kwargs), = count_factorizations
    assert kwargs == {"permc_spec": "NATURAL",
                      "options": {"SymmetricMode": True}}
    # the black nodes, reordered, and nothing else
    black = grid.black_order
    assert np.array_equal(np.sort(black),
                          np.flatnonzero(grid.lattice.sum(axis=1) % 2))
    assert op.red_black[1] is black
    # the factored matrix is S = A_BB - A_BR diag(1/d) A_RB in that order
    a = op.equilibrated
    red = np.flatnonzero(grid.lattice.sum(axis=1) % 2 == 0)
    schur = (a[black][:, black] - a[black][:, red]
             @ (sp.diags(1.0 / a.diagonal()[red]) @ a[red][:, black])).tocsc()
    assert (matrix != schur).nnz == 0
    # minimum degree fills 2,303,392 entries on S, this order 1,916,342
    # (scipy 1.17)
    mmd = elliptic.spla.splu(schur, permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})
    assert op.factor.L.nnz + op.factor.U.nnz < mmd.L.nnz + mmd.U.nnz


def scipy_built(field, grid):
    """The operator's arrays built by sparse-matrix conversions and
    products alone, to check ``assemble``'s direct writes against: the
    weight table through COO to CSR, ``sp.diags(1 / scale) @ matrix``, the
    red-black blocks by fancy indexing, S = A_BB - A_BR diag(1/d) A_RB and
    ``equilibrated[p][:, p]``.  Returns the boundary matrix, the row
    scale, the equilibrated matrix (CSC), the red-black split (None with
    diagonal arms) and the matrix factored."""
    pts = grid.coords
    n = grid.n_interior
    amat = field.eval_a(pts)
    bvec = field.eval_b(pts)
    a12 = 0.5 * (amat[:, 0, 1] + amat[:, 1, 0])
    off = np.abs(a12)
    h = grid.h
    pos = a12 >= 0.0
    specs = (((0, 1), amat[:, 0, 0] - off, bvec[:, 0], h * h, h),
             ((2, 3), amat[:, 1, 1] - off, bvec[:, 1], h * h, h),
             ((4, 5), np.where(pos, 2.0 * off, 0.0), None, 2.0 * h * h, None),
             ((6, 7), np.where(pos, 0.0, 2.0 * off), None, 2.0 * h * h, None))
    weights = np.empty((n, 8))
    diag = np.zeros(n)
    for (kp, km), factor, drift, step2, step in specs:
        tp, tm = grid.arm[:, kp], grid.arm[:, km]
        wp, wm, wc = elliptic._pair_weights(tp, tm, factor, step2)
        if drift is not None:
            dp, dm, dc = elliptic._drift_weights(tp, tm, drift, step)
            wp, wm, wc = wp + dp, wm + dm, wc + dc
        diag += wc
        weights[:, kp], weights[:, km] = wp, wm

    # each arm's neighbour, and each cut arm's boundary column, by node and
    # direction
    neighbor = grid.slots.columns[:, SLOTS].ravel()
    boundary_col = np.full((n, 9), -1)
    boundary_col.ravel()[grid.slots.cut] = grid.slots.cut_columns
    boundary_col = boundary_col[:, SLOTS].ravel()
    w = weights.ravel()
    keep = w != 0.0
    inner = np.flatnonzero(keep & (neighbor >= 0))
    cut = np.flatnonzero(keep & (boundary_col >= 0))
    idx = np.arange(n)
    matrix = sp.coo_matrix(
        (np.concatenate([w[inner], diag]),
         (np.concatenate([inner // 8, idx]),
          np.concatenate([neighbor[inner], idx]))),
        shape=(n, n)).tocsr()
    bmat = sp.coo_matrix((w[cut], (cut // 8, boundary_col[cut])),
                         shape=(n, grid.n_boundary)).tocsr()
    scale = np.maximum(abs(matrix).max(axis=1).toarray().ravel(),
                       abs(bmat).max(axis=1).toarray().ravel())
    scale[scale == 0.0] = 1.0
    a = (sp.diags(1.0 / scale) @ matrix).tocsc()
    if np.any(off):
        p = grid.dissection_order
        return bmat, scale, a, None, a[p][:, p]
    red = np.flatnonzero(grid.lattice.sum(axis=1) % 2 == 0)
    black = grid.black_order
    d = a.diagonal()[red]
    a_br = a[black][:, red].tocsr()
    c_rb = (sp.diags(1.0 / d) @ a[red][:, black]).tocsr()
    schur = (a[black][:, black] - a_br @ c_rb).tocsc()
    return bmat, scale, a, (red, black, d, a_br, c_rb), schur


def assert_same_bits(got, want):
    # sparse matrices compare in canonical form
    if sp.issparse(want):
        assert got.format == want.format and got.shape == want.shape
        got, want = got.copy(), want.copy()
        got.sort_indices()
        want.sort_indices()
        got, want = (got.data, got.indices, got.indptr), (want.data,
                                                          want.indices,
                                                          want.indptr)
    else:
        got, want = [got], [want]
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


ORACLE_FIELDS = {
    "identity_with_drift": lambda: const_field(1.0, 1.0, 0.0, 0.7, -0.4),
    "variable_diagonal": lambda: {
        name: field for name, field, _, _ in scenarios._SMOOTH_CASES
    }["variable_diagonal"],
    "positive_cross": lambda: const_field(2.0, 1.0, 0.8, 0.5, -0.3),
    "negative_cross": lambda: const_field(2.0, 1.5, -0.9),
    "cross_changing_sign": cross_changing_sign,
}


def assert_assembled_like_scipy(field, grid, factored):
    op = assemble(field, grid)
    bmat, scale, a, split, schur = scipy_built(field, grid)
    assert_same_bits(op.boundary_matrix, bmat)
    assert_same_bits(op.row_scale, scale)
    assert_same_bits(op.equilibrated, a.tocsr())
    # the residual check's product sums each row in column order either way
    x = np.random.default_rng(grid.n_interior).standard_normal(grid.n_interior)
    assert_same_bits(op.equilibrated @ x, a @ x)
    assert (op.red_black is None) == (split is None)
    if split is not None:
        red, black, d, a_br, c_rb = op.red_black
        assert_same_bits(red, split[0])
        assert black is split[1]
        assert_same_bits(d, split[2])
        # a solve sums each row of the blocks in their stored order, so
        # they match unsorted too
        for got, want in ((a_br, split[3]), (c_rb, split[4])):
            for name in ("data", "indices", "indptr"):
                assert_same_bits(getattr(got, name), getattr(want, name))
    op.factor
    (matrix_factored, _), = factored
    assert_same_bits(matrix_factored, schur)
    return op


@pytest.mark.parametrize("cells", [32, 64])
@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_assembly_is_bit_equal_to_the_scipy_construction(count_factorizations,
                                                         name, cells):
    assert_assembled_like_scipy(ORACLE_FIELDS[name](),
                                DiskGrid(1.0, 1.0 / cells),
                                count_factorizations)


def test_assembly_drops_the_weights_that_cancel(count_factorizations):
    # with b1 = -2/h the east weight 1/h^2 + b1/(2h) is exactly 0 wherever
    # the east and west arms are whole, and no 5-point weight is kept there
    h = 1.0 / 32
    grid = DiskGrid(1.0, h)
    whole = (grid.arm[:, 0] == 1.0) & (grid.arm[:, 1] == 1.0)
    assert np.count_nonzero(whole) == 3081
    op = assert_assembled_like_scipy(const_field(1.0, 1.0, 0.0, -2.0 / h),
                                     grid, count_factorizations)
    # those rows keep the centre and three arms, in either matrix
    kept = (np.diff(op.equilibrated.indptr)
            + np.diff(op.boundary_matrix.indptr))
    assert np.all(kept[whole] == 4)


def test_grids_share_their_index_patterns():
    grid = grid_module.disk_grid(1.0, 1.0 / 24)
    first = assemble(const_field(1.0, 1.0, 0.0, 0.0), grid)
    patterns = (grid.slots, grid.red_black)
    for pattern in patterns:
        for name, value in vars(pattern).items():
            assert not value.flags.writeable, name
    # a second operator reads the arrays the first one had computed
    second = assemble(const_field(1.0, 1.0, 0.0, 0.5), grid)
    assert grid.slots is patterns[0] and grid.red_black is patterns[1]
    for op in (first, second):
        assert op.red_black[0] is grid.red_black.red
        assert op.red_black[1] is grid.black_order

    # two threads assembling on one new grid may both compute its
    # red-black patterns (its slots come with the grid); one is kept, and
    # the operators are equal
    fresh = DiskGrid(1.0, 1.0 / 24)
    field = const_field(1.0, 1.0, 0.0, 0.5)
    built = [None, None]
    barrier = threading.Barrier(2)

    def build(i):
        barrier.wait(10)
        built[i] = assemble(field, fresh)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    for got, want in zip(built[0].red_black[2:], built[1].red_black[2:]):
        assert_same_bits(got, want)
    for op in built:
        assert_same_bits(op.equilibrated, second.equilibrated)
        assert_same_bits(op.boundary_matrix, second.boundary_matrix)


def black_count(grid):
    return int(np.count_nonzero(grid.lattice.sum(axis=1) % 2))


@pytest.mark.parametrize("cells", [32, 128])
@pytest.mark.parametrize("name", ["zero_case", "drift_c1", "nondini_c11"])
def test_red_black_solve_matches_the_full_factor(count_factorizations,
                                                 name, cells):
    grid = DiskGrid(1.0, 1.0 / cells)
    op = assemble(get_problem(name).field, grid)
    assert op.order is None
    b = np.random.default_rng(cells).standard_normal(grid.n_interior)
    x = op.solve(b)
    (matrix, _), = count_factorizations
    assert matrix.shape == (black_count(grid), black_count(grid))
    full = elliptic.spla.splu(op.equilibrated.tocsc(),
                              permc_spec="MMD_AT_PLUS_A")
    ref = full.solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("cells", [32, 128])
@pytest.mark.parametrize("name", ["zero_case", "drift_c1", "nondini_c11"])
def test_reduced_system_is_a_nine_point_stencil_on_the_black_lattice(
        name, cells):
    grid = DiskGrid(1.0, 1.0 / cells)
    op = assemble(get_problem(name).field, grid)
    _, black, _, a_br, c_rb = op.red_black
    schur = (op.equilibrated[black][:, black] - a_br @ c_rb).tocoo()
    assert np.any(schur.row != schur.col)
    # every entry joins black nodes at most one step apart in each rotated
    # coordinate, so one line of that lattice separates S
    i, j = grid.lattice[black].T
    uv = np.column_stack([(i + j - 1) // 2, (i - j - 1) // 2])
    assert np.abs(uv[schur.row] - uv[schur.col]).max() == 1
    # in the grid's own lattice they sit up to two steps apart on an axis
    ij = grid.lattice[black]
    assert np.abs(ij[schur.row] - ij[schur.col]).max() == 2


def test_every_bundled_five_point_operator_has_a_diagonal_red_block(
        tmp_path, monkeypatch):
    solved = {}
    solve = elliptic.LinearOperator.solve

    def recording_solve(op, b):
        solved[id(op)] = op
        return solve(op, b)

    monkeypatch.setattr(elliptic.LinearOperator, "solve", recording_solve)
    campanato._frozen_comparison.cache_clear()
    assert main(["run", *scenarios.bundled_names(), "--out", str(tmp_path)]) == 0
    five_point = [op for op in solved.values() if op.order is None]
    assert five_point
    for op in five_point:
        red = op.grid.lattice.sum(axis=1) % 2 == 0
        block = op.equilibrated[red][:, red]
        assert (block - sp.diags(block.diagonal())).count_nonzero() == 0
