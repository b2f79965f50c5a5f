"""Oracle checks for the exactly solvable probe problems.

Every closed form is validated against something it was not built from:
fine central differences for the PDE identities, adaptive quadrature for
the radial fixed-point profile, and the discrete solver for an end-to-end
cross check.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import CubicSpline
from scipy.special import iv

from regprobe.campanato import c1_probe
from regprobe.elliptic import assemble, solve_dirichlet
from regprobe.errors import RegistryError
from regprobe.grid import DiskGrid, disk_grid
from regprobe.manufactured import (
    _DRIFT_TERMS,
    _NONDINI_LOG_FLOOR,
    _bessel_i_half,
    _drift_series_coeffs,
    _drift_series_table,
    _drift_u,
    _g_nondini,
    _inv_log_inv,
    _nondini_profile,
    _series_counts,
    get_problem,
)


def fd_operator_residual(problem, pts, h=1e-4):
    """Sup of |a:D^2 u + b.Du - f(x, u)| by central differences at pts."""
    pts = np.asarray(pts, dtype=float)
    a = problem.field.eval_a(pts)
    b = problem.field.eval_b(pts)

    u = problem.u
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    u0 = u(pts)
    d11 = (u(pts + e1) - 2.0 * u0 + u(pts - e1)) / h**2
    d22 = (u(pts + e2) - 2.0 * u0 + u(pts - e2)) / h**2
    d12 = (u(pts + e1 + e2) - u(pts + e1 - e2)
           - u(pts - e1 + e2) + u(pts - e1 - e2)) / (4.0 * h**2)
    d1 = (u(pts + e1) - u(pts - e1)) / (2.0 * h)
    d2 = (u(pts + e2) - u(pts - e2)) / (2.0 * h)
    lhs = (a[:, 0, 0] * d11 + a[:, 1, 1] * d22 + 2.0 * a[:, 0, 1] * d12
           + b[:, 0] * d1 + b[:, 1] * d2)
    rhs = problem.nonlinearity.eval(pts, u0)
    return float(np.max(np.abs(lhs - rhs)))


def interior_samples(seed, count=20, radius=0.6):
    rng = np.random.default_rng(seed)
    rad = radius * np.sqrt(rng.random(count))
    ang = 2.0 * np.pi * rng.random(count)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def _potential_residual(problem, h):
    """Sup of |a_ij(0) D^h_ij v - f(x, 0)| over stencil centers in B_{1/2}."""
    a0 = problem.field.eval_a(np.zeros((1, 2)))[0]
    centers = interior_samples(7, count=200, radius=0.5)

    def v(shift):
        return problem.potential.v(centers + shift)

    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    v0 = v(np.zeros(2))
    d11 = (v(e1) - 2.0 * v0 + v(-e1)) / h**2
    d22 = (v(e2) - 2.0 * v0 + v(-e2)) / h**2
    d12 = (v(e1 + e2) - v(e1 - e2) - v(-e1 + e2) + v(-e1 - e2)) / (4.0 * h**2)
    lhs = a0[0, 0] * d11 + a0[1, 1] * d22 + 2.0 * a0[0, 1] * d12
    return float(np.max(np.abs(lhs - problem.nonlinearity.eval(centers, 0.0))))


def _modulus_violation(nl):
    """Largest |f(x,t2) - f(x,t1)| - omega(|t2 - t1|) over random triples.

    x lies in the unit disk and t in [-2, 2]; beyond the modulus domain,
    subadditive chaining extends omega.
    """
    pts = interior_samples(5, count=4000, radius=1.0)
    rng = np.random.default_rng(6)
    t1 = rng.uniform(-2.0, 2.0, len(pts))
    t2 = rng.uniform(-2.0, 2.0, len(pts))
    bound = np.array([nl.modulus.extended(d) for d in np.abs(t2 - t1)])
    return float(np.max(np.abs(nl.eval(pts, t2) - nl.eval(pts, t1)) - bound))


def test_registry_lists_and_rejects():
    for name in ("cubic_c11", "drift_c1", "nondini_c11", "zero_case"):
        get_problem(name)
    with pytest.raises(RegistryError):
        get_problem("no_such_problem")


def test_zero_case_is_the_plain_paraboloid():
    p = get_problem("zero_case")
    pts = interior_samples(3)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert np.max(np.abs(p.u(pts) - r2)) == 0.0
    assert np.max(np.abs(p.potential.v(pts) - r2)) == 0.0
    assert fd_operator_residual(p, pts) < 1e-6


@pytest.mark.parametrize("name", ["drift_c1", "cubic_c11", "nondini_c11"])
def test_operator_identity_by_central_differences(name):
    p = get_problem(name)
    assert fd_operator_residual(p, interior_samples(11)) < 3e-4


def test_drift_boundary_trace_is_one():
    p = get_problem("drift_c1")
    th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    circ = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.max(np.abs(p.u(circ) - 1.0)) < 1e-12


def test_drift_values_at_origin_match_bessel_identities():
    p = get_problem("drift_c1")
    c0 = iv(2, 0.5) / iv(0, 0.5)
    c1 = (iv(1, 0.5) + iv(3, 0.5)) / iv(1, 0.5)
    assert p.u(np.zeros((1, 2)))[0] == pytest.approx(c0, abs=1e-12)
    h = 1e-5
    gx = (p.u(np.array([[h, 0.0]]))[0] - p.u(np.array([[-h, 0.0]]))[0]) / (2.0 * h)
    gy = (p.u(np.array([[0.0, h]]))[0] - p.u(np.array([[0.0, -h]]))[0]) / (2.0 * h)
    assert gx == pytest.approx(c1 / 4.0 - c0 / 2.0, abs=1e-8)
    assert gy == pytest.approx(0.0, abs=1e-10)


def test_bessel_series_is_within_an_ulp():
    for m in range(36):
        exact = sum(Fraction(1, 4 ** (2 * k + m) * math.factorial(k)
                             * math.factorial(k + m)) for k in range(40))
        ulp = math.ulp(float(exact))
        assert abs(Fraction(_bessel_i_half(m)) - exact) <= Fraction(ulp)


def bessel_drift_u(pts):
    """The drift solution summed term by term with scipy's I_m."""
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    c = _drift_series_coeffs()
    m = np.arange(len(c))
    psi = np.sum(c * iv(m, r[:, None] / 2.0) * np.cos(m * th[:, None]), axis=1)
    return 2.0 * pts[:, 1] ** 2 + np.exp(-pts[:, 0] / 2.0) * psi


def test_drift_horner_series_matches_bessel_oracle():
    ax = np.linspace(-1.0, 1.0, 41)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    lattice = lattice[np.hypot(lattice[:, 0], lattice[:, 1]) <= 1.0]
    th = np.linspace(0.0, 2.0 * np.pi, 97)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    # the small lattices keep the fewest orders and powers
    for pts in (lattice, np.zeros((1, 2)), ring, 1.5 * ring, 3.0 * ring,
                np.concatenate([lattice, 1.5 * ring]), 1e-3 * lattice,
                1e-8 * lattice):
        exact = bessel_drift_u(pts)
        assert np.max(np.abs(_drift_u(pts) - exact) / np.abs(exact)) < 1e-13


def all_orders_drift_u(pts):
    """``_drift_u``'s Horner sum over all _DRIFT_TERMS orders of w."""
    w = (pts[:, 0] + 1j * pts[:, 1]) / 4.0
    y = w.real ** 2 + w.imag ** 2
    _, powers = _series_counts(float(y.max()))
    table = _drift_series_table()[:, :powers]
    radial = np.repeat(table[:, -1:], len(y), axis=1)
    for k in range(powers - 2, -1, -1):
        radial *= y
        radial += table[:, k:k + 1]
    psi = radial[-1].astype(complex)
    for m in range(_DRIFT_TERMS - 2, -1, -1):
        psi *= w
        psi += radial[m]
    return 2.0 * pts[:, 1] ** 2 + np.exp(-pts[:, 0] / 2.0) * psi.real


def test_drift_order_cut_equals_the_full_sum_on_every_ladder_batch():
    problem = get_problem("drift_c1")
    batches = []

    def logged_u(pts):
        batches.append(np.array(pts, dtype=float))
        return problem.u(pts)

    c1_probe(dataclasses.replace(problem, u=logged_u), 20)
    # the Dirichlet data of a numeric run
    batches.append(disk_grid(1.0, 1.0 / 128.0).boundary_points)
    y_max = [float(np.max(np.sum((pts / 4.0) ** 2, axis=1))) for pts in batches]
    for pts in batches:
        assert np.array_equal(_drift_u(pts), all_orders_drift_u(pts))
    counts = [_series_counts(y)[0] for y in sorted(y_max, reverse=True)]
    assert counts == sorted(counts, reverse=True)
    assert len(batches) > 20
    # the unit ball keeps 17 orders and 8 powers
    assert _series_counts(max(y_max)) == (17, 8)


@pytest.mark.parametrize("name", ["cubic_c11", "drift_c1", "nondini_c11",
                                  "zero_case"])
def test_potentials_solve_the_frozen_equation(name):
    p = get_problem(name)
    assert _potential_residual(p, h=1e-4) < 3e-4
    origin = p.potential.v(np.zeros((1, 2)))[0]
    assert abs(origin) < 1e-14


def test_nondini_profile_against_adaptive_quadrature():
    p = get_problem("nondini_c11")

    def u_rad(r):
        return p.u(np.array([[r, 0.0]]))[0]

    # w(r) = int_0^r (1/t) int_0^t z g(u(z)) dz dt, with the order of
    # integration swapped (Fubini) into one integral
    for r in [0.5, 0.1, 0.02]:
        w_quad, _ = quad(lambda z: z * _g_nondini(u_rad(z)) * np.log(r / z),
                         0.0, r, epsabs=1e-13, epsrel=1e-11, limit=200)
        w_closed = u_rad(r) - r * r
        assert w_quad == pytest.approx(w_closed, rel=1e-7, abs=1e-12)


def scipy_nondini_profile():
    """The profile's fixed point with scipy's cumulative Simpson rule and
    not-a-knot CubicSpline."""
    x = np.linspace(_NONDINI_LOG_FLOOR, 0.0, 96001)
    r2 = np.exp(2.0 * x)
    u = r2.copy()
    for _ in range(12):
        s = cumulative_simpson(r2 * _g_nondini(u), x=x, initial=0.0)
        w = cumulative_simpson(s, x=x, initial=0.0)
        change = np.max(np.abs(r2 + w - u) / np.maximum(r2, 1e-300))
        u = r2 + w
        if change < 1e-15:
            break
    return CubicSpline(x, w / r2)


def test_nondini_profile_matches_scipy():
    # the same fixed point, integrated and interpolated by other rules:
    # scipy's unequal-interval Simpson weights and not-a-knot spline
    profile, oracle = _nondini_profile(), scipy_nondini_profile()
    x = np.random.default_rng(12).uniform(_NONDINI_LOG_FLOOR, 0.0, 100_000)
    for pts in (oracle.x, x):
        assert np.max(np.abs(profile(pts) - oracle(pts))) <= 1e-11


def cumulative_simpson_pairs(y, dx):
    """Cumulative Simpson integral of ``y`` from its first node, each pair
    of intervals split at the middle node as (5, 8, -1) and (-1, 8, 5)
    dx/12, on fresh arrays."""
    y0, y1, y2 = y[:-2:2], y[1::2], y[2::2]
    parts = np.empty(len(y) - 1)
    parts[0::2] = 5.0 * y0 + 8.0 * y1 - y2
    parts[1::2] = 8.0 * y1 + 5.0 * y2 - y0
    return np.concatenate(([0.0], np.cumsum(parts * (dx / 12.0))))


def full_lattice_nondini_table():
    """The profile's table q by the plain fixed point: every step on the
    whole lattice, on fresh arrays."""
    x = np.linspace(_NONDINI_LOG_FLOOR, 0.0, 96001)
    dx = (x[-1] - x[0]) / (len(x) - 1)
    r2 = np.exp(2.0 * x)
    u = r2.copy()
    for _ in range(12):
        s = cumulative_simpson_pairs(r2 * _g_nondini(u), dx)
        w = cumulative_simpson_pairs(s, dx)
        unew = r2 + w
        change = np.max(np.abs(unew - u) / np.maximum(r2, 1e-300))
        u = unew
        if change < 1e-15:
            break
    return w / r2, u


def test_nondini_table_is_the_full_lattice_fixed_point_bit_for_bit():
    # the in-place build re-iterates only the unsettled tail of the lattice
    q = inspect.getclosurevars(_nondini_profile()).nonlocals["q"]
    want, u = full_lattice_nondini_table()
    assert np.array_equal(q, want)
    # the build's g is the reaction's, bit for bit, on the lattice and at
    # arguments whose reciprocal overflows
    for t in (u, np.geomspace(5e-324, math.exp(-2.0), 4001)):
        m = np.minimum(t, np.exp(-2.0))
        assert np.array_equal(_inv_log_inv(m, np.empty_like(m)), _g_nondini(t))


def test_nondini_slow_decay_rate():
    p = get_problem("nondini_c11")
    # (u - r^2)/r^2 behaves like 1/(8 ln(1/r)): ratios across decades stay
    # close to the logarithm ratio, far from any power decay
    radii = np.array([1e-4, 1e-8, 1e-16])
    vals = np.array([p.u(np.array([[r, 0.0]]))[0] / r**2 - 1.0 for r in radii])
    assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.1)
    assert vals[1] / vals[2] == pytest.approx(2.0, rel=0.1)


def test_nondini_reaction_passes_modulus_audit():
    p = get_problem("nondini_c11")
    assert _modulus_violation(p.nonlinearity) <= 1e-10
    assert _g_nondini(0.0) == 0.0
    assert _g_nondini(np.exp(-2.0)) == pytest.approx(0.5)
    assert _g_nondini(10.0) == pytest.approx(0.5)


def test_nondini_reaction_at_subnormal_arguments():
    # 1/t overflows below about 5.6e-309, where 1/ln(1/t) is still about
    # 1.4e-3; a K = 220 ladder reaches such t
    for t in (1e-310, 5e-324):
        assert _g_nondini(t) == pytest.approx(1.0 / -math.log(t), rel=1e-15)
    g = _g_nondini(np.geomspace(5e-324, math.exp(-2.0), 4001))
    assert np.all(np.diff(g) >= 0.0)


def test_drift_solution_agrees_with_discrete_solver():
    p = get_problem("drift_c1")
    grid = DiskGrid(1.0, 1.0 / 48.0)
    op = assemble(p.field, grid)
    rhs = grid.field_from_function(lambda pts: np.full(len(pts), 4.0))
    bc = grid.boundary_from_function(lambda pts: np.ones(len(pts)))
    u_h = solve_dirichlet(op, rhs, bc)
    exact = p.u(grid.coords)
    assert np.max(np.abs(u_h.values - exact)) < 5e-4
