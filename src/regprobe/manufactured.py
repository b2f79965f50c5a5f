"""Exactly solvable probe problems.

Each entry bundles coefficients, a nonlinearity, an exact solution u, and
the comparison potential v solving the frozen-coefficient equation
a_ij(0) D_ij v = f(x, 0).  Solutions are closed forms (or machine-precision
series/profiles), so the multiscale probes can evaluate them at radii far
below any grid spacing.

The constant-drift solution solves  Delta u + D_1 u = 4  with boundary
values 1 on the unit circle.  Writing u = 2 x2^2 + exp(-x1/2) psi turns
the homogeneous part into the modified Helmholtz equation
Delta psi = psi / 4, whose disk solutions are I_m(r/2) cos(m theta); the
boundary condition fixes the coefficients through the expansion of
cos(2 theta) exp(cos(theta)/2) in cosines.

The non-Dini stressor is the radial fixed point of
Delta u = 4 + g(u),  g(t) = 1/ln(1/min(|t|, e^-2)),
computed on a logarithmic radius grid and stored as u = r^2 (1 + q(ln r)),
which stays accurate down to radii around 1e-40.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .errors import FieldValidationError, RegistryError
from .fields import CoefficientField, Nonlinearity, PotentialFamily, constant_field
from .modulus import Modulus, log_power, zero_modulus


@dataclass(frozen=True)
class ManufacturedProblem:
    """A probe problem with exact solution and frozen-coefficient potential.

    Its constants are the hypotheses at the origin, declared rather than
    measured:

    - ``ellipticity`` pinches the Rayleigh quotients of ``a`` into
      ``[ellipticity, 1/ellipticity]``;
    - ``drift_bound`` bounds the sum of the components' L^DRIFT_Q(B_1)
      norms of ``b`` (``fields.DRIFT_Q``);
    - ``tau`` is the sup of ``|b|``;
    - ``nu`` bounds the C^{-1,1}_n modulus of ``a``;
    - ``omega_a`` and ``omega_b`` are the Dini moduli of ``a`` and ``b``.
    """

    field: CoefficientField
    nonlinearity: Nonlinearity
    u: object
    boundary: object
    potential: PotentialFamily
    ellipticity: float
    drift_bound: float
    omega_a: Modulus
    omega_b: Modulus
    tau: float
    nu: float

    def __post_init__(self):
        if not (0.0 < self.ellipticity <= 1.0):
            raise FieldValidationError(
                f"ellipticity constant must lie in (0, 1], got {self.ellipticity}"
            )
        if self.drift_bound < 0.0:
            raise FieldValidationError("drift bound must be nonnegative")


def _quadratic(pts):
    return pts[:, 0] ** 2 + pts[:, 1] ** 2


_DRIFT_TERMS = 34


def _bessel_i_half(m):
    """I_m(1/2) = sum_k (1/4)^(2k+m) / (k! (k+m)!).

    Each term is one correctly rounded integer division and fsum adds them
    exactly; past k = 15 the terms fall below 1e-40 of the sum.
    """
    return math.fsum(
        1 / (4 ** (2 * k + m) * math.factorial(k) * math.factorial(k + m))
        for k in range(16))


@lru_cache(maxsize=1)
def _drift_series_coeffs():
    iv_half = [_bessel_i_half(m) for m in range(_DRIFT_TERMS + 2)]
    c = np.zeros(_DRIFT_TERMS)
    c[0] = iv_half[2] / iv_half[0]
    for m in range(1, _DRIFT_TERMS):
        c[m] = (iv_half[abs(m - 2)] + iv_half[m + 2]) / iv_half[m]
    c.setflags(write=False)
    return c


_DRIFT_POWERS = 256


@lru_cache(maxsize=1)
def _drift_series_table():
    """Read-only table t[m, k] = c_m / (k! (k+m)!), k < _DRIFT_POWERS."""
    c = _drift_series_coeffs()
    orders = np.arange(_DRIFT_TERMS)
    table = np.empty((_DRIFT_TERMS, _DRIFT_POWERS))
    table[:, 0] = c / np.array([math.factorial(m) for m in orders], dtype=float)
    for k in range(1, _DRIFT_POWERS):
        table[:, k] = table[:, k - 1] / (k * (k + orders))
    table.setflags(write=False)
    return table


def _series_powers(y_max):
    """Number of powers of y = (r/4)^2 that sums every I_m(r/2) exactly.

    After P terms the tail of sum_k y^k / (k! (k+m)!), relative to its
    first term, is below 2 y^P / (P!)^2 once (P+1)^2 > 2y; stop when that
    falls under half an ulp.  Capping P at the table's width keeps a
    non-finite or huge y from looping; the sum is exact up to r of about
    300.
    """
    n, term = 0, 1.0
    while n < _DRIFT_POWERS and (term > 2.0 ** -55
                                 or (n + 1) ** 2 <= 2.0 * y_max):
        n += 1
        term *= y_max / (n * n)
    return n


def _drift_u(pts):
    """u = 2 x2^2 + exp(-x1/2) psi, psi = sum_m c_m I_m(r/2) cos(m theta).

    With w = (x1 + i x2)/4 and y = |w|^2, I_m(r/2) cos(m theta) is
    Re w^m sum_k y^k / (k! (k+m)!), so psi is a polynomial in w whose
    coefficients are power series in y; both are summed by Horner.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    w = (pts[:, 0] + 1j * pts[:, 1]) / 4.0
    y = w.real ** 2 + w.imag ** 2
    table = _drift_series_table()[:, :_series_powers(float(y.max(initial=0.0)))]
    radial = np.repeat(table[:, -1:], len(y), axis=1)
    for k in range(table.shape[1] - 2, -1, -1):
        radial *= y
        radial += table[:, k:k + 1]
    psi = radial[-1].astype(complex)
    for m in range(_DRIFT_TERMS - 2, -1, -1):
        psi *= w
        psi += radial[m]
    return 2.0 * pts[:, 1] ** 2 + np.exp(-pts[:, 0] / 2.0) * psi.real


_NONDINI_LOG_FLOOR = -92.0


def _g_nondini(t):
    t = np.abs(np.asarray(t, dtype=float))
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape)
    pos = t > 0.0
    out[pos] = 1.0 / np.log(1.0 / np.minimum(t[pos], np.exp(-2.0)))
    return float(out[0]) if scalar else out


def _simpson_weights(x):
    """The weights of scipy's cumulative Simpson rule on the lattice ``x``.

    Interval i is integrated over the parabola through three neighbouring
    nodes: i, i+1, i+2 for even i, and i+1, i, i-1 for odd i and for the last
    interval (scipy's h1 and h2 formulas on unequal intervals).  Returns the
    node indices, shape (3, n-1), and the weights x21/6 and coeff1..coeff3,
    shape (4, n-1), each computed with scipy's operations in scipy's order.
    """
    n = len(x)
    dx = np.diff(x)
    i = np.arange(n - 1)
    step = np.where((i % 2 == 1) | (i == n - 2), -1, 1)
    first = np.where(step < 0, i + 1, i)
    x21 = dx
    x32 = dx[i + step]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    weights = np.stack((x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31,
                        -x21x21_x31x32))
    return np.stack((first, first + step, first + 2 * step)), weights


def _cumulative_simpson(y, nodes, weights):
    """Cumulative integral of ``y`` from 0 at the first node."""
    f1, f2, f3 = y[nodes]
    parts = weights[0] * (weights[1] * f1 + weights[2] * f2 + weights[3] * f3)
    return np.concatenate(([0.0], np.cumsum(parts)))


@dataclass(frozen=True, eq=False)
class _CubicProfile:
    """Piecewise cubic c3 + c2 s + c1 s^2 + c0 s^3, s = x - nodes[i].

    Evaluated as scipy's PPoly does: x lies in [nodes[i], nodes[i+1]) (the
    end intervals extrapolate), and the powers of s are accumulated term by
    term.  The nodes are uniform, so i is estimated from the spacing and
    corrected by one comparison each way, which finds the interval a
    bisection would; the estimate is within one interval on a linspace.
    """

    nodes: np.ndarray
    c: np.ndarray  # shape (4, len(nodes) - 1), highest power first

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        nodes, last = self.nodes, len(self.nodes) - 2
        step = (nodes[-1] - nodes[0]) / (last + 1)
        i = np.clip(((x - nodes[0]) / step).astype(np.intp), 0, last)
        i -= x < nodes[i]
        i += x >= nodes[i + 1]
        np.clip(i, 0, last, out=i)
        s = x - nodes[i]
        c0, c1, c2, c3 = np.take(self.c, i, axis=1)
        z = s * s
        out = c3 + c2 * s + c1 * z
        z *= s
        out += c0 * z
        return out


def _not_a_knot_spline(x, y):
    """Coefficients of the not-a-knot cubic spline through (x, y).

    The slopes solve scipy's tridiagonal system, built and solved the way
    CubicSpline does it; the coefficients follow CubicHermiteSpline.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0] = dx[1]
    ab[0, 1] = d
    b[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d
    b[-1] = (dx[-1]**2*slope[-2] + (2*d + dx[-1])*dx[-2]*slope[-1]) / d
    s = solve_banded((1, 1), ab, b[:, None], overwrite_ab=True,
                     overwrite_b=True, check_finite=False)[:, 0]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


@lru_cache(maxsize=1)
def _nondini_profile():
    """Spline x -> q(x) with u(e^x) = e^{2x} (1 + q(x)), built by fixed point.

    The radial equation w'' + w'/r = g(u), w(0) = w'(0) = 0 integrates to
    w(r) = int_0^r s(t)/t dt with s(t) = int_0^t z g(u(z)) dz; both
    integrals become plain cumulative integrals in x = ln r.
    """
    x = np.linspace(_NONDINI_LOG_FLOOR, 0.0, 96001)
    nodes, weights = _simpson_weights(x)
    r2 = np.exp(2.0 * x)
    u = r2.copy()
    for _ in range(12):
        gv = _g_nondini(u)
        s = _cumulative_simpson(r2 * gv, nodes, weights)
        w = _cumulative_simpson(s, nodes, weights)
        unew = r2 + w
        change = np.max(np.abs(unew - u) / np.maximum(r2, 1e-300))
        u = unew
        if change < 1e-15:
            break
    c = _not_a_knot_spline(x, w / r2)
    x.setflags(write=False)
    c.setflags(write=False)
    return _CubicProfile(x, c)


def _nondini_u(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    spline = _nondini_profile()
    out = np.zeros(len(r))
    pos = r > 0.0
    logr = np.log(np.maximum(r[pos], np.exp(_NONDINI_LOG_FLOOR)))
    out[pos] = r[pos] ** 2 * (1.0 + spline(np.maximum(logr, _NONDINI_LOG_FLOOR)))
    return out


def _build_zero_case():
    return ManufacturedProblem(
        field=constant_field(np.eye(2)),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: np.full(len(pts), 4.0),
            modulus=zero_modulus(),
        ),
        u=_quadratic,
        boundary=_quadratic,
        potential=PotentialFamily(_quadratic, 2.0),
        ellipticity=1.0,
        drift_bound=0.0,
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=0.0,
        nu=0.0,
    )


def _build_drift_c1():
    return ManufacturedProblem(
        field=constant_field(np.eye(2), (1.0, 0.0)),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: np.full(len(pts), 4.0),
            modulus=zero_modulus(),
        ),
        u=_drift_u,
        boundary=lambda pts: np.ones(len(np.atleast_2d(pts))),
        potential=PotentialFamily(_quadratic, 2.0),
        ellipticity=1.0,
        # b = (b1, 0) has L^4(B_1) norm |b1| pi^(1/4), here and in cubic_c11
        drift_bound=math.pi ** 0.25,
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=1.0,
        nu=0.0,
    )


_CUBIC_BETA = 0.1


def _build_cubic_c11():
    def f(pts, t):
        return 4.0 + 2.0 * _CUBIC_BETA * np.asarray(pts)[:, 0] + 0.0 * np.asarray(t)

    def v(pts):
        return _quadratic(pts) + (_CUBIC_BETA / 3.0) * pts[:, 0] ** 3

    return ManufacturedProblem(
        field=constant_field(np.eye(2), (_CUBIC_BETA, 0.0)),
        nonlinearity=Nonlinearity(
            f=f,
            modulus=zero_modulus(),
        ),
        u=_quadratic,
        boundary=_quadratic,
        potential=PotentialFamily(v, 2.0 + 2.0 * _CUBIC_BETA),
        ellipticity=1.0,
        drift_bound=_CUBIC_BETA * math.pi ** 0.25,
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=_CUBIC_BETA,
        nu=0.0,
    )


def _build_nondini_c11():
    return ManufacturedProblem(
        field=constant_field(np.eye(2)),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: 4.0 + _g_nondini(t) * np.ones(len(pts)),
            modulus=log_power(1.0),
        ),
        u=_nondini_u,
        boundary=_nondini_u,
        potential=PotentialFamily(_quadratic, 2.0),
        ellipticity=1.0,
        drift_bound=0.0,
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=0.0,
        nu=0.0,
    )


_BUILDERS = {
    "zero_case": _build_zero_case,
    "drift_c1": _build_drift_c1,
    "cubic_c11": _build_cubic_c11,
    "nondini_c11": _build_nondini_c11,
}


@lru_cache(maxsize=None)
def get_problem(name: str) -> ManufacturedProblem:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise RegistryError(
            f"unknown manufactured problem {name!r}; have {sorted(_BUILDERS)}"
        ) from None
    return builder()
