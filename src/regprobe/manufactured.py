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
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.special import iv

from .errors import RegistryError
from .fields import CoefficientField, Nonlinearity, PotentialFamily, make_field
from .modulus import Modulus, log_inverse, zero_modulus


@dataclass(frozen=True)
class ManufacturedProblem:
    """A probe problem with exact solution and frozen-coefficient potential."""

    label: str
    field: CoefficientField
    nonlinearity: Nonlinearity
    u: object
    boundary: object
    potential: PotentialFamily
    omega_a: Modulus
    omega_b: Modulus
    tau: float
    nu: float

    def u_values(self, pts) -> np.ndarray:
        return np.asarray(self.u(np.asarray(pts, dtype=float)), dtype=float)

    def v_values(self, pts) -> np.ndarray:
        return np.asarray(
            self.potential.v((0.0, 0.0), 0.0, np.asarray(pts, dtype=float)),
            dtype=float,
        )


def _quadratic(pts):
    return pts[:, 0] ** 2 + pts[:, 1] ** 2


def _identity_field(drift="zero", q=4.0):
    return make_field("identity", drift, q=q)


_DRIFT_TERMS = 34


@lru_cache(maxsize=1)
def _drift_series_coeffs():
    orders = np.arange(_DRIFT_TERMS + 2)
    iv_half = iv(orders, 0.5)
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


@lru_cache(maxsize=1)
def _nondini_profile():
    """Spline x -> q(x) with u(e^x) = e^{2x} (1 + q(x)), built by fixed point.

    The radial equation w'' + w'/r = g(u), w(0) = w'(0) = 0 integrates to
    w(r) = int_0^r s(t)/t dt with s(t) = int_0^t z g(u(z)) dz; both
    integrals become plain cumulative integrals in x = ln r.
    """
    x = np.linspace(_NONDINI_LOG_FLOOR, 0.0, 96001)
    r2 = np.exp(2.0 * x)
    u = r2.copy()
    for _ in range(12):
        gv = _g_nondini(u)
        s = cumulative_simpson(r2 * gv, x=x, initial=0.0)
        w = cumulative_simpson(s, x=x, initial=0.0)
        unew = r2 + w
        change = np.max(np.abs(unew - u) / np.maximum(r2, 1e-300))
        u = unew
        if change < 1e-15:
            break
    q = w / r2
    return CubicSpline(x, q)


def _nondini_u(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    spline = _nondini_profile()
    out = np.zeros(len(r))
    pos = r > 0.0
    logr = np.log(np.maximum(r[pos], np.exp(_NONDINI_LOG_FLOOR)))
    out[pos] = r[pos] ** 2 * (1.0 + spline(np.maximum(logr, _NONDINI_LOG_FLOOR)))
    return out


def _closed_potential(fn, hessian_bound):
    return PotentialFamily(
        v=lambda x0, t, pts: fn(np.asarray(pts, dtype=float)),
        hessian_bound=hessian_bound,
    )


def _build_zero_case():
    return ManufacturedProblem(
        label="zero_case",
        field=_identity_field(),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: np.full(len(pts), 4.0),
            modulus=zero_modulus(),
            label="const-4",
        ),
        u=_quadratic,
        boundary=_quadratic,
        potential=_closed_potential(_quadratic, 2.0),
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=0.0,
        nu=0.0,
    )


def _build_drift_c1():
    return ManufacturedProblem(
        label="drift_c1",
        field=make_field("identity", "constant:1.0,0.0", q=4.0),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: np.full(len(pts), 4.0),
            modulus=zero_modulus(),
            label="const-4",
        ),
        u=_drift_u,
        boundary=lambda pts: np.ones(len(np.atleast_2d(pts))),
        potential=_closed_potential(_quadratic, 2.0),
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
        label="cubic_c11",
        field=make_field("identity", f"constant:{_CUBIC_BETA},0.0", q=4.0),
        nonlinearity=Nonlinearity(
            f=f,
            modulus=zero_modulus(),
            label="tilted-4",
        ),
        u=_quadratic,
        boundary=_quadratic,
        potential=_closed_potential(v, 2.0 + 2.0 * _CUBIC_BETA),
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=_CUBIC_BETA,
        nu=0.0,
    )


def _build_nondini_c11():
    return ManufacturedProblem(
        label="nondini_c11",
        field=_identity_field(),
        nonlinearity=Nonlinearity(
            f=lambda pts, t: 4.0 + _g_nondini(t) * np.ones(len(pts)),
            modulus=log_inverse(),
            label="log-inverse-reaction",
        ),
        u=_nondini_u,
        boundary=_nondini_u,
        potential=_closed_potential(_quadratic, 2.0),
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


def problem_names() -> tuple:
    return tuple(sorted(_BUILDERS))
