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
cos(2 theta) exp(cos(theta)/2) in cosines.  Each batch sums only the
orders and powers its largest radius needs: an order m is dropped once
|c_m / m!| |w|^m, which bounds its term up to the radial factor e^y, is
below 2^-70, 2^-11 of half an ulp of u(0) = 0.0300015, and on every batch
the probes evaluate the cut sum equals the full one bit for bit.

The non-Dini stressor is the radial fixed point of
Delta u = 4 + g(u),  g(t) = 1/ln(1/min(|t|, e^-2)),
computed by Simpson's rule on a uniform lattice in ln r and stored as
u = r^2 (1 + q(ln r)), q read off the cubic through the four nearest
nodes; it stays accurate down to radii around 1e-40.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldValidationError, RegistryError
from .fields import (CoefficientField, Nonlinearity, PotentialFamily,
                     constant_drift_norm, constant_field)
from .modulus import Modulus, log_power, zero_modulus


@dataclass(frozen=True)
class ManufacturedProblem:
    """A probe problem with exact solution and frozen-coefficient potential.

    ``u`` is also the Dirichlet data: a numeric run reads it on the circle.

    Its constants are the hypotheses at the origin, declared rather than
    measured:

    - ``ellipticity`` pinches the Rayleigh quotients of ``a`` into
      ``[ellipticity, 1/ellipticity]``;
    - ``drift_bound`` bounds the sum of the components' L^DRIFT_Q(B_1)
      norms of ``b`` (``fields.DRIFT_Q``);
    - ``tau`` is the sup of ``|b|``;
    - ``nu`` bounds the C^{-1,1}_n modulus of ``a``;
    - ``omega_a`` and ``omega_b`` are the Dini moduli of ``a`` and ``b``.

    The bundled problems have a = I and a constant drift b0, so these six
    follow from b0 (``_identity_problem``); only the potential's Hessian
    bound T and the reaction modulus are declared.
    """

    field: CoefficientField
    nonlinearity: Nonlinearity
    u: object
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


_DRIFT_ORDER_TOL = 2.0 ** -70


def _series_counts(y_max):
    """Orders of w and powers of y = |w|^2 that sum psi exactly for |w|^2 <= y_max.

    Powers: after P terms the tail of sum_k y^k / (k! (k+m)!), relative to
    its first term, is below 2 y^P / (P!)^2 once (P+1)^2 > 2y; stop when
    that falls under half an ulp.  Capping P at the table's width keeps a
    non-finite or huge y from looping; the sum is exact up to r of about
    300.

    Orders: since (k+m)! >= k! m!, order m contributes at most
    |c_m / m!| |w|^m e^y (DLMF 10.25.2); every order past the last one
    whose |c_m / m!| |w|_max^m reaches _DRIFT_ORDER_TOL is dropped.  A
    non-finite y_max keeps all of them.
    """
    n, term = 0, 1.0
    while n < _DRIFT_POWERS and (term > 2.0 ** -55
                                 or (n + 1) ** 2 <= 2.0 * y_max):
        n += 1
        term *= y_max / (n * n)
    w_max = math.sqrt(y_max)
    sizes = np.abs(_drift_series_table()[:, 0]) * w_max ** np.arange(_DRIFT_TERMS)
    orders = 1 + int(np.flatnonzero(~(sizes < _DRIFT_ORDER_TOL))[-1])
    return orders, n


def _drift_u(pts):
    """u = 2 x2^2 + exp(-x1/2) psi, psi = sum_m c_m I_m(r/2) cos(m theta).

    With w = (x1 + i x2)/4 and y = |w|^2, I_m(r/2) cos(m theta) is
    Re w^m sum_k y^k / (k! (k+m)!), so psi is a polynomial in w whose
    coefficients are power series in y; both are summed by Horner, cut to
    the counts ``_series_counts`` gives for the batch's largest y.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    w = (pts[:, 0] + 1j * pts[:, 1]) / 4.0
    y = w.real ** 2 + w.imag ** 2
    orders, powers = _series_counts(float(y.max(initial=0.0)))
    table = _drift_series_table()[:orders, :powers]
    radial = np.repeat(table[:, -1:], len(y), axis=1)
    for k in range(powers - 2, -1, -1):
        radial *= y
        radial += table[:, k:k + 1]
    psi = radial[-1].astype(complex)
    for m in range(orders - 2, -1, -1):
        psi *= w
        psi += radial[m]
    return 2.0 * pts[:, 1] ** 2 + np.exp(-pts[:, 0] / 2.0) * psi.real


_NONDINI_LOG_FLOOR = -92.0


def _inv_log_inv(m, out):
    """1/ln(1/m) for 0 < m <= e^-2, written into ``out`` (not ``m``)."""
    with np.errstate(over="ignore"):
        np.divide(1.0, m, out=out)
    np.log(out, out=out)
    # below about 5.6e-309 the reciprocal overflows, and -log(m) stands in
    if np.max(out, initial=0.0) == np.inf:
        huge = np.isinf(out)
        out[huge] = -np.log(m[huge])
    return np.divide(1.0, out, out=out)


def _g_nondini(t):
    t = np.abs(np.asarray(t, dtype=float))
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape)
    pos = t > 0.0
    m = np.minimum(t[pos], np.exp(-2.0))
    out[pos] = _inv_log_inv(m, np.empty_like(m))
    return float(out[0]) if scalar else out


@lru_cache(maxsize=1)
def _nondini_profile():
    """Callable x -> q(x) with u(e^x) = e^{2x} (1 + q(x)), built by fixed point.

    The radial equation w'' + w'/r = g(u), w(0) = w'(0) = 0 integrates to
    w(r) = int_0^r s(t)/t dt with s(t) = int_0^t z g(u(z)) dz; both
    integrals become plain cumulative integrals in x = ln r, taken by
    Simpson's rule on a uniform lattice.  The fixed point is causal (node
    i reads the last iterate up to node i + 1), so each step starts 4
    nodes below the first node the last one moved, at an even node so its
    Simpson pairs are the whole lattice's, and each cumulative sum adds
    its frozen value there to the tail's first part before the sequential
    cumsum: every node sums in a full step's order, to the same bits, and
    the stop test sees the same maximum.  Between nodes q is the cubic
    through the four nearest nodes; the end cubics extrapolate.  It is
    evaluated as the chord through the middle two nodes less a bow from
    their second differences, so q stays the only per-node table.
    """
    r2 = np.linspace(_NONDINI_LOG_FLOOR, 0.0, 96001)
    dx = (r2[-1] - r2[0]) / (len(r2) - 1)
    np.exp(np.multiply(r2, 2.0, out=r2), out=r2)
    u, unew, g, s, w = r2.copy(), *(np.zeros_like(r2) for _ in range(4))
    parts, scratch = np.empty(len(r2) - 1), np.empty(len(r2) // 2)
    start = 0

    def integrate(y, out):
        # pair parts (5 y0 + 8 y1) - y2 and (8 y1 + 5 y2) - y0, times dx/12
        y0, y1, y2 = y[start:-2:2], y[start + 1::2], y[start + 2::2]
        first, second = parts[start::2], parts[start + 1::2]
        np.multiply(y1, 8.0, out=second)
        np.add(np.multiply(y0, 5.0, out=first), second, out=first)
        first -= y2
        second += np.multiply(y2, 5.0, out=scratch[:len(y2)])
        second -= y0
        tail = np.multiply(parts[start:], dx / 12.0, out=parts[start:])
        tail[0] += out[start]
        np.cumsum(tail, out=out[start + 1:])

    for _ in range(12):
        # u > 0 on the lattice, so g(u) r^2 is 1/ln(1/min(u, e^-2)) r^2
        np.minimum(u[start:], np.exp(-2.0), out=unew[start:])
        _inv_log_inv(unew[start:], g[start:])
        g[start:] *= r2[start:]
        integrate(g, s)
        integrate(s, w)
        np.add(r2[start:], w[start:], out=unew[start:])
        moved = np.subtract(unew[start:], u[start:], out=g[start:])
        # r^2 >= e^-184, so the relative change needs no floor
        change = np.divide(np.abs(moved, out=moved), r2[start:], out=moved).max()
        u, unew = unew, u
        if change < 1e-15:
            break
        node = start + int(np.argmax(moved > 0.0))
        start = max(node - node % 2 - 4, 0)
    q = np.divide(w, r2, out=w)
    last = len(q) - 4

    def profile(x):
        # node i + 1 starts the interval of x; the stencil is nodes i..i+3
        pos = (np.asarray(x, dtype=float) - _NONDINI_LOG_FLOOR) / dx
        i = np.clip(np.floor(pos).astype(np.intp) - 1, 0, last)
        t = pos - (i + 1)
        q0, q1, q2, q3 = q[i], q[i + 1], q[i + 2], q[i + 3]
        # the cubic through (-1, q0), (0, q1), (1, q2), (2, q3) at t
        bow = t * (1.0 - t) / 6.0 * ((2.0 - t) * (q0 - 2.0 * q1 + q2)
                                     + (1.0 + t) * (q1 - 2.0 * q2 + q3))
        return (1.0 - t) * q1 + t * q2 - bow

    return profile


def _nondini_u(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    # below the table's floor q is read at the floor, and u(0) = 0
    log_r = 0.5 * np.log(np.maximum(r2, math.exp(2.0 * _NONDINI_LOG_FLOOR)))
    return r2 * (1.0 + _nondini_profile()(log_r))


def _constant_f(pts, t):
    return np.full(len(pts), 4.0)


_CUBIC_BETA = 0.1


def _cubic_f(pts, t):
    return 4.0 + 2.0 * _CUBIC_BETA * np.asarray(pts)[:, 0] + 0.0 * np.asarray(t)


def _cubic_v(pts):
    # two products cost about a hundredth of libm pow; the cube's last bit
    # differs from pow's at about a quarter of the points, yet no artifact moves
    x = pts[:, 0]
    return _quadratic(pts) + (_CUBIC_BETA / 3.0) * (x * x * x)


def _nondini_f(pts, t):
    return 4.0 + _g_nondini(t) * np.ones(len(pts))


def _identity_problem(f, modulus, u, v, T, b0=(0.0, 0.0)):
    """The problem with a = I, b = b0, reaction f of modulus ``modulus``,
    solution u and potential v of Hessian bound T.  Each call builds its
    own potential, so wrapping one problem's ``v`` leaves the others'."""
    return ManufacturedProblem(
        field=constant_field(np.eye(2), b0),
        nonlinearity=Nonlinearity(f=f, modulus=modulus),
        u=u,
        potential=PotentialFamily(v, T),
        ellipticity=1.0,
        drift_bound=constant_drift_norm(b0),
        omega_a=zero_modulus(),
        omega_b=zero_modulus(),
        tau=math.hypot(*b0),
        nu=0.0,
    )


_BUILDERS = {
    "zero_case": lambda: _identity_problem(
        _constant_f, zero_modulus(), _quadratic, _quadratic, 2.0),
    "drift_c1": lambda: _identity_problem(
        _constant_f, zero_modulus(), _drift_u, _quadratic, 2.0, b0=(1.0, 0.0)),
    "cubic_c11": lambda: _identity_problem(
        _cubic_f, zero_modulus(), _quadratic, _cubic_v,
        2.0 + 2.0 * _CUBIC_BETA, b0=(_CUBIC_BETA, 0.0)),
    "nondini_c11": lambda: _identity_problem(
        _nondini_f, log_power(1.0), _nondini_u, _quadratic, 2.0),
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
