"""Coefficient fields, nonlinearities, and frozen-coefficient potentials.

This module owns the structural data of a problem: the matrix field ``a``
and drift ``b`` with their ellipticity and integrability constants, the
nonlinearity ``f(x, t)`` with its modulus of continuity in ``t``, and the
comparison potentials solving the frozen-coefficient equation.  The
constants are declared, not measured: the probes read them as given.  The
registries below resolve the string ids that scenarios use to name the
built-in fields and nonlinearities.

Conventions: everything is vectorized over points.  A matrix field maps an
``(N, 2)`` array of points to ``(N, 2, 2)``; a drift maps it to ``(N, 2)``;
scalar functions map it to ``(N,)``.  All built-ins are defined on the whole
plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ExponentError,
    FieldValidationError,
    MalformedIdError,
    RegistryError,
)
from .modulus import Modulus, power, zero_modulus


@dataclass(frozen=True)
class CoefficientField:
    """Second-order coefficients ``a`` and drift ``b`` with their constants.

    ``ellipticity`` is the constant pinching the Rayleigh quotients of ``a``
    into ``[ellipticity, 1/ellipticity]``; ``drift_bound`` bounds the sum of
    the component L^q norms of ``b``.
    """

    a: Callable
    b: Callable
    ellipticity: float
    drift_bound: float
    q: float
    label: str = ""

    def __post_init__(self):
        if not (0.0 < self.ellipticity <= 1.0):
            raise FieldValidationError(
                f"ellipticity constant must lie in (0, 1], got {self.ellipticity}"
            )
        if self.drift_bound < 0.0:
            raise FieldValidationError("drift bound must be nonnegative")
        if not (self.q > 2.0):
            raise ExponentError(f"drift exponent must exceed n=2, got {self.q}")

    def eval_a(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self.a(pts), dtype=float)
        if out.shape != (len(pts), 2, 2):
            raise FieldValidationError(
                f"matrix field returned shape {out.shape}, expected {(len(pts), 2, 2)}"
            )
        return out

    def eval_b(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self.b(pts), dtype=float)
        if out.shape != (len(pts), 2):
            raise FieldValidationError(
                f"drift returned shape {out.shape}, expected {(len(pts), 2)}"
            )
        return out


@dataclass(frozen=True)
class Nonlinearity:
    """A right-hand side ``f(x, t)`` with modulus of continuity in ``t``.

    ``f`` maps an ``(N, 2)`` point array and scalar (or matching-shape) ``t``
    to ``(N,)`` values.
    """

    f: Callable
    modulus: Modulus
    label: str = ""

    def eval(self, pts, t) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self.f(pts, t), dtype=float)
        if out.shape != (len(pts),):
            raise FieldValidationError(
                f"nonlinearity returned shape {out.shape}, expected {(len(pts),)}"
            )
        return out


@dataclass(frozen=True)
class PotentialFamily:
    """Comparison potentials for the frozen-coefficient equation.

    ``v(x0, t, pts)`` evaluates the potential centered at ``x0`` with frozen
    parameter ``t``; it solves ``a_ij(x0) D_ij v = f(x, t)`` with
    ``v(x0) = 0`` and ``Dv(x0) = 0``, and its Hessian is bounded by
    ``hessian_bound`` uniformly in ``(x0, t)``.
    """

    v: Callable
    hessian_bound: float

    def eval(self, x0, t, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.v(np.asarray(x0, dtype=float), t, pts), dtype=float)


def _extended_modulus(phi: Modulus, delta: float) -> float:
    if delta <= 0.0:
        return 0.0
    cap = phi.r_max
    if not math.isfinite(cap) or delta <= cap:
        return float(phi.eval(min(delta, cap))) if math.isfinite(cap) else float(phi.eval(delta))
    chunks = math.ceil(delta / cap)
    return chunks * float(phi.eval(cap))


# ---------------------------------------------------------------------------
# registries


def _identity_matrix_field(pts):
    out = np.zeros((len(pts), 2, 2))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def _scalar_times_identity(scale):
    out = np.zeros(scale.shape + (2, 2))
    out[..., 0, 0] = scale
    out[..., 1, 1] = scale
    return out


def _parse_params(arg: str, count: int, full_id: str) -> list[float]:
    parts = arg.split(",") if arg else []
    if len(parts) != count:
        raise MalformedIdError(f"id {full_id!r} needs {count} numeric parameter(s)")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise MalformedIdError(f"bad numeric parameter in id {full_id!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise MalformedIdError(f"non-finite parameter in id {full_id!r}")
    return values


def parse_coefficients(coeff_id: str):
    """Resolve a coefficient id to ``(a, Lambda)``."""
    name, _, arg = str(coeff_id).partition(":")
    if name == "identity":
        if arg:
            raise MalformedIdError(f"identity takes no parameter, got {coeff_id!r}")
        return _identity_matrix_field, 1.0
    if name == "radial_lipschitz":
        (nu,) = _parse_params(arg, 1, coeff_id)
        if not (0.0 < nu):
            raise MalformedIdError(f"radial_lipschitz needs nu > 0, got {nu}")

        def a_fn(pts, nu=nu):
            s = np.minimum(np.hypot(pts[:, 0], pts[:, 1]), 1.0)
            return _scalar_times_identity(1.0 + nu * s)

        return a_fn, 1.0 / (1.0 + nu)
    if name == "dini_log":
        (p,) = _parse_params(arg, 1, coeff_id)
        if not (p > 0.0):
            raise MalformedIdError(f"dini_log needs p > 0, got {p}")
        r_cap = math.exp(-p)

        def a_fn(pts, p=p, r_cap=r_cap):
            s = np.minimum(np.hypot(pts[:, 0], pts[:, 1]), r_cap)
            prof = np.zeros_like(s)
            pos = s > 0.0
            prof[pos] = (-np.log(s[pos])) ** (-p)
            return _scalar_times_identity(1.0 + prof)

        return a_fn, 1.0 / (1.0 + p ** -p)
    raise RegistryError(f"unknown coefficient id {coeff_id!r}")


def parse_drift(drift_id: str, q: float):
    """Resolve a drift id to ``(b, Lambda1, q)``; spike ids carry their own q."""
    name, _, arg = str(drift_id).partition(":")
    if name == "zero":
        if arg:
            raise MalformedIdError(f"zero drift takes no parameter, got {drift_id!r}")
        return (lambda pts: np.zeros((len(pts), 2))), 0.0, q
    if name == "constant":
        b1, b2 = _parse_params(arg, 2, drift_id)

        def b_fn(pts, b1=b1, b2=b2):
            out = np.empty((len(pts), 2))
            out[:, 0] = b1
            out[:, 1] = b2
            return out

        lam1 = (abs(b1) + abs(b2)) * math.pi ** (1.0 / q)
        return b_fn, lam1, q
    if name == "lq_spike":
        (q_own,) = _parse_params(arg, 1, drift_id)
        if not (q_own > 2.0):
            raise ExponentError(f"lq_spike exponent must exceed 2, got {q_own}")

        def b_fn(pts, q_own=q_own):
            s = np.maximum(np.hypot(pts[:, 0], pts[:, 1]), 1e-9)
            out = np.zeros((len(pts), 2))
            out[:, 0] = s ** (-1.0 / q_own)
            return out

        lam1 = (2.0 * math.pi) ** (1.0 / q_own)
        return b_fn, lam1, q_own
    raise RegistryError(f"unknown drift id {drift_id!r}")


def make_field(coefficients: str = "identity", drift: str = "zero",
               q: float = 4.0) -> CoefficientField:
    """Assemble a :class:`CoefficientField` from registry ids."""
    a_fn, lam = parse_coefficients(coefficients)
    b_fn, lam1, q_eff = parse_drift(drift, q)
    return CoefficientField(
        a=a_fn, b=b_fn, ellipticity=lam, drift_bound=lam1, q=q_eff,
        label=f"{coefficients}|{drift}",
    )


def parse_nonlinearity(nl_id: str) -> Nonlinearity:
    """Resolve a nonlinearity id such as ``const:c`` or ``sqrt_dini``."""
    name, _, arg = str(nl_id).partition(":")
    if name == "const":
        (c,) = _parse_params(arg, 1, nl_id)

        def f_fn(pts, t, c=c):
            return np.full(len(pts), c)

        return Nonlinearity(f_fn, zero_modulus(), label=nl_id)
    if name == "sqrt_dini":
        if arg:
            raise MalformedIdError(f"sqrt_dini takes no parameter, got {nl_id!r}")

        def f_fn(pts, t):
            tt = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
            return np.sqrt(np.minimum(np.abs(tt), 1.0))

        return Nonlinearity(f_fn, power(0.5, r_max=1.0), label=nl_id)
    if name == "from_manufactured":
        if not arg:
            raise MalformedIdError("from_manufactured needs a problem id")
        from . import manufactured

        return manufactured.get_problem(arg).nonlinearity
    raise RegistryError(f"unknown nonlinearity id {nl_id!r}")
