"""Coefficient fields, nonlinearities, and frozen-coefficient potentials.

This module owns the structural data of a problem: the matrix field ``a``
and drift ``b``, the nonlinearity ``f(x, t)`` with its modulus of
continuity in ``t``, and the comparison potentials solving the
frozen-coefficient equation.  A problem's coefficient constants
(ellipticity, drift bound, moduli) are declared on
``manufactured.ManufacturedProblem``, not measured: the probes read them
as given.  The drift's integrability
exponent is the one constant ``DRIFT_Q``, and ``constant_drift_norm`` is
the drift bound of a constant drift.  Every constant-coefficient
field, the frozen operator a_ij(x0) D_ij + b_i(x0) D_i of the
perturbation argument included, comes from ``constant_field``; the one
non-constant field constructor is ``perturbed_field``, which the
perturbation sweep and the solver study read.

Conventions: everything is vectorized over points.  A matrix field maps an
``(N, 2)`` array of points to ``(N, 2, 2)``; a drift maps it to ``(N, 2)``;
scalar functions map it to ``(N,)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FieldValidationError
from .modulus import Modulus

# The drift b lies in L^DRIFT_Q(B_1), an exponent above the dimension n = 2.
DRIFT_Q = 4.0


@dataclass(frozen=True)
class CoefficientField:
    """Second-order coefficients ``a`` and drift ``b``."""

    a: Callable
    b: Callable

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


def constant_field(a0, b0=(0.0, 0.0)) -> CoefficientField:
    """The field with a(x) = a0 and b(x) = b0 at every point.

    a0 must be a 2x2 matrix and b0 have two entries; ellipticity and the
    eigenvalue-ratio limit are checked where the field is assembled.
    """
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    if a0.shape != (2, 2):
        raise FieldValidationError(f"a0 must be a 2x2 matrix, got shape {a0.shape}")
    if b0.shape != (2,):
        raise FieldValidationError(f"b0 must have two entries, got shape {b0.shape}")
    return CoefficientField(a=lambda pts: np.broadcast_to(a0, (len(pts), 2, 2)),
                            b=lambda pts: np.broadcast_to(b0, (len(pts), 2)))


def perturbed_field(eps: float) -> CoefficientField:
    """The field with a(x) = diag(1 + eps sin x1, 1) and b(x) = 0."""
    def a_fn(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = 1.0 + eps * np.sin(pts[:, 0])
        out[:, 1, 1] = 1.0
        return out

    return CoefficientField(a=a_fn, b=lambda pts: np.zeros((len(pts), 2)))


def constant_drift_norm(b0) -> float:
    """Sum of the L^DRIFT_Q(B_1) norms of the components of the constant
    drift b0, sum |b_i| * pi ** (1 / DRIFT_Q): B_1 has area pi."""
    return sum(abs(b) for b in b0) * math.pi ** (1.0 / DRIFT_Q)


@dataclass(frozen=True)
class Nonlinearity:
    """A right-hand side ``f(x, t)`` with modulus of continuity in ``t``.

    ``f`` maps an ``(N, 2)`` point array and scalar (or matching-shape) ``t``
    to ``(N,)`` values.
    """

    f: Callable
    modulus: Modulus

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
    """The comparison potential of the frozen-coefficient equation.

    ``v(pts)`` evaluates, on an ``(N, 2)`` float array, the potential
    centred at the probe point, the origin, with the reaction frozen at
    ``t = 0``: it solves ``a_ij(0) D_ij v = f(x, 0)`` with ``v(0) = 0`` and
    ``Dv(0) = 0``, and its Hessian is bounded by ``hessian_bound``.
    """

    v: Callable
    hessian_bound: float

