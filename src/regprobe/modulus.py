"""Moduli of continuity and Dini-type summability checks.

A modulus here is a nondecreasing function ``omega`` on ``(0, r_max]`` with
``omega(0+) = 0``.  The built-in families are the ones the rest of the package
quantifies over: powers ``r**gamma``, inverse powers ``ln(1/r)**-p`` of the
logarithm, and zero.  The central question asked of a modulus is whether
``omega(t)/t`` is integrable near zero, and how fast the geometric sums
``sum_i omega(lam**i)`` decay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ModulusDomainError, RegistryError

_FAMILIES = ("power", "log_power", "zero")


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity from one of the built-in families.

    ``exponent`` is ``gamma`` for ``power`` (``r**gamma``) and ``p`` for
    ``log_power`` (``ln(1/r)**-p``), finite and > 0; ``zero`` ignores it.
    The domain ``(0, r_max]`` follows: ``r_max`` is 1 for powers, ``e**-p``
    for log powers (up to which ``omega(r)/r`` decreases) and inf for zero.
    Evaluation outside it raises :class:`ModulusDomainError`;
    :meth:`extended` reads the modulus past ``r_max``.
    """

    family: str
    exponent: float = 0.0
    r_max: float = dc_field(init=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise RegistryError(f"unknown modulus family {self.family!r}")
        if self.family != "zero" and not 0.0 < self.exponent < math.inf:
            raise ModulusDomainError(
                f"{self.family} modulus needs an exponent > 0, got {self.exponent}")
        r_max = {"power": 1.0, "log_power": math.exp(-self.exponent),
                 "zero": math.inf}[self.family]
        object.__setattr__(self, "r_max", r_max)

    def eval(self, r):
        """Evaluate the modulus at ``r`` (scalar or array), enforcing the domain."""
        arr = np.asarray(r, dtype=float)
        if arr.size:
            bad = ~np.isfinite(arr) | (arr <= 0.0) | (arr > self.r_max * (1.0 + 1e-12))
            if np.any(bad):
                worst = arr[np.asarray(bad)].flat[0]
                raise ModulusDomainError(
                    f"modulus evaluated at r={worst!r}, outside (0, {self.r_max}]"
                )
        return self.eval_log(np.log(arr))

    def extended(self, delta: float) -> float:
        """``omega(delta)``, extended past the domain as
        ``ceil(delta / r_max) * omega(r_max)`` and by 0 at ``delta <= 0``."""
        if delta <= 0.0:
            return 0.0
        if not delta > self.r_max:  # zero's r_max is inf; eval rejects NaN
            return float(self.eval(delta))
        return math.ceil(delta / self.r_max) * float(self.eval(self.r_max))

    def eval_log(self, log_r):
        """Evaluate at ``r = exp(log_r)`` without forming ``r``.

        This is the entry point for extreme depths (say ``r = lam**2000``)
        where the radius itself underflows double precision but the modulus
        value is perfectly representable.
        """
        arr = np.asarray(log_r, dtype=float)
        log_cap = math.log(self.r_max)
        if arr.size:
            bad = np.isnan(arr) | (arr > log_cap + 1e-12)
            if np.any(bad):
                worst = arr[np.asarray(bad)].flat[0]
                raise ModulusDomainError(
                    f"modulus evaluated at log r={worst!r}, above log r_max={log_cap}"
                )
        if self.family == "power":
            out = np.exp(self.exponent * arr)
        elif self.family == "log_power":
            out = np.power(-np.minimum(arr, -1e-16), -self.exponent)
        else:
            out = np.zeros_like(arr)
        if np.ndim(log_r) == 0:
            return float(out)
        return out


def power(gamma: float) -> Modulus:
    return Modulus("power", float(gamma))


def log_power(p: float) -> Modulus:
    return Modulus("log_power", float(p))


def zero_modulus() -> Modulus:
    return Modulus("zero")


def dini_integral(omega: Modulus, log_t0: float | None = None) -> float:
    """Integrate ``omega(t)/t`` over ``(0, t0]``, ``t0 = exp(log_t0)``;
    ``math.inf`` exactly when the integral diverges.

    ``log_t0`` defaults to ``log r_max``, or to 0 when ``r_max`` is
    infinite.  Every family has a closed antiderivative in ``x = ln t``,
    where the integrand is ``omega(e^x)``, so the result stays meaningful
    at depths where ``t0`` itself would underflow.
    """
    log_cap = math.log(omega.r_max)
    if log_t0 is None:
        log_t0 = min(log_cap, 0.0)
    if not (math.isfinite(log_t0) and log_t0 <= log_cap + 1e-12):
        raise ModulusDomainError(f"log_t0={log_t0} above log r_max={log_cap}")
    log_t0 = min(log_t0, log_cap)

    p = omega.exponent
    if omega.family == "power":
        return math.exp(p * log_t0) / p
    if omega.family == "log_power":
        return (-log_t0) ** (1.0 - p) / (p - 1.0) if p > 1.0 else math.inf
    return 0.0


def doubling_check(omega: Modulus) -> bool:
    """Check ``omega(2r) <= 2 omega(r)`` on a 100-point geometric scan of the domain."""
    r_hi = min(omega.r_max, 1.0)
    r = np.geomspace(r_hi * 2.0 ** -50, r_hi / 2.0, 100)
    return bool(np.all(omega.eval(2.0 * r) <= 2.0 * omega.eval(r) * (1.0 + 1e-12)))


def dini_tail_sum(omega: Modulus, lam: float, k0: int) -> tuple[float, float]:
    """Sum ``omega(lam**i)`` for ``i >= k0`` next to its integral bound.

    Returns ``(tail_sum, bound)`` where ``bound`` is
    ``dini_integral(omega, ln lam**(k0-1)) / ln(1/lam)``.  For a non-Dini modulus
    both entries are ``inf``.  Terms beyond a direct-summation window are
    picked up by a midpoint Euler-Maclaurin remainder, expressed through
    :func:`dini_integral` at the matching depth.
    """
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    k0 = int(k0)
    if k0 < 1:
        raise ValueError(f"k0 must be a positive integer, got {k0}")
    upper = lam ** (k0 - 1)
    if not 0.0 < upper <= omega.r_max * (1.0 + 1e-12):
        raise ModulusDomainError(
            f"lam**(k0-1)={upper} outside the modulus domain (0, {omega.r_max}]"
        )
    log_lam = math.log(lam)
    log_inv_lam = -log_lam

    # Direct summation in log-radius space, then a midpoint Euler-Maclaurin
    # remainder for what is left of the series.
    total = 0.0
    converged = False
    i = k0
    stop = k0 + 2000
    while i < stop:
        hi = min(i + 256, stop)
        terms = omega.eval_log(np.arange(i, hi, dtype=float) * log_lam)
        total += float(np.sum(terms))
        i = hi
        if terms[-1] <= 1e-16 * max(total, 1e-300):
            converged = True
            break
    if not converged:
        total += dini_integral(omega, log_t0=(i - 0.5) * log_lam) / log_inv_lam
    return total, dini_integral(omega, math.log(upper)) / log_inv_lam
