"""Moduli of continuity and Dini-type summability checks.

A modulus here is a nondecreasing function ``omega`` on ``(0, r_max]`` with
``omega(0+) = 0``.  The built-in families are the ones the rest of the package
quantifies over: powers ``r**gamma``, inverse powers of the logarithm, and
tabulated data with log-linear interpolation.  The central question asked of a
modulus is whether ``omega(t)/t`` is integrable near zero, and how fast the
geometric sums ``sum_i omega(lam**i)`` decay.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import MalformedIdError, ModulusDomainError, RegistryError

_FAMILIES = ("power", "log_power", "log_inverse", "tabulated", "zero")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity from one of the built-in families.

    ``params`` holds the family parameters (``gamma`` for powers, ``p`` for
    log powers, node arrays for tabulated data).  Evaluation outside
    ``(0, r_max]`` raises :class:`ModulusDomainError`.
    """

    family: str
    params: Mapping[str, object] = dc_field(default_factory=dict)
    r_max: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise RegistryError(f"unknown modulus family {self.family!r}")
        if self.family != "zero":
            if not (self.r_max > 0.0):
                raise ModulusDomainError("r_max must be positive")
        if self.family == "power":
            gamma = float(self.params["gamma"])
            if not (gamma > 0.0 and math.isfinite(gamma)):
                raise ModulusDomainError(f"power modulus needs gamma > 0, got {gamma}")
        elif self.family in ("log_power", "log_inverse"):
            p = self._log_exponent()
            if not (p > 0.0 and math.isfinite(p)):
                raise ModulusDomainError(f"log_power modulus needs p > 0, got {p}")
            if not (self.r_max < 1.0):
                raise ModulusDomainError("log-family moduli need r_max < 1")
        elif self.family == "tabulated":
            r = np.asarray(self.params["r"], dtype=float)
            w = np.asarray(self.params["omega"], dtype=float)
            if r.ndim != 1 or r.shape != w.shape or r.size < 2:
                raise ModulusDomainError("tabulated modulus needs matching 1-d node arrays")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
                raise ModulusDomainError("tabulated nodes must be finite")
            if np.any(r <= 0.0) or np.any(w <= 0.0):
                raise ModulusDomainError("tabulated nodes must be positive")
            if np.any(np.diff(r) <= 0.0) or np.any(np.diff(w) <= 0.0):
                raise ModulusDomainError("tabulated nodes must be strictly increasing")
            object.__setattr__(self, "_log_r", np.log(r))
            object.__setattr__(self, "_log_w", np.log(w))

    def _log_exponent(self) -> float:
        if self.family == "log_inverse":
            return 1.0
        return float(self.params["p"])

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

    def eval_log(self, log_r):
        """Evaluate at ``r = exp(log_r)`` without forming ``r``.

        This is the entry point for extreme depths (say ``r = lam**2000``)
        where the radius itself underflows double precision but the modulus
        value is perfectly representable.
        """
        arr = np.asarray(log_r, dtype=float)
        log_cap = math.log(self.r_max) if math.isfinite(self.r_max) else math.inf
        if arr.size:
            bad = np.isnan(arr) | (arr > log_cap + 1e-12)
            if np.any(bad):
                worst = arr[np.asarray(bad)].flat[0]
                raise ModulusDomainError(
                    f"modulus evaluated at log r={worst!r}, above log r_max={log_cap}"
                )
        if self.family == "power":
            out = np.exp(float(self.params["gamma"]) * arr)
        elif self.family in ("log_power", "log_inverse"):
            out = np.power(-np.minimum(arr, -1e-16), -self._log_exponent())
        elif self.family == "tabulated":
            out = np.exp(self._interp_log(arr))
        else:
            out = np.zeros_like(arr)
        if np.ndim(log_r) == 0:
            return float(out)
        return out

    def _interp_log(self, lr):
        out = np.interp(lr, self._log_r, self._log_w)
        below = lr < self._log_r[0]
        if np.any(below):
            slope = (self._log_w[1] - self._log_w[0]) / (self._log_r[1] - self._log_r[0])
            out = np.where(below, self._log_w[0] + slope * (lr - self._log_r[0]), out)
        return out


def power(gamma: float) -> Modulus:
    return Modulus("power", {"gamma": float(gamma)}, 1.0)


def log_power(p: float) -> Modulus:
    p = float(p)
    return Modulus("log_power", {"p": p}, math.exp(-p))


def log_inverse() -> Modulus:
    return Modulus("log_inverse", {}, math.exp(-1.0))


def zero_modulus() -> Modulus:
    return Modulus("zero", {}, math.inf)


def tabulated(r: Sequence[float], omega: Sequence[float]) -> Modulus:
    params = {"r": tuple(float(v) for v in r),
              "omega": tuple(float(v) for v in omega)}
    return Modulus("tabulated", params, float(r[-1]))


def from_table_file(path) -> Modulus:
    """Load a tabulated modulus from a two-column UTF-8 CSV of (r, omega) rows.

    The first non-blank row is skipped as a header when it holds no digit.
    A file that cannot be read raises RegistryError; content that does not
    decode or does not make a valid table raises MalformedIdError.
    """
    path = Path(path)
    rows = []
    first = True
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            for rec in csv.reader(fh):
                if not any(cell.strip() for cell in rec):
                    continue
                try:
                    rows.append((float(rec[0]), float(rec[1])))
                except ValueError:
                    if not first or any(c.isdigit() for c in "".join(rec)):
                        raise MalformedIdError(f"non-numeric row {rec!r} in {path}")
                except IndexError:
                    raise MalformedIdError(f"short row {rec!r} in {path}")
                first = False
    except OSError as exc:
        raise RegistryError(f"cannot read table {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedIdError(f"bad table {path}: {exc}") from exc
    if len(rows) < 2:
        raise MalformedIdError(f"table {path} needs at least two numeric rows")
    r, w = zip(*rows)
    try:
        return tabulated(r, w)
    except ModulusDomainError as exc:
        raise MalformedIdError(f"bad table {path}: {exc}") from exc


def parse_modulus(modulus_id: str) -> Modulus:
    """Resolve a string identifier like ``power:0.5`` or ``table:/path.csv``."""
    name, _, arg = str(modulus_id).partition(":")
    try:
        if name == "power":
            return power(_registry_float(arg, modulus_id))
        if name == "log_power":
            return log_power(_registry_float(arg, modulus_id))
        if name == "log_inverse":
            if arg:
                raise MalformedIdError(f"log_inverse takes no parameter, got {modulus_id!r}")
            return log_inverse()
        if name == "zero":
            if arg:
                raise MalformedIdError(f"zero takes no parameter, got {modulus_id!r}")
            return zero_modulus()
        if name == "table":
            if not arg:
                raise MalformedIdError("table id needs a file path, e.g. table:data.csv")
            return from_table_file(arg)
    except ModulusDomainError as exc:
        raise MalformedIdError(f"bad modulus id {modulus_id!r}: {exc}") from exc
    raise RegistryError(f"unknown modulus id {modulus_id!r}")


def _registry_float(arg: str, full_id: str) -> float:
    try:
        return float(arg)
    except ValueError:
        raise MalformedIdError(f"bad numeric parameter in modulus id {full_id!r}") from None


@dataclass(frozen=True)
class DiniReport:
    """Result of integrating ``omega(t)/t`` down to zero.

    ``integral_value`` is ``math.inf`` when the integral diverges, in which
    case ``classification`` is ``"non_dini"``.
    """

    integral_value: float
    classification: str


def _gl_segment_log(omega: Modulus, xa: float, xb: float) -> float:
    # integral of omega(e^-x) dx over [xa, xb], which equals the integral of
    # omega(t)/t dt over the matching radius band
    mid = 0.5 * (xa + xb)
    half = 0.5 * (xb - xa)
    x = mid + half * _GL_NODES
    return float(half * np.dot(_GL_WEIGHTS, omega.eval_log(-x)))


def _gl_block_log(omega: Modulus, lefts: np.ndarray, width: float) -> np.ndarray:
    # one quadrature pass over many equal-width segments at once
    half = 0.5 * width
    x = (lefts + half)[:, None] + half * _GL_NODES[None, :]
    return half * (omega.eval_log(-x) @ _GL_WEIGHTS)


def _band_integral_log(omega: Modulus, xa: float, xb: float, depth: int = 0) -> float:
    whole = _gl_segment_log(omega, xa, xb)
    mid = 0.5 * (xa + xb)
    halves = _gl_segment_log(omega, xa, mid) + _gl_segment_log(omega, mid, xb)
    if not (math.isfinite(whole) and math.isfinite(halves)):
        return math.nan  # bisecting would not heal it; the caller reports it
    if depth >= 24 or abs(halves - whole) <= 1e-14 * max(abs(halves), 1e-300):
        return halves
    return (_band_integral_log(omega, xa, mid, depth + 1)
            + _band_integral_log(omega, mid, xb, depth + 1))


def _take_bands(band_vals: list, vals: np.ndarray, total: float, j0: int,
                x0: float, dx: float) -> tuple[float, bool]:
    """Append bands ``j0, j0 + 1, ...`` with values ``vals`` to ``band_vals``,
    stopping after the first band that no longer contributes.

    Returns the running total and whether the integral converged.  The
    running totals come from one cumulative sum seeded with ``total``,
    which adds in sequence, so they carry the bits of a band-by-band
    ``total += val``.  A non-finite band raises ModulusDomainError.
    """
    run = np.cumsum(np.concatenate(([total], vals)))[1:]
    bad = ~np.isfinite(vals)
    done = ((j0 + np.arange(len(vals)) >= 8)
            & (vals <= 1e-15 * np.maximum(run, 1e-300)))
    stops = np.flatnonzero(bad | done)
    if not stops.size:
        band_vals.extend(vals.tolist())
        return (float(run[-1]) if len(run) else total), False
    k = int(stops[0])
    if bad[k]:
        raise ModulusDomainError(
            f"modulus produced non-finite samples near t={math.exp(-x0 - (j0 + k) * dx)!r}"
        )
    band_vals.extend(vals[:k + 1].tolist())
    return float(run[k]), True


_DINI_BANDS = 4096
_DIVERGENCE_RATIO = 0.95


def dini_integral(omega: Modulus, t0: float | None = None, *,
                  log_t0: float | None = None) -> DiniReport:
    """Integrate ``omega(t)/t`` over ``(0, t0]`` by adaptive quadrature on
    geometric bands ``[t0/2**(j+1), t0/2**j]``.

    The substitution ``x = ln(1/t)`` turns the bands into equal intervals of
    width ``ln 2``, which is also what keeps the computation meaningful at
    depths where the radius itself would underflow (callers at such depths
    pass ``log_t0``).  Bands are accumulated until they stop contributing,
    at most ``_DINI_BANDS`` of them.  If the last band values shrink slower
    than ``_DIVERGENCE_RATIO`` per band (a logarithmic signature), a
    power-law fit in ``x`` decides between a genuinely divergent integral
    and a slowly convergent one, and supplies the tail in the latter case.
    """
    if log_t0 is None:
        if t0 is None:
            t0 = omega.r_max if math.isfinite(omega.r_max) else 1.0
        t0 = float(t0)
        if not (0.0 < t0 <= omega.r_max * (1.0 + 1e-12)):
            raise ModulusDomainError(f"t0={t0} outside (0, {omega.r_max}]")
        t0 = min(t0, omega.r_max)
        log_t0 = math.log(t0)
    else:
        log_cap = math.log(omega.r_max) if math.isfinite(omega.r_max) else math.inf
        if not (math.isfinite(log_t0) and log_t0 <= log_cap + 1e-12):
            raise ModulusDomainError(f"log_t0={log_t0} above log r_max={log_cap}")
        log_t0 = min(log_t0, log_cap)

    if omega.family == "zero":
        return DiniReport(0.0, "dini")

    x0 = -log_t0
    dx = math.log(2.0)
    band_vals: list[float] = []
    total = 0.0
    converged = False
    for start in range(0, _DINI_BANDS, 256):
        count = min(256, _DINI_BANDS - start)
        lefts = x0 + (start + np.arange(count)) * dx
        whole = _gl_block_log(omega, lefts, dx)
        halves = (_gl_block_log(omega, lefts, 0.5 * dx)
                  + _gl_block_log(omega, lefts + 0.5 * dx, 0.5 * dx))
        accepted = (np.abs(halves - whole)
                    <= 1e-14 * np.maximum(np.abs(halves), 1e-300))
        # Take the accepted bands in runs; a rejected band is refined only
        # once every band before it has been taken without stopping.
        i = 0
        for r in (*np.flatnonzero(~accepted).tolist(), count):
            total, converged = _take_bands(band_vals, halves[i:r], total,
                                           start + i, x0, dx)
            if converged or r == count:
                break
            j = start + r
            refined = _band_integral_log(omega, x0 + j * dx, x0 + (j + 1) * dx)
            total, converged = _take_bands(band_vals, np.array([refined]),
                                           total, j, x0, dx)
            if converged:
                break
            i = r + 1
        if converged:
            break

    if converged:
        return DiniReport(float(total), "dini")

    last = band_vals[-4:]
    slow = min(last) > 0.0 and all(
        last[i + 1] / last[i] > _DIVERGENCE_RATIO for i in range(len(last) - 1)
    )
    fit_n = min(16, len(band_vals))
    idx = np.arange(len(band_vals) - fit_n, len(band_vals))
    x_mid = x0 + (idx + 0.5) * dx
    vals = np.asarray(band_vals[-fit_n:], dtype=float)
    good = vals > 0.0
    if int(good.sum()) >= 4:
        slope, intercept = np.polyfit(np.log(x_mid[good]), np.log(vals[good] / dx), 1)
        p_fit = -float(slope)
        c_fit = math.exp(float(intercept))
    else:
        p_fit = math.inf
        c_fit = 0.0

    if slow and p_fit <= 1.02:
        return DiniReport(math.inf, "non_dini")
    if slow and math.isfinite(p_fit):
        x_end = x0 + len(band_vals) * dx
        tail = c_fit * x_end ** (1.0 - p_fit) / (p_fit - 1.0)
    elif len(band_vals) >= 5 and band_vals[-5] > 0.0:
        rho = min((band_vals[-1] / band_vals[-5]) ** 0.25, 0.999)
        tail = band_vals[-1] * rho / (1.0 - rho)
    else:
        tail = 0.0
    return DiniReport(float(total + tail), "dini")


def doubling_check(omega: Modulus) -> bool:
    """Check ``omega(2r) <= 2 omega(r)`` on a 100-point geometric scan of the domain."""
    r_hi = omega.r_max if math.isfinite(omega.r_max) else 1.0
    r = np.geomspace(r_hi * 2.0 ** -50, r_hi / 2.0, 100)
    return bool(np.all(omega.eval(2.0 * r) <= 2.0 * omega.eval(r) * (1.0 + 1e-12)))


def dini_tail_sum(omega: Modulus, lam: float, k0: int) -> tuple[float, float]:
    """Sum ``omega(lam**i)`` for ``i >= k0`` next to its integral bound.

    Returns ``(tail_sum, bound)`` where ``bound`` is
    ``dini_integral(omega, lam**(k0-1)) / ln(1/lam)``.  For a non-Dini modulus
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
    if upper > omega.r_max * (1.0 + 1e-12):
        raise ModulusDomainError(
            f"lam**(k0-1)={upper} exceeds the modulus domain bound {omega.r_max}"
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
        rep = dini_integral(omega, log_t0=(i - 0.5) * log_lam)
        if not math.isfinite(rep.integral_value):
            total = math.inf
        else:
            total += rep.integral_value / log_inv_lam

    bound_rep = dini_integral(omega, t0=upper)
    bound = bound_rep.integral_value / log_inv_lam
    return total, bound
