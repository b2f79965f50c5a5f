from __future__ import annotations

import numpy as np
import pytest

from regprobe import fields
from regprobe.errors import ExponentError, FieldValidationError
from regprobe.manufactured import get_problem


def test_field_constructor_validation():
    identity = lambda pts: np.tile(np.eye(2), (len(pts), 1, 1))
    zero_b = lambda pts: np.zeros((len(pts), 2))
    with pytest.raises(FieldValidationError):
        fields.CoefficientField(a=identity, b=zero_b,
                                ellipticity=1.5, drift_bound=0.0, q=4.0)
    with pytest.raises(ExponentError):
        fields.CoefficientField(a=identity, b=zero_b,
                                ellipticity=1.0, drift_bound=0.0, q=2.0)


def polar_integral(g, r, nr=1000, ntheta=1000):
    # midpoint product rule in (radius, angle); the reference oracle for ball
    # integrals in this file
    rr = (np.arange(nr) + 0.5) * (r / nr)
    tt = (np.arange(ntheta) + 0.5) * (2.0 * np.pi / ntheta)
    rg, tg = np.meshgrid(rr, tt, indexing="ij")
    pts = np.stack([(rg * np.cos(tg)).ravel(), (rg * np.sin(tg)).ravel()], axis=1)
    vals = np.asarray(g(pts)).reshape(nr, ntheta)
    return float(np.sum(vals * rg) * (r / nr) * (2.0 * np.pi / ntheta))


def rayleigh_range(field, count, seed=0):
    # smallest and largest xi . a(x) xi over random x in B_1 and unit xi
    rng = np.random.default_rng(seed)
    rad = np.sqrt(rng.random(count))
    ang = 2.0 * np.pi * rng.random(count)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    xi_ang = 2.0 * np.pi * rng.random(count)
    xi = np.stack([np.cos(xi_ang), np.sin(xi_ang)], axis=1)
    quot = np.einsum("ni,nij,nj->n", xi, field.eval_a(pts), xi)
    return float(quot.min()), float(quot.max())


def drift_norm_total(field):
    # sum of the component L^q(B_1) norms of the drift
    return sum(polar_integral(lambda pts, i=i: np.abs(field.eval_b(pts)[:, i]) ** field.q,
                              1.0) ** (1.0 / field.q)
               for i in range(2))


def test_check_ellipticity_identity():
    field = get_problem("drift_c1").field
    lo, hi = rayleigh_range(field, 256)
    assert lo >= field.ellipticity * (1.0 - 1e-12)
    assert hi <= (1.0 / field.ellipticity) * (1.0 + 1e-12)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_drift_norm_consistency():
    # the declared drift_bound is what feeds the ladder's lambda1
    for name in ("drift_c1", "cubic_c11"):
        field = get_problem(name).field
        total = drift_norm_total(field)
        assert total == pytest.approx(field.drift_bound, rel=1e-3)
        assert total <= field.drift_bound * (1.0 + 1e-3)
