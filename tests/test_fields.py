from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from regprobe import fields
from regprobe.errors import FieldValidationError
from regprobe.manufactured import get_problem


def test_field_constructor_validation():
    problem = get_problem("zero_case")
    with pytest.raises(FieldValidationError):
        dataclasses.replace(problem, ellipticity=1.5)
    with pytest.raises(FieldValidationError):
        dataclasses.replace(problem, drift_bound=-1.0)


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
    # sum of the component L^q(B_1) norms of the drift, q = DRIFT_Q
    q = fields.DRIFT_Q
    return sum(polar_integral(lambda pts, i=i: np.abs(field.eval_b(pts)[:, i]) ** q,
                              1.0) ** (1.0 / q)
               for i in range(2))


def test_check_ellipticity_identity():
    problem = get_problem("drift_c1")
    lo, hi = rayleigh_range(problem.field, 256)
    assert lo >= problem.ellipticity * (1.0 - 1e-12)
    assert hi <= (1.0 / problem.ellipticity) * (1.0 + 1e-12)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_drift_norm_consistency():
    # the declared drift_bound is what feeds the ladder's lambda1
    for name in ("drift_c1", "cubic_c11"):
        problem = get_problem(name)
        total = drift_norm_total(problem.field)
        assert total == pytest.approx(problem.drift_bound, rel=1e-3)
        assert total <= problem.drift_bound * (1.0 + 1e-3)
