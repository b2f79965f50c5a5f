from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from regprobe import fields
from regprobe.errors import FieldValidationError
from regprobe.manufactured import _BUILDERS, get_problem
from regprobe.modulus import zero_modulus


def test_field_constructor_validation():
    problem = get_problem("zero_case")
    with pytest.raises(FieldValidationError):
        dataclasses.replace(problem, ellipticity=1.5)
    with pytest.raises(FieldValidationError):
        dataclasses.replace(problem, drift_bound=-1.0)


def test_constant_field_checks_its_shapes():
    with pytest.raises(FieldValidationError, match="2x2"):
        fields.constant_field(np.eye(3))
    with pytest.raises(FieldValidationError, match="two entries"):
        fields.constant_field(np.eye(2), (1.0, 0.0, 0.0))
    field = fields.constant_field([[2.0, 0.5], [0.5, 1.0]], (0.3, -0.1))
    pts = np.zeros((3, 2))
    assert np.array_equal(field.eval_a(pts), np.tile([[2.0, 0.5], [0.5, 1.0]], (3, 1, 1)))
    assert np.array_equal(field.eval_b(pts), np.tile([0.3, -0.1], (3, 1)))


def polar_integral(g, r, nr=1000, ntheta=1000):
    # midpoint product rule in (radius, angle); the reference oracle for ball
    # integrals in this file
    rr = (np.arange(nr) + 0.5) * (r / nr)
    tt = (np.arange(ntheta) + 0.5) * (2.0 * np.pi / ntheta)
    rg, tg = np.meshgrid(rr, tt, indexing="ij")
    pts = np.stack([(rg * np.cos(tg)).ravel(), (rg * np.sin(tg)).ravel()], axis=1)
    vals = np.asarray(g(pts)).reshape(nr, ntheta)
    return float(np.sum(vals * rg) * (r / nr) * (2.0 * np.pi / ntheta))


def random_points(count, seed):
    # uniform in B_1
    rng = np.random.default_rng(seed)
    rad = np.sqrt(rng.random(count))
    ang = 2.0 * np.pi * rng.random(count)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def rayleigh_range(field, count, seed=0):
    # smallest and largest xi . a(x) xi over random x in B_1 and unit xi
    pts = random_points(count, seed)
    xi_ang = 2.0 * np.pi * np.random.default_rng(seed + 1).random(count)
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
    # every bundled problem has a = I, constant in x, which is what makes
    # its nu = 0 and zero omega_a exact
    pts = random_points(256, seed=2)
    for name in sorted(_BUILDERS):
        problem = get_problem(name)
        lo, hi = rayleigh_range(problem.field, 256)
        assert lo >= problem.ellipticity * (1.0 - 1e-12), name
        assert hi <= (1.0 / problem.ellipticity) * (1.0 + 1e-12), name
        assert lo == pytest.approx(1.0, abs=1e-12), name
        assert hi == pytest.approx(1.0, abs=1e-12), name
        a = problem.field.eval_a(pts)
        assert np.array_equal(a, np.broadcast_to(a[0], a.shape)), name
        assert problem.nu == 0.0 and problem.omega_a == zero_modulus(), name


def test_drift_norm_consistency():
    # the declared drift_bound is what feeds the ladder's lambda1; tau is
    # the sup of |b|, and a b constant in x has a zero omega_b
    pts = random_points(256, seed=2)
    for name in sorted(_BUILDERS):
        problem = get_problem(name)
        total = drift_norm_total(problem.field)
        assert total == pytest.approx(problem.drift_bound, rel=1e-3), name
        assert total <= problem.drift_bound * (1.0 + 1e-3), name
        b = problem.field.eval_b(pts)
        assert np.array_equal(b, np.broadcast_to(b[0], b.shape)), name
        assert float(np.max(np.hypot(b[:, 0], b[:, 1]))) == pytest.approx(
            problem.tau, rel=1e-12, abs=0.0), name
        assert problem.omega_b == zero_modulus(), name
