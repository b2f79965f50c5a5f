from __future__ import annotations

import math

import numpy as np
import pytest

from regprobe import fields
from regprobe.errors import (
    ExponentError,
    FieldValidationError,
    MalformedIdError,
    RegistryError,
)


def test_field_constructor_validation():
    zero_b = lambda pts: np.zeros((len(pts), 2))
    with pytest.raises(FieldValidationError):
        fields.CoefficientField(a=fields._identity_matrix_field, b=zero_b,
                                ellipticity=1.5, drift_bound=0.0, q=4.0)
    with pytest.raises(ExponentError):
        fields.CoefficientField(a=fields._identity_matrix_field, b=zero_b,
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
    field = fields.make_field("identity")
    lo, hi = rayleigh_range(field, 256)
    assert lo >= field.ellipticity * (1.0 - 1e-12)
    assert hi <= (1.0 / field.ellipticity) * (1.0 + 1e-12)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_drift_norm_consistency():
    field = fields.make_field("identity", "constant:0.3,0.4", q=4.0)
    total = drift_norm_total(field)
    assert total == pytest.approx(field.drift_bound, rel=1e-3)
    assert total <= field.drift_bound * (1.0 + 1e-3)

    spike = fields.make_field("identity", "lq_spike:4")
    assert spike.q == 4.0
    total = drift_norm_total(spike)
    assert total == pytest.approx(spike.drift_bound, rel=2e-2)


def test_registry_ids():
    f = fields.make_field("radial_lipschitz:0.5", "constant:1,0", q=4.0)
    assert f.ellipticity == pytest.approx(1.0 / 1.5)
    assert f.drift_bound == pytest.approx(math.pi ** 0.25)

    f = fields.make_field("dini_log:2")
    assert f.ellipticity == pytest.approx(1.0 / 1.25)

    nl = fields.parse_nonlinearity("const:-2.5")
    assert float(nl.eval(np.zeros((3, 2)), 7.0)[0]) == -2.5

    # a known id with malformed parameters raises MalformedIdError (exit 2)
    for bad in ["identity:1", "radial_lipschitz:", "radial_lipschitz:x",
                "radial_lipschitz:inf", "radial_lipschitz:-1", "dini_log:nan"]:
        with pytest.raises(MalformedIdError):
            fields.parse_coefficients(bad)
    for bad in ["constant:nan,0", "constant:inf,0"]:
        with pytest.raises(MalformedIdError):
            fields.make_field("identity", bad)
    for bad in ["zero:1", "constant:1", "constant:a,b"]:
        with pytest.raises(MalformedIdError):
            fields.parse_drift(bad, 4.0)
    for bad in ["sqrt_dini:1", "const:", "from_manufactured:"]:
        with pytest.raises(MalformedIdError):
            fields.parse_nonlinearity(bad)
    # an unknown id raises a plain RegistryError (exit 3)
    for parse, bad in ((fields.parse_coefficients, "mystery"),
                       (lambda i: fields.parse_drift(i, 4.0), "spiral"),
                       (fields.parse_nonlinearity, "unknown"),
                       (fields.parse_nonlinearity, "from_manufactured:bogus")):
        with pytest.raises(RegistryError) as info:
            parse(bad)
        assert not isinstance(info.value, MalformedIdError)
