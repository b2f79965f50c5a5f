from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special

from regprobe import modulus
from regprobe.errors import ModulusDomainError


def test_power_eval_and_domain():
    om = modulus.power(0.5)
    assert om.eval(0.25) == pytest.approx(0.5, abs=1e-15)
    assert om.r_max == 1.0
    with pytest.raises(ModulusDomainError):
        om.eval(1.5)
    with pytest.raises(ModulusDomainError):
        om.eval(0.0)
    with pytest.raises(ModulusDomainError):
        om.eval(-0.1)
    vec = om.eval(np.array([0.01, 0.04, 1.0]))
    assert np.allclose(vec, [0.1, 0.2, 1.0])


def test_log_family_defaults():
    om = modulus.log_power(2.0)
    assert om.r_max == pytest.approx(math.exp(-2.0))
    assert om.eval(math.exp(-4.0)) == pytest.approx(1.0 / 16.0)
    # 1/ln(1/r) is the log_power family at p = 1
    li = modulus.log_power(1.0)
    assert li.r_max == pytest.approx(math.exp(-1.0))
    assert li.eval(math.exp(-5.0)) == pytest.approx(0.2)


def test_exponent_is_checked_and_fixes_the_domain():
    for build, exponent in ((modulus.power, 0.0), (modulus.power, math.nan),
                            (modulus.log_power, -1.0),
                            (modulus.log_power, math.inf)):
        with pytest.raises(ModulusDomainError):
            build(exponent)
    assert modulus.power(0.5).r_max == 1.0
    assert modulus.log_power(1.5).r_max == math.exp(-1.5)
    assert modulus.zero_modulus().r_max == math.inf


def test_extended_reads_the_modulus_past_its_domain():
    for om in (modulus.power(0.5), modulus.log_power(1.0),
               modulus.log_power(2.0), modulus.zero_modulus()):
        assert om.extended(0.0) == om.extended(-1.0) == 0.0
        for d in min(om.r_max, 1.0) * np.array([1e-9, 0.3, 1.0]):
            assert om.extended(d) == om.eval(d)
        with pytest.raises(ModulusDomainError):
            om.extended(math.nan)
    # past r_max = 1/e, ceil(delta e) copies of omega(1/e) = 1: nondini_c11's
    # rung-0 phi_scale_k and phi_u_k
    assert modulus.log_power(1.0).extended(1.0) == 3.0
    assert modulus.log_power(1.0).extended(1.108759204455311) == 4.0
    assert modulus.power(0.5).extended(2.5) == 3.0
    assert modulus.zero_modulus().extended(1e300) == 0.0


def test_monotone_on_geometric_grid():
    cases = [
        modulus.power(0.3),
        modulus.power(0.5),
        modulus.power(1.0),
        modulus.log_power(2.0),
        modulus.log_power(1.0),
    ]
    for om in cases:
        grid = np.geomspace(om.r_max * 1e-9, om.r_max, 64)
        vals = om.eval(grid)
        assert np.all(np.diff(vals) >= -1e-15), repr(om)
        assert np.all(vals >= 0.0)


def test_dini_integral_sqrt():
    assert modulus.dini_integral(modulus.power(0.5)) == pytest.approx(2.0, abs=1e-6)


def test_dini_integral_linear():
    assert modulus.dini_integral(modulus.power(1.0)) == pytest.approx(1.0, abs=1e-9)


def test_dini_integral_log_inverse_diverges():
    li = modulus.log_power(1.0)
    assert math.isinf(modulus.dini_integral(li, -1.0))


def test_dini_integral_log_power_two():
    # integral of (ln 1/t)^-2 / t equals 1/ln(1/t0), here t0 = e^-2
    assert modulus.dini_integral(modulus.log_power(2.0), -2.0) == pytest.approx(
        0.5, abs=1e-8)


@pytest.mark.parametrize("om", [
    modulus.power(0.3),
    modulus.power(0.5),
    modulus.power(1.0),
    modulus.log_power(2.0),
])
def test_dini_integral_additive_in_t0(om):
    lo = om.r_max * 0.2
    hi = om.r_max
    i_lo = modulus.dini_integral(om, math.log(lo))
    i_hi = modulus.dini_integral(om, math.log(hi))
    band, err = integrate.quad(lambda t: om.eval(t) / t, lo, hi,
                               epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert i_hi - i_lo == pytest.approx(band, abs=1e-9)
    assert i_hi >= i_lo - 1e-9


def test_dini_integral_monotone_in_t0():
    om = modulus.power(0.5)
    t0s = np.geomspace(1e-4, 1.0, 9)
    vals = [modulus.dini_integral(om, math.log(t)) for t in t0s]
    assert np.all(np.diff(vals) >= -1e-9)


def test_doubling_check():
    assert modulus.doubling_check(modulus.power(0.5))
    assert modulus.doubling_check(modulus.power(1.0))
    assert modulus.doubling_check(modulus.log_power(1.0))
    assert modulus.doubling_check(modulus.log_power(2.0))
    assert not modulus.doubling_check(modulus.power(2.0))


def test_dini_tail_sum_linear_quarter():
    s, b = modulus.dini_tail_sum(modulus.power(1.0), 0.25, 1)
    assert s == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert b == pytest.approx(1.0 / math.log(4.0), abs=1e-9)
    assert s <= b


def test_dini_tail_sum_sqrt_quarter():
    s, b = modulus.dini_tail_sum(modulus.power(0.5), 0.25, 1)
    assert s == pytest.approx(1.0, abs=1e-10)
    assert b == pytest.approx(2.0 / math.log(4.0), abs=1e-9)
    assert s <= b


def test_dini_tail_sum_linear_fifth_k2():
    s, b = modulus.dini_tail_sum(modulus.power(1.0), 0.2, 2)
    assert s == pytest.approx(0.05, abs=1e-10)
    assert b == pytest.approx(0.2 / math.log(5.0), abs=1e-9)
    assert s <= b


def test_dini_tail_sum_log_power_matches_series():
    # terms are (i ln(1/lam))^-2, so the series is trigamma(k0) / ln(1/lam)^2
    lam = 0.25
    k0 = 3
    om = modulus.log_power(2.0)
    s, b = modulus.dini_tail_sum(om, lam, k0)
    exact = float(special.polygamma(1, k0)) / math.log(1.0 / lam) ** 2
    assert s == pytest.approx(exact, rel=1e-9)
    assert s <= b


def test_dini_tail_sum_sweep_bound_holds():
    families = [
        modulus.power(0.3),
        modulus.power(0.5),
        modulus.power(1.0),
        modulus.log_power(2.0),
        modulus.log_power(1.0),
    ]
    checked = 0
    for om in families:
        for lam in (0.125, 0.2, 0.25):
            for k0 in range(1, 7):
                if lam ** (k0 - 1) > om.r_max * (1.0 + 1e-12):
                    with pytest.raises(ModulusDomainError):
                        modulus.dini_tail_sum(om, lam, k0)
                    continue
                s, b = modulus.dini_tail_sum(om, lam, k0)
                assert s <= b * (1.0 + 1e-12), (repr(om), lam, k0)
                if om != modulus.log_power(1.0):  # every one but it is Dini
                    assert math.isfinite(s) and math.isfinite(b)
                    assert 0.0 < s
                checked += 1
    assert checked > 40


def test_dini_tail_sum_validates_inputs():
    om = modulus.power(1.0)
    with pytest.raises(ValueError):
        modulus.dini_tail_sum(om, 1.5, 1)
    with pytest.raises(ValueError):
        modulus.dini_tail_sum(om, 0.25, 0)
    # lam**(k0-1) underflows to 0.0
    with pytest.raises(ModulusDomainError):
        modulus.dini_tail_sum(om, 0.2, 500)


def test_zero_modulus():
    om = modulus.zero_modulus()
    assert om.eval(1e-8) == 0.0
    assert om.eval(17.0) == 0.0
    assert modulus.dini_integral(om) == 0.0
    assert modulus.doubling_check(om)


@pytest.mark.parametrize("om", [
    modulus.power(0.05), modulus.power(0.5), modulus.power(3.0),
    modulus.log_power(1.5), modulus.log_power(2.0), modulus.log_power(3.0),
], ids=["power:0.05", "power:0.5", "power:3", "log_power:1.5", "log_power:2",
        "log_power:3"])
@pytest.mark.parametrize("frac", [1.0, 0.3, 1e-3])
def test_dini_integral_matches_quadrature(om, frac):
    # the integral of omega(t)/t over (0, t0] is that of omega(e^x) over
    # x < ln t0
    oracle = integrate.quad(om.eval_log, -math.inf, math.log(frac * om.r_max),
                            epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert modulus.dini_integral(om, math.log(frac * om.r_max)) == pytest.approx(
        oracle, rel=1e-12)


@pytest.mark.parametrize("p", [1.0001, 1.01])
def test_dini_integral_near_the_threshold_is_finite(p):
    # at t0 = r_max = e^-p the integral of (ln 1/t)^-p / t is p**(1-p)/(p-1)
    value = modulus.dini_integral(modulus.log_power(p))
    assert value == pytest.approx(p ** (1.0 - p) / (p - 1.0), rel=1e-12)


def test_dini_integral_at_the_threshold_diverges():
    assert math.isinf(modulus.dini_integral(modulus.log_power(1.0)))


def test_dini_integral_at_depths_where_the_radius_underflows():
    # exp(-1e4) and exp(-2000) are 0.0, yet the integrals are exact in ln t0
    assert math.exp(-2000.0) == 0.0
    assert modulus.dini_integral(modulus.log_power(2.0), -1e4) == pytest.approx(
        1e-4, rel=1e-15)
    assert math.isinf(modulus.dini_integral(modulus.log_power(1.0), -1e4))
    assert modulus.dini_integral(modulus.power(0.5), -2000.0) == 0.0
    om = modulus.power(0.5)
    assert modulus.dini_integral(om, 1e-13) == modulus.dini_integral(om)
    for bad in (2e-12, math.nan, math.inf, -math.inf):
        with pytest.raises(ModulusDomainError):
            modulus.dini_integral(om, bad)
    li = modulus.log_power(2.0)
    with pytest.raises(ModulusDomainError):
        modulus.dini_integral(li, math.log(li.r_max) + 2e-12)
