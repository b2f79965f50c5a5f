from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special

from regprobe import modulus
from regprobe.errors import MalformedIdError, ModulusDomainError, RegistryError


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
    li = modulus.log_inverse()
    assert li.r_max == pytest.approx(math.exp(-1.0))
    assert li.eval(math.exp(-5.0)) == pytest.approx(0.2)


def test_monotone_on_geometric_grid():
    cases = [
        modulus.power(0.3),
        modulus.power(0.5),
        modulus.power(1.0),
        modulus.log_power(2.0),
        modulus.log_inverse(),
    ]
    for om in cases:
        grid = np.geomspace(om.r_max * 1e-9, om.r_max, 64)
        vals = om.eval(grid)
        assert np.all(np.diff(vals) >= -1e-15), repr(om)
        assert np.all(vals >= 0.0)


def test_dini_integral_sqrt():
    rep = modulus.dini_integral(modulus.power(0.5))
    assert rep.classification == "dini"
    assert rep.integral_value == pytest.approx(2.0, abs=1e-6)


def test_dini_integral_linear():
    rep = modulus.dini_integral(modulus.power(1.0))
    assert rep.classification == "dini"
    assert rep.integral_value == pytest.approx(1.0, abs=1e-9)


def test_dini_integral_log_inverse_diverges():
    rep = modulus.dini_integral(modulus.log_inverse(), t0=math.exp(-1.0))
    assert rep.classification == "non_dini"
    assert math.isinf(rep.integral_value)


def test_dini_integral_log_power_two():
    # integral of (ln 1/t)^-2 / t equals 1/ln(1/t0)
    t0 = math.exp(-2.0)
    rep = modulus.dini_integral(modulus.log_power(2.0), t0=t0)
    assert rep.classification == "dini"
    assert rep.integral_value == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("om", [
    modulus.power(0.3),
    modulus.power(0.5),
    modulus.power(1.0),
    modulus.log_power(2.0),
])
def test_dini_integral_additive_in_t0(om):
    lo = om.r_max * 0.2
    hi = om.r_max
    i_lo = modulus.dini_integral(om, t0=lo).integral_value
    i_hi = modulus.dini_integral(om, t0=hi).integral_value
    band, err = integrate.quad(lambda t: om.eval(t) / t, lo, hi,
                               epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert i_hi - i_lo == pytest.approx(band, abs=1e-9)
    assert i_hi >= i_lo - 1e-9


def test_dini_integral_monotone_in_t0():
    om = modulus.power(0.5)
    t0s = np.geomspace(1e-4, 1.0, 9)
    vals = [modulus.dini_integral(om, t0=float(t)).integral_value for t in t0s]
    assert np.all(np.diff(vals) >= -1e-9)


def test_doubling_check():
    assert modulus.doubling_check(modulus.power(0.5))
    assert modulus.doubling_check(modulus.power(1.0))
    assert modulus.doubling_check(modulus.log_inverse())
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
        modulus.log_inverse(),
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
                if om.family != "log_inverse":
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


def test_zero_modulus():
    om = modulus.zero_modulus()
    assert om.eval(1e-8) == 0.0
    assert om.eval(17.0) == 0.0
    rep = modulus.dini_integral(om)
    assert rep.classification == "dini"
    assert rep.integral_value == 0.0
    assert modulus.doubling_check(om)


def test_tabulated_interpolation_and_integral(tmp_path):
    r = np.geomspace(1e-8, 1.0, 200)
    w = np.sqrt(r)
    path = tmp_path / "sqrt_table.csv"
    lines = ["r,omega"] + [f"{ri:.17e},{wi:.17e}" for ri, wi in zip(r, w)]
    path.write_text("\n".join(lines) + "\n")

    om = modulus.parse_modulus(f"table:{path}")
    assert om.family == "tabulated"
    assert om.r_max == pytest.approx(1.0)
    probe = np.geomspace(1e-7, 0.9, 50)
    assert np.allclose(om.eval(probe), np.sqrt(probe), rtol=1e-10)
    # below the table the first-segment slope takes over, which is the same power law
    assert om.eval(1e-12) == pytest.approx(1e-6, rel=1e-8)

    rep = modulus.dini_integral(om)
    assert rep.classification == "dini"
    assert rep.integral_value == pytest.approx(2.0, abs=1e-6)
    assert modulus.doubling_check(om)


def test_tabulated_rejects_bad_tables(tmp_path):
    bad = tmp_path / "bad.csv"
    for rows in ("0.5,0.7\n0.25,0.5\n", "nan,0.3\n0.1,0.4\n0.5,0.7\n",
                 "0.1,0.4\n0.5,inf\n", "0.1,0.4\ninf,0.7\n"):
        bad.write_text("r,omega\n" + rows)
        with pytest.raises(RegistryError):
            modulus.from_table_file(bad)
    for r, w in (([0.1, 0.2], [0.5, 0.5]), ([math.nan, 0.2], [0.5, 0.6]),
                 ([0.1, 0.2], [0.5, math.nan]), ([0.1, math.inf], [0.5, 0.6])):
        with pytest.raises(ModulusDomainError):
            modulus.tabulated(r, w)


def test_parse_modulus_ids(tmp_path):
    om = modulus.parse_modulus("power:0.5")
    assert om.family == "power" and om.params["gamma"] == 0.5
    om = modulus.parse_modulus("log_power:2")
    assert om.family == "log_power" and om.r_max == pytest.approx(math.exp(-2.0))
    assert modulus.parse_modulus("log_inverse").family == "log_inverse"
    assert modulus.parse_modulus("zero").family == "zero"
    # a known id with a malformed parameter or table (exit 2)
    table = tmp_path / "decreasing.csv"
    table.write_text("r,omega\n0.5,0.7\n0.25,0.5\n")
    for bad in ["power", "power:x", "log_inverse:3", "table:", "power:-1",
                "power:nan", "zero:1", f"table:{table}"]:
        with pytest.raises(MalformedIdError):
            modulus.parse_modulus(bad)
    # an unknown id or a table that cannot be read (exit 3)
    for bad in ["nope:1", "table:/definitely/not/here.csv", f"table:{tmp_path}"]:
        with pytest.raises(RegistryError) as info:
            modulus.parse_modulus(bad)
        assert not isinstance(info.value, MalformedIdError)


def _serial_dini_integral(omega, log_t0):
    """The band-by-band loop ``dini_integral`` used before it was vectorized,
    kept as the reference its bits are checked against."""
    x0 = -log_t0
    dx = math.log(2.0)
    band_vals = []
    total = 0.0
    converged = False
    for start in range(0, 4096, 256):
        count = min(256, 4096 - start)
        lefts = x0 + (start + np.arange(count)) * dx
        whole = modulus._gl_block_log(omega, lefts, dx)
        halves = (modulus._gl_block_log(omega, lefts, 0.5 * dx)
                  + modulus._gl_block_log(omega, lefts + 0.5 * dx, 0.5 * dx))
        accepted = (np.abs(halves - whole)
                    <= 1e-14 * np.maximum(np.abs(halves), 1e-300))
        for i in range(count):
            j = start + i
            if accepted[i]:
                val = float(halves[i])
            else:
                val = modulus._band_integral_log(omega, x0 + j * dx,
                                                 x0 + (j + 1) * dx)
            if not math.isfinite(val):
                raise ModulusDomainError(
                    f"modulus produced non-finite samples near t={math.exp(-x0 - j * dx)!r}"
                )
            band_vals.append(val)
            total += val
            if j >= 8 and val <= 1e-15 * max(total, 1e-300):
                converged = True
                break
        if converged:
            break

    if converged:
        return modulus.DiniReport(float(total), "dini")
    last = band_vals[-4:]
    slow = min(last) > 0.0 and all(
        last[i + 1] / last[i] > 0.95 for i in range(len(last) - 1)
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
        return modulus.DiniReport(math.inf, "non_dini")
    if slow and math.isfinite(p_fit):
        x_end = x0 + len(band_vals) * dx
        tail = c_fit * x_end ** (1.0 - p_fit) / (p_fit - 1.0)
    elif len(band_vals) >= 5 and band_vals[-5] > 0.0:
        rho = min((band_vals[-1] / band_vals[-5]) ** 0.25, 0.999)
        tail = band_vals[-1] * rho / (1.0 - rho)
    else:
        tail = 0.0
    return modulus.DiniReport(float(total + tail), "dini")


class _Poisoned(modulus.Modulus):
    """log_inverse with one infinite sample at ``x = ln(1/r) = spike`` and,
    when ``jump`` is set, a factor of 2 on the samples beyond ``x = jump``."""

    spike = math.inf
    jump = math.inf

    def eval_log(self, log_r):
        x = -np.asarray(log_r, dtype=float)
        out = super().eval_log(log_r) * np.where(x > self.jump, 2.0, 1.0)
        return np.where(np.abs(x - self.spike) < 1e-9, np.inf, out)


def _poisoned(band, spike, jump=None):
    # band ``band`` of dini_integral(log_t0=-1) spans [xa, xa + ln 2]
    om = _Poisoned("log_inverse", {}, math.exp(-1.0))
    xa = 1.0 + band * math.log(2.0)
    object.__setattr__(om, "spike", xa + spike * math.log(2.0))
    if jump is not None:
        object.__setattr__(om, "jump", xa + jump * math.log(2.0))
    return om


def _refinements(monkeypatch):
    calls = []
    refine = modulus._band_integral_log

    def counted(omega, xa, xb, depth=0):
        if depth == 0:
            calls.append((xa, xb))
        return refine(omega, xa, xb, depth)

    monkeypatch.setattr(modulus, "_band_integral_log", counted)
    return calls


def test_dini_integral_matches_the_serial_band_loop(monkeypatch):
    r = np.geomspace(1e-6, 0.5, 40)
    table = modulus.tabulated(r, np.sqrt(r) * (1.0 + 0.2 * np.sin(np.log(r))))
    moduli = [modulus.parse_modulus(i) for i in (
        "power:0.05", "power:0.5", "power:1.0", "power:3.0", "log_power:0.5",
        "log_power:1.0", "log_power:1.1", "log_power:2.0", "log_power:3.0",
        "log_inverse")] + [table]
    refinements = _refinements(monkeypatch)
    compared = 0
    for om in moduli:
        log_cap = math.log(om.r_max)
        depths = {log_cap}
        for lam in (0.125, 0.2, 0.5, 0.9):
            for k0 in (1, 3, 8):
                depths.add(min((k0 - 1) * math.log(lam), log_cap))
            depths.add((2000 - 0.5) * math.log(lam) if lam < 0.5 else -3000.0)
        for log_t0 in sorted(depths):
            refinements.clear()
            new = modulus.dini_integral(om, log_t0=log_t0)
            new_calls = list(refinements)
            refinements.clear()
            old = _serial_dini_integral(om, log_t0)
            assert repr(new) == repr(old), (repr(om), log_t0)
            assert new_calls == refinements, (repr(om), log_t0)
            compared += 1
    assert compared > 100


    # The spike sits on the centre node of a half band, where the block
    # quadrature meets it and accepts the band, or of an eighth band, where
    # only the refinement of a band made rough by the jump meets it.
    for om in (_poisoned(20, 0.25), _poisoned(20, 0.125, jump=0.8)):
        refinements.clear()
        with pytest.raises(ModulusDomainError) as serial:
            _serial_dini_integral(om, -1.0)
        serial_calls = list(refinements)
        refinements.clear()
        with pytest.raises(ModulusDomainError) as vectorized:
            modulus.dini_integral(om, log_t0=-1.0)
        assert "non-finite samples" in str(serial.value)
        assert str(vectorized.value) == str(serial.value)
        assert refinements == serial_calls


class _NanBelow(modulus.Modulus):
    """log_inverse returning NaN below r = e^-200."""

    def eval_log(self, log_r):
        out = super().eval_log(log_r)
        return np.where(-np.asarray(log_r, dtype=float) > 200.0, np.nan, out)


def test_band_refinement_stops_at_non_finite_samples(count_segment_quadratures):
    om = _NanBelow("log_inverse", {}, math.exp(-1.0))
    assert math.isnan(modulus._band_integral_log(om, 199.5, 199.5 + math.log(2.0)))
    assert len(count_segment_quadratures) == 3
    count_segment_quadratures.clear()
    with pytest.raises(ModulusDomainError, match="non-finite samples"):
        modulus.dini_integral(om, log_t0=-190.0)
    assert len(count_segment_quadratures) == 3
