"""Multiscale probe tests.

Closed-form oracles throughout: harmonic replacements of quadratics are
known exactly, the constant-drift solution has a Bessel-series gradient at
the origin, and the cubic gap's single ladder step can be computed by hand
(the harmonic extension of x1^3 boundary data on the 3/4 circle has linear
part (9/64) x1, orthogonal to the cos(3 theta) mode on any centered disk).
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import iv

from regprobe import campanato, scenarios
from regprobe.campanato import (
    LAM,
    SUB_CELLS,
    SUP_CELLS,
    IterationTrace,
    QuadApprox,
    ScaleRecord,
    _gap_ratio,
    approximate,
    ball_sup,
    c1_probe,
    c11_probe,
    certificate,
    claim,
    comparison_operator,
    perturbation_sweep,
    recurrence_model,
    taylor_fit,
    trace_rows,
    trace_to_csv,
    verify_recurrence,
)
from regprobe.cli import main
from regprobe.elliptic import assemble, solve_dirichlet
from regprobe.errors import FieldValidationError, FitError
from regprobe.fields import constant_field
from regprobe.grid import DiscreteField, DiskGrid
from regprobe.manufactured import get_problem

def sampled_field(fn, grid=None):
    """fn on the nodes of ``grid``, by default the comparison grid."""
    grid = comparison_operator(np.eye(2)).grid if grid is None else grid
    return DiscreteField(grid, fn(grid.coords), "interior")


def node_sets(a0=np.eye(2)):
    """The node sets of a0's comparison build: the gap mask and nodes, the
    fit mask and the affine and quadratic pseudo-inverses."""
    return campanato._comparison_build(tuple(np.ravel(a0).tolist()))[1:]


def fit_field(h, order, a0=np.eye(2)):
    """``taylor_fit`` of a field on the comparison grid: its values on the
    fit nodes, sliced as ``_frozen_comparisons`` slices its batch, one
    QuadApprox per column."""
    assert h.grid is comparison_operator(a0).grid
    near, _, fit, *pinvs = node_sets(a0)
    rows = h.values[near][fit]
    return taylor_fit(rows.reshape(len(rows), -1), pinvs[order - 1], order,
                      a0)


def make_trace(M, xi, eta, mode="c1", N=None, scale_floor_k=None):
    approx = QuadApprox(0.0, np.zeros(2), np.zeros((2, 2)))
    S = np.cumsum(M)
    N = M if N is None else N
    records = []
    for k in range(len(M)):
        x = xi[k] if k < len(xi) else math.nan
        e = eta[k] if k < len(eta) else math.nan
        records.append(ScaleRecord(
            k=k, scale=LAM ** k, M=M[k], xi=x, eta=e, S=float(S[k]),
            N=N[k], approx=approx, sup_error_bar=0.0,
            measure_radius=LAM ** k,
        ))
    return IterationTrace(mode=mode, records=tuple(records),
                          flags={"scale_floor_k": scale_floor_k})


def ok_fraction(margins) -> float:
    return sum(m >= 0.0 for m in margins) / len(margins)


PROBLEMS = {"drift_c1": c1_probe, "zero_case": c1_probe,
            "cubic_c11": c11_probe, "nondini_c11": c11_probe}


@functools.cache
def deep_ladder(name):
    """One K = 40 ladder per manufactured problem, shared by the tests
    that model its prefixes."""
    return PROBLEMS[name](get_problem(name), 40)


def prefix(name, K):
    """The model of the first K + 1 records of ``deep_ladder(name)``."""
    deep = deep_ladder(name)
    records, smallness = recurrence_model(deep.mode, deep.records[:K + 1],
                                          get_problem(name))
    return IterationTrace(deep.mode, records,
                          dict(deep.flags, smallness=smallness))


def test_approximants_evaluate():
    L = QuadApprox(1.0, (2.0, -1.0), np.zeros((2, 2)))
    assert L(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)
    P = QuadApprox(1.0, (0.0, 0.0), [[1.0, 0.5], [0.5, -1.0]])
    assert P(np.array([[1.0, 2.0]]))[0] == pytest.approx(1.0 + 1.0 + 2.0 - 4.0)
    assert P.frozen_trace(np.eye(2)) == pytest.approx(0.0)


def test_quadratic_is_bit_equal_to_einsum():
    rng = np.random.default_rng(2024)
    for g_mag in (1e-9, 1e-3, 1.0, 1e4):
        for p_mag in (1e-20, 1e-10, 1e-4, 1.0):
            A = g_mag * rng.normal(size=(2, 2))
            P = QuadApprox(rng.normal(), rng.normal(size=2), A + A.T)
            pts = p_mag * rng.normal(size=(2000, 2))
            want = (P.E + pts @ P.F
                    + np.einsum("ni,ij,nj->n", pts, P.G, pts))
            assert np.array_equal(P(pts).view(np.int64), want.view(np.int64))


def test_approximant_validation():
    with pytest.raises(FieldValidationError):
        QuadApprox(math.nan, (0.0, 0.0), np.zeros((2, 2)))
    with pytest.raises(FieldValidationError):
        QuadApprox(0.0, (0.0, 0.0), [[0.0, 1.0], [0.0, 0.0]])


def test_c11_ladder_refuses_an_ellipticity_above_a11_at_the_origin():
    # a = I/2 while the problem still declares ellipticity 1
    problem = dataclasses.replace(
        get_problem("cubic_c11"),
        field=constant_field(0.5 * np.eye(2), (0.1, 0.0)))
    with pytest.raises(FieldValidationError, match="ellipticity"):
        c11_probe(problem, 2)


def harmonic(p):
    return p[:, 0] ** 2 - p[:, 1] ** 2


def node_error(w_fn, h):
    return float(np.max(np.abs(w_fn(h.points) - h.values)))


def near_gap(w_fn, h):
    """max |w - h| on h's nodes within 1/2, the ladder's gap."""
    assert h.grid is comparison_operator(np.eye(2)).grid
    near, nodes = node_sets()[:2]
    return float(np.max(np.abs(w_fn(nodes) - h.values[near])))


def test_approximate_harmonic_quadratic_is_reproduced():
    h = approximate(harmonic, comparison_operator(np.eye(2)))
    assert node_error(harmonic, h) <= 1e-9
    assert near_gap(harmonic, h) <= 1e-9


def test_approximate_paraboloid_gap_is_exact():
    def paraboloid(p):
        return p[:, 0] ** 2 + p[:, 1] ** 2

    h = approximate(paraboloid, comparison_operator(np.eye(2)))
    assert np.max(np.abs(h.values - 9.0 / 16.0)) <= 1e-9
    # the origin is a node, where the gap peaks
    assert near_gap(paraboloid, h) == pytest.approx(9.0 / 16.0, abs=1e-9)


# a(0) with a diagonal arm (a 7-point stencil), as in a rotated and
# sheared frame of the identity
SHEARED_A0 = np.array([[1.4819, 0.2604], [0.2604, 0.7206]])


def harmonic_quadratics(a0):
    """1, x1, x2 and three quadratics x^T G x with a0 : G = 0, as a
    function of rim points returning one column each."""
    rng = np.random.default_rng(7)
    hessians = []
    for _ in range(3):
        A = rng.normal(size=(2, 2))
        G = A + A.T
        hessians.append(G - (np.sum(G * a0) / np.sum(a0 * a0)) * a0)

    def columns(p):
        quads = [np.einsum("ni,ij,nj->n", p, G, p) for G in hessians]
        return np.stack([np.ones(len(p)), p[:, 0], p[:, 1], *quads], axis=1)

    return columns


@pytest.mark.parametrize("a0", [np.eye(2), SHEARED_A0], ids=["5pt", "7pt"])
def test_frozen_comparison_reproduces_harmonic_quadratics(a0):
    # the batch of the ladder rests on this: h of an a(0)-harmonic Q is Q
    op = comparison_operator(a0)
    assert (op.red_black is None) == (a0[0, 1] != 0.0)
    columns = harmonic_quadratics(a0)
    h = approximate(columns, op)
    want = columns(op.grid.coords)
    assert h.values.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(h.values - want), axis=0) <= 1e-12 * scale)


@pytest.mark.parametrize("a0", [np.eye(2), SHEARED_A0], ids=["5pt", "7pt"])
def test_batched_comparison_is_column_independent(a0):
    op = comparison_operator(a0)
    quadratics = harmonic_quadratics(a0)

    def batch(p):
        waves = [fn(p) for _, fn in campanato._sweep_shapes()]
        # a column of zeros is solved by no substitution, alone or batched
        return np.stack([*waves, np.exp(p[:, 0]) * np.sin(3.0 * p[:, 1]),
                         np.zeros(len(p)), 1e6 * quadratics(p)[:, 4]], axis=1)

    h = approximate(batch, op)
    fits = fit_field(h, 2, a0)
    assert len(fits) == h.values.shape[1] == 6
    assert not h.values[:, 4].any()
    for j, fit in enumerate(fits):
        alone = approximate(lambda p, j=j: batch(p)[:, j], op)
        assert same_bits(h.values[:, j], alone.values)
        for order in (1, 2):
            (one,) = fit_field(alone, order, a0)
            many = fit_field(h, order, a0)[j]
            assert all(same_bits(np.asarray(x), np.asarray(y)) for x, y in
                       zip((one.E, one.F, one.G), (many.E, many.F, many.G)))


def test_gap_ratio_accepts_discrete_field():
    w = sampled_field(harmonic, DiskGrid(1.0, 1.0 / 48))
    assert _gap_ratio(w) <= 1e-9


def test_approximate_reuses_the_operator_factor(count_factorizations):
    op = comparison_operator(np.eye(2))
    assert op.grid.radius == 0.75 and op.grid.h == 0.75 / SUB_CELLS
    for fn in (harmonic,
               lambda p: p[:, 0] * p[:, 1] + p[:, 0],
               lambda p: 3.0 - p[:, 1]):
        assert node_error(fn, approximate(fn, op)) <= 1e-9
    assert len(count_factorizations) == 1


def test_taylor_fit_order1_exact():
    h = sampled_field(
        lambda p: 3.0 + 2.0 * p[:, 0] - p[:, 1] + p[:, 0] * p[:, 1])
    (L,) = fit_field(h, 1)
    assert L.E == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(L.F, [2.0, -1.0], atol=1e-9)
    assert not L.G.any()


def test_taylor_fit_order2_exact():
    h = sampled_field(
        lambda p: 3.0 + 2.0 * p[:, 0] - p[:, 1] + p[:, 0] * p[:, 1])
    (P,) = fit_field(h, 2)
    assert P.E == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(P.F, [2.0, -1.0], atol=1e-9)
    assert np.allclose(P.G, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)


def test_taylor_fit_trace_projection_keeps_harmonic_hessian():
    h = sampled_field(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    (P,) = fit_field(h, 2)
    assert np.allclose(P.G, np.diag([1.0, -1.0]), atol=1e-9)


def test_taylor_fit_projection_removes_frozen_trace():
    h = sampled_field(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2)
    (P,) = fit_field(h, 2)
    assert abs(P.frozen_trace(np.eye(2))) <= 1e-9


def test_taylor_fit_rejects_narrow_radius(monkeypatch):
    # a fit radius of 0.05 spans 2.1 spacings of the comparison grid; the
    # check runs where the comparison build derives its fit nodes
    campanato._comparison_build.cache_clear()
    monkeypatch.setattr(campanato, "LAM", 0.05)
    with pytest.raises(FitError, match="fewer than 4 spacings"):
        comparison_operator(np.eye(2))


def test_taylor_fit_rejects_rank_deficient_sample(monkeypatch):
    # lstsq reports the rank it found, which can fall short of the columns;
    # the check runs where the comparison build derives its design
    campanato._comparison_build.cache_clear()
    lstsq = np.linalg.lstsq

    def deficient(design, vals, rcond=None):
        sol, res, rank, sv = lstsq(design, vals, rcond=rcond)
        return sol, res, design.shape[1] - 1, sv

    monkeypatch.setattr(np.linalg, "lstsq", deficient)
    with pytest.raises(FitError, match="rank-deficient"):
        comparison_operator(np.eye(2))


def test_config_validation(tmp_path, capsys):
    # K is a document's only iteration setting: rung K divides by
    # LAM**(2K), which stays a normal float up to K_MAX
    assert campanato.K_MAX == 220
    for K, code in ((220, 0), (221, 2), (True, 2)):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"v": 1, "id": "zero", "mode": "c1",
                                    "problem": "zero_case",
                                    "iteration": {"K": K}}))
        assert main(["run", str(path), "--out", str(tmp_path)]) == code
        assert ("iteration" in capsys.readouterr().err) == bool(code)
    with open(tmp_path / "zero_trace.csv") as fh:
        assert len(list(csv.reader(fh))) == 222


def test_smallness_flag_recorded():
    # smallness is the problem's property, reported and never enforced
    tr = c1_probe(get_problem("drift_c1"), 1)
    assert tr.flags["smallness"]["ok"] is False
    assert len(tr.records) == 2


def test_zero_case_certifies_at_machine_precision():
    tr = c1_probe(get_problem("zero_case"), 6)
    assert np.all(tr.M_values <= 1e-8)
    assert certificate(tr) == "C1_certified"
    assert all(math.isinf(m) for m in verify_recurrence(tr))
    # u - u(0) is the potential, so every comparison solve sees w = 0
    assert [rec.gap for rec in tr.records[:-1]] == [0.0] * 6
    assert math.isnan(tr.records[-1].gap)


def test_drift_ladder_contracts_and_certifies():
    tr = c1_probe(get_problem("drift_c1"), 6)
    M = tr.M_values
    assert np.all(M[2:] / M[1:-1] <= 0.5)
    N = tr.N_values
    assert np.all(np.diff(N[2:]) < 0.0)
    assert N[6] <= 1e-3
    b5 = tr.records[5].approx.F
    b6 = tr.records[6].approx.F
    assert np.linalg.norm(b6 - b5) <= 1e-4
    assert certificate(tr) == "C1_certified"
    assert ok_fraction(verify_recurrence(tr)) >= 0.95


def bessel_gradient():
    """drift_c1's gradient at the origin, c1/4 - c0/2, from its Bessel
    series."""
    c0 = iv(2, 0.5) / iv(0, 0.5)
    c1 = (iv(1, 0.5) + iv(3, 0.5)) / iv(1, 0.5)
    return c1 / 4.0 - c0 / 2.0


def test_drift_limit_gradient_matches_bessel_series():
    tr = c1_probe(get_problem("drift_c1"), 6)
    c0 = iv(2, 0.5) / iv(0, 0.5)
    expected = bessel_gradient()
    assert tr.limit.F[0] == pytest.approx(expected, abs=2e-6)
    assert tr.limit.F[1] == pytest.approx(0.0, abs=1e-9)
    assert tr.flags["u_shift"] == pytest.approx(c0, abs=1e-12)


def test_cubic_first_increment_matches_hand_computation():
    beta = 0.1
    tr = c11_probe(get_problem("cubic_c11"), 2)
    inc = tr.records[0].increment
    assert inc.F[0] == pytest.approx(-beta * (0.75 ** 2) / 4.0, abs=1e-5)
    assert abs(inc.E) <= 1e-8
    assert np.max(np.abs(inc.G)) <= 1e-8


def test_cubic_ladder_decays_at_scale_rate():
    tr = c11_probe(get_problem("cubic_c11"), 6)
    M = tr.M_values[:6]
    logs = np.log(M)
    denom = math.log(LAM)
    slopes = [
        (logs[l] - logs[k]) / ((l - k) * denom)
        for k in range(6) for l in range(k + 1, 6)
    ]
    assert float(np.median(slopes)) >= 0.9
    for rec in tr.records:
        assert abs(rec.approx.frozen_trace(np.eye(2))) <= 1e-9
    assert certificate(tr) == "C11_certified"
    assert ok_fraction(verify_recurrence(tr)) >= 0.95


def test_nondini_ladder_stalls_and_fails():
    tr = prefix("nondini_c11", 26)
    M = tr.M_values
    ratios = M[-4:] / M[-5:-1]
    assert np.all(ratios > 0.95)
    assert certificate(tr) == "failed"


@pytest.mark.parametrize("K, verdict", [(22, "inconclusive"), (24, "failed")])
def test_nondini_ladder_fails_from_K_24(K, verdict):
    # K = 24 is the first depth whose last four M_k ratios all pass the
    # stall ratio 0.95: their least is 0.94674 at K = 22 and 0.95188 at 24
    tr = prefix("nondini_c11", K)
    M = tr.M_values
    assert np.all(M[-4:] / M[-5:-1] > 0.95) == (verdict == "failed")
    assert certificate(tr) == verdict


def modelled(records) -> np.ndarray:
    """N, xi and eta of each record, as bits."""
    return np.array([(r.N, r.xi, r.eta) for r in records]).view(np.int64)


@pytest.mark.parametrize("K", [6, 40])
@pytest.mark.parametrize("name", list(PROBLEMS), ids=[
    f"{probe.__name__}-{name}" for name, probe in PROBLEMS.items()])
def test_recurrence_model_rebuilds_a_stored_trace(count_factorizations,
                                                  monkeypatch, name, K):
    problem = get_problem(name)
    tr = prefix(name, K)
    factored = len(count_factorizations)
    records, smallness = recurrence_model(tr.mode, tr.records, problem)
    assert np.array_equal(modelled(records), modelled(tr.records))
    assert np.isnan([records[-1].xi, records[-1].eta]).all()
    assert repr(smallness) == repr(tr.flags["smallness"])

    # C2 scales eta's bracket only: N and xi stay, eta moves wherever it is
    # nonzero (zero_case's eta is 0: no reaction, drift or potential term)
    monkeypatch.setattr(campanato, "C2", 2 * campanato.C2)
    doubled, flag = recurrence_model(tr.mode, tr.records, problem)
    N, xi, eta = np.array([(r.N, r.xi, r.eta) for r in records[:-1]]).T
    N2, xi2, eta2 = np.array([(r.N, r.xi, r.eta) for r in doubled[:-1]]).T
    assert np.array_equal(N2.view(np.int64), N.view(np.int64))
    assert np.array_equal(xi2.view(np.int64), xi.view(np.int64))
    assert np.all(eta2 >= eta)
    assert np.any(eta2 > eta) == np.any(eta > 0.0)
    assert repr(flag) == repr(smallness)
    # the model reads the records only: nothing is solved again
    assert len(count_factorizations) == factored


# the columns of a trace row that a rung fills from its comparison solve;
# a K-ladder leaves them NaN on its last rung, a prefix of a deeper one not
LAST_RUNG_MEASURED = ["gap_k", "fdev_k", "u_sup_k", "phi_u_k", "phi_scale_k"]


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_a_prefix_of_a_deeper_ladder_is_that_ladder(monkeypatch, name):
    deep = deep_ladder(name)
    # a ladder stops at the first rung whose round-off bar exceeds CERT_TOL
    # (drift_c1's K = 40 ladder at rung 20), so K runs up to its last rung
    for K in range(6, len(deep.records), 2):
        tr = prefix(name, K)
        # a prefix reuses the deeper ladder's xi and eta, and rung K, whose
        # comparison leads outside the prefix, leaves them NaN
        assert np.array_equal(modelled(tr.records)[:-1, 1:],
                              modelled(deep.records[:K])[:, 1:])
        assert np.isnan([tr.records[-1].xi, tr.records[-1].eta]).all()
        if K not in (6, 22, 24, 26):
            continue
        ladder = PROBLEMS[name](get_problem(name), K)
        assert [repr(m) for m in verify_recurrence(tr)] == [
            repr(m) for m in verify_recurrence(ladder)]
        # the probe report and trace of the prefix are the K-ladder's
        doc = {"v": 1, "id": name, "mode": deep.mode, "problem": name,
               "iteration": {"K": K}}
        runs = []
        for trace in (ladder, tr):
            with monkeypatch.context() as patch:
                patch.setattr(scenarios, PROBLEMS[name].__name__,
                              lambda problem, K, u=None, trace=trace: trace)
                runs.append(scenarios._run_probe(doc))
        (header, rows, report), (_, prefix_rows, prefix_report) = runs
        assert (json.dumps(scenarios.sanitize(prefix_report))
                == json.dumps(scenarios.sanitize(report)))
        assert prefix_rows[:-1] == rows[:-1]
        measured = [i for i, column in enumerate(header)
                    if column in LAST_RUNG_MEASURED or column.startswith("inc_")]
        assert all(rows[-1][i] == "nan" for i in measured)
        assert ([v for i, v in enumerate(prefix_rows[-1]) if i not in measured]
                == [v for i, v in enumerate(rows[-1]) if i not in measured])


def test_comparison_batch_ends_where_the_roundoff_bar_stops(monkeypatch):
    # drift_c1's K = 40 ladder stops at rung 20, where eps |u(0)| / s alone
    # passes CERT_TOL; its batch compares rungs 0-20, not all 40
    original = campanato._frozen_comparisons
    widths = []

    def spy(a0, rungs, order, gap_fn):
        fits, gaps = original(a0, rungs, order, gap_fn)
        widths.append(len(gaps))
        return fits, gaps

    def full_width(a0, rungs, order, gap_fn):
        return original(a0, 40, order, gap_fn)

    problem = get_problem("drift_c1")
    monkeypatch.setattr(campanato, "_frozen_comparisons", spy)
    cut = c1_probe(problem, 40)
    assert widths == [21] and len(cut.records) == 21
    monkeypatch.setattr(campanato, "_frozen_comparisons", full_width)
    assert trace_rows(c1_probe(problem, 40)) == trace_rows(cut)


def off_ladder_points(r):
    """The centre and 16 circles of 64 points filling B_r, each circle
    turned half a step against the next, off every ladder sample plan."""
    rho = r * np.arange(1, 17)[:, None] / 16.0
    ang = (2.0 * np.pi / 64.0) * (np.arange(64)[None, :]
                                  + 0.5 * (np.arange(16) % 2)[:, None])
    pts = np.stack([(rho * np.cos(ang)).ravel(), (rho * np.sin(ang)).ravel()],
                   axis=1)
    return np.vstack([np.zeros((1, 2)), pts])


@functools.cache
def off_ladder_gap(name, k):
    """The points of B_r, r = LAM**(k + 1/2), between rungs k and k + 1,
    and u - u(0) - v on them, from the closed-form u."""
    problem = get_problem(name)
    pts = off_ladder_points(campanato.LAM ** (k + 0.5))
    u0 = problem.u(np.zeros((1, 2)))[0]
    return pts, problem.u(pts) - u0 - problem.potential.v(pts)


def test_certificates_survive_off_ladder_checks():
    # every K = 6, 8, ..., 40 of every manufactured problem, as the prefix
    # of one K = 40 ladder (a prefix past the rung where the round-off bar
    # stopped that ladder is the whole ladder)
    gradient = np.array([bessel_gradient(), 0.0])
    certified = {}
    for name in PROBLEMS:
        problem = get_problem(name)
        for K in range(6, 41, 2):
            tr = prefix(name, K)
            if not certificate(tr).endswith("_certified"):
                continue
            certified.setdefault(name, []).append(K)
            stated = claim(tr, problem)
            order = stated["order"]
            assert len(stated["bounds"]) == len(tr.records)
            # a certificate places P within CERT_TOL at the deepest rung
            assert stated["bounds"][-1] <= campanato.CERT_TOL, (name, K)
            for k, bound in enumerate(stated["bounds"]):
                r = campanato.LAM ** (k + 0.5)
                assert r <= stated["radii"][k]
                pts, gap = off_ladder_gap(name, k)
                rest = (gap - tr.limit(pts)
                        + stated["drift_correction"] * pts[:, 0] ** 2)
                assert (np.max(np.abs(rest))
                        <= bound * (r / campanato.LAM) ** order), (name, K, k)
            if name == "drift_c1":
                # the limit gradient against the Bessel series'
                assert (np.linalg.norm(tr.limit.F - gradient)
                        <= stated["bounds"][-1]), K
    # the certified prefixes: drift_c1 stops certifying where round-off
    # swamps its data; cubic_c11's unresolved tail M_k is exactly 0, so
    # its N_k stay monotone to K = 40
    assert certified == {"drift_c1": [6, 8, 10, 12],
                         "zero_case": list(range(6, 41, 2)),
                         "cubic_c11": list(range(6, 41, 2))}


def test_recurrence_check_on_synthetic_values(monkeypatch):
    tr = make_trace(M=[1.0, 0.2, 0.05], xi=[0.25, 0.25], eta=[0.01, 0.005])
    margins = verify_recurrence(tr)
    assert margins[0] == pytest.approx(1.5 * 0.26 - 0.2)
    assert margins[1] == pytest.approx(1.5 * 0.055 - 0.05)
    monkeypatch.setattr(campanato, "SAFETY", 1.0)
    assert all(m >= 0.0 for m in verify_recurrence(tr))
    monkeypatch.setattr(campanato, "SAFETY", 0.1)
    assert all(m < 0.0 for m in verify_recurrence(tr))


def test_recurrence_check_of_one_rung_is_empty():
    # a one-record trace has no step, so no margin
    assert verify_recurrence(make_trace(M=[1.0], xi=[], eta=[])) == ()


def test_certificate_on_synthetic_geometric_decay(monkeypatch):
    M = [2.0 ** -k for k in range(10)]
    N = [4.0 ** -k for k in range(10)]
    tr = make_trace(M=M, xi=[0.5] * 9, eta=[0.0] * 9, N=N)
    monkeypatch.setattr(campanato, "CERT_TOL", 1e-2)
    assert certificate(tr) == "C1_certified"
    # N_9 = 4**-9 = 3.8e-6: a tolerance below it is not met
    monkeypatch.setattr(campanato, "CERT_TOL", 1e-6)
    assert certificate(tr) == "inconclusive"


def test_certificate_all_zero_is_certified():
    tr = make_trace(M=[0.0] * 5, xi=[0.0] * 4, eta=[0.0] * 4)
    assert certificate(tr) == "C1_certified"


def test_certificate_truncated_is_inconclusive():
    tr = make_trace(M=[1.0, 0.1, 0.01], xi=[0.1, 0.1], eta=[0.0, 0.0],
                    scale_floor_k=3)
    assert certificate(tr) == "inconclusive"


def test_certificate_stall_detector_needs_slow_tail():
    slow = make_trace(M=[1.0 / (k + 1.0) for k in range(40)],
                      xi=[0.5] * 39, eta=[0.0] * 39)
    assert certificate(slow) == "failed"
    fast = make_trace(M=[0.3 ** k for k in range(20)],
                      xi=[0.5] * 19, eta=[0.0] * 19,
                      N=[0.3 ** k for k in range(20)])
    assert certificate(fast) == "C1_certified"


def test_rescaling_changes_nothing_beyond_roundoff():
    def w(p):
        return np.sin(p[:, 0]) * np.exp(p[:, 1]) - 1.0

    lam = 0.2
    direct, _ = ball_sup(w, lam, cells=40)

    def rescaled(z):
        z = np.atleast_2d(z)
        return w(z * lam) / lam ** 2

    scaled, _ = ball_sup(rescaled, 1.0, cells=40)
    assert abs(direct - scaled * lam ** 2) <= 1e-12


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fresh_sample_plan(fn, radius, cells):
    """``ball_sup``'s two sample sets built from scratch for one call: the
    lattice-plus-rim plan and the refine window around its argmax, projected
    onto the ball."""
    step = radius / cells
    ax = np.arange(-cells, cells + 1) * step
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    mask = gx * gx + gy * gy <= radius * radius * (1.0 + 1e-12)
    ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ring = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    allpts = np.concatenate([np.stack([gx[mask], gy[mask]], axis=1), ring])
    center = allpts[int(np.argmax(np.abs(fn(allpts))))]
    w = np.arange(-6, 7) * (step / 3)
    lx, ly = np.meshgrid(w, w, indexing="ij")
    local = center[None, :] + np.stack([lx.ravel(), ly.ravel()], axis=1)
    rho = np.hypot(local[:, 0], local[:, 1])
    outside = rho > radius
    assert np.any(outside)
    local[outside] *= (radius / rho[outside])[:, None]
    return allpts, local


def test_ball_sup_plan_is_bit_equal_to_a_fresh_construction():
    """The cached integer lattice, unit rim and integer window, scaled per
    call, give every sample point the bits of building them afresh; the
    argmax sits on the rim, so the window's projection runs."""
    def oblique(pts):
        return pts @ np.array([math.cos(0.3), math.sin(0.3)])

    cells_set = (SUB_CELLS, SUP_CELLS, 40)
    for cells in cells_set:
        ball_sup(oblique, 1.0, cells=cells)
    built = campanato._sup_plan.cache_info().misses
    radii = [LAM ** k for k in range(41)] + [0.5, 0.9, 1.0]
    for cells in cells_set:
        assert all(not part.flags.writeable
                   for part in campanato._sup_plan(cells))
        for radius in radii:
            for fn in (oblique, lambda p: p[:, 0]):
                seen = []

                def recorded(pts, fn=fn):
                    seen.append(pts.copy())
                    return fn(pts)

                ball_sup(recorded, radius, cells=cells)
                want = fresh_sample_plan(fn, radius, cells)
                assert len(seen) == 2
                assert all(map(same_bits, seen, want)), (cells, radius)
    assert campanato._sup_plan.cache_info().misses == built


def test_fit_and_gap_node_sets_match_a_direct_recomputation():
    grid = comparison_operator(np.eye(2)).grid
    pts = grid.coords
    near = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.25
    mask = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= LAM * LAM
    d = pts[mask]
    cols = [np.ones(len(d)), d[:, 0], d[:, 1],
            d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2]
    got = node_sets()
    assert all(map(same_bits, got[:3], (near, pts[near], mask[near])))
    assert not any(part.flags.writeable for part in got)
    # each fit is a fresh design's pseudo-inverse times the fit nodes'
    # values, the affine one on the quadratic design's first columns
    h = DiscreteField(grid, np.sin(pts[:, 0]) + np.exp(pts[:, 1]), "interior")
    for order, width in ((1, 3), (2, 6)):
        design = np.stack(cols[:width], axis=1)
        pinv = got[2 + order]
        assert np.allclose(pinv, np.linalg.pinv(design), rtol=0.0,
                           atol=1e-12 * np.abs(pinv).max())
        (fit,) = fit_field(h, order)
        assert same_bits(np.array([fit.E, *fit.F]), (pinv @ h.values[mask])[:3])


def test_deep_ladder_derives_its_node_sets_once():
    for plan in (campanato._sup_plan, campanato._comparison_build):
        plan.cache_clear()
    c11_probe(get_problem("nondini_c11"), 26)
    for plan in (campanato._sup_plan, campanato._comparison_build):
        assert plan.cache_info().misses == 1


def test_numeric_mode_truncates_at_scale_floor():
    drift = get_problem("drift_c1")
    grid = DiskGrid(1.0, 1.0 / 64)
    op = assemble(drift.field, grid)
    rhs = grid.field_from_function(lambda p: np.full(len(p), 4.0))
    bc = grid.boundary_from_function(lambda p: np.ones(len(p)))
    u = solve_dirichlet(op, rhs, bc)
    tr = c1_probe(drift, 6, u=u)
    assert tr.flags["data_mode"] == "numeric"
    assert len(tr.records) == 1
    assert tr.flags["scale_floor_k"] == 1
    assert tr.records[0].measure_radius < 1.0
    closed = c1_probe(drift, 1)
    assert tr.records[0].M == pytest.approx(closed.records[0].M, rel=1e-3)
    assert certificate(tr) == "inconclusive"


DIAG_COLUMNS = ["bar_k", "radius_k", "gap_k", "fdev_k", "u_sup_k", "phi_u_k",
                "phi_scale_k"]


def test_trace_csv_schema_and_roundtrip(tmp_path):
    tr = c1_probe(get_problem("drift_c1"), 3)
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    header, body = trace_rows(tr)
    assert rows == [header] + [[str(v) for v in row] for row in body]
    assert rows[0] == (["k", "scale", "M_k", "xi_k", "eta_k", "S_k", "N_k",
                        "A", "B1", "B2"] + DIAG_COLUMNS
                       + ["inc_A", "inc_B1", "inc_B2", "roundoff_k"])
    assert len(rows) == 5
    assert rows[1][0] == "0"
    assert float(rows[1][2]) == tr.records[0].M
    assert rows[-1][3] == "nan" and rows[-1][4] == "nan"
    assert float(rows[-1][8]) == tr.records[-1].approx.F[0]
    first, last = tr.records[0], tr.records[-1]
    assert [float(v) for v in rows[1][10:]] == [
        first.sup_error_bar, first.measure_radius, first.gap, first.fdev,
        first.u_sup, first.phi_u, first.phi_scale,
        first.increment.E, *first.increment.F, first.roundoff]
    # the last rung has no comparison solve: bar, radius and round-off only
    assert [float(v) for v in rows[-1][10:12]] == [last.sup_error_bar,
                                                   last.measure_radius]
    assert rows[-1][12:-1] == ["nan"] * 8
    assert float(rows[-1][-1]) == last.roundoff > 0.0

    tr2 = c11_probe(get_problem("cubic_c11"), 2)
    header, body = trace_rows(tr2)
    assert len(body) == 3 and all(len(row) == len(header) for row in body)
    coeffs = ["E", "F1", "F2", "G11", "G12", "G22"]
    assert header == (["k", "scale", "M_k", "xi_k", "eta_k", "S_k", "N_k"]
                      + coeffs + DIAG_COLUMNS + [f"inc_{c}" for c in coeffs]
                      + ["roundoff_k"])
    assert body[-1][15:-1] == ["nan"] * 11
    assert "nan" not in body[0]


def test_perturbation_sweep_slope_is_positive(count_factorizations):
    sweep = perturbation_sweep()
    assert sweep.slope >= 0.15
    assert np.all(np.diff(np.mean(sweep.ratios, axis=0)) > 0.0)
    # one factor per eps, shared by the three shapes, plus the frozen one
    assert len(count_factorizations) == 5


def test_calibration_step_fits_through_the_ladder_comparison(monkeypatch):
    # C1 and C2 are fitted on the comparison the ladder runs, pre-fit
    # included: one rung of order 1 against the frozen comparison of a0 = I
    _, shape_fn = campanato._sweep_shapes()[0]
    grid = DiskGrid(1.0, 1.0 / campanato.SWEEP_CELLS)
    eps = campanato.SWEEP_EPSILONS[0]
    u = approximate(shape_fn, assemble(campanato.perturbed_field(eps), grid))
    original = campanato._frozen_comparisons
    calls = []

    def spy(a0, rungs, order, gap_fn):
        calls.append((a0, rungs, order))
        return original(a0, rungs, order, gap_fn)

    monkeypatch.setattr(campanato, "_frozen_comparisons", spy)
    M0, M1 = campanato._one_step_linear(u, lambda pts: np.zeros(len(pts)))
    assert len(calls) == 1
    a0, rungs, order = calls[0]
    assert (rungs, order) == (1, 1)
    assert np.array_equal(a0, np.eye(2))
    assert np.isfinite(M0) and np.isfinite(M1) and M0 > 0.0 and M1 > 0.0


def test_one_frozen_operator_per_process(tmp_path, count_factorizations):
    # two bundled ladders and a sweep, all with a(0) = I
    frozen = comparison_operator(np.eye(2))
    assert main(["run", "drift_c1", "nondini_c11", "--out", str(tmp_path)]) == 0
    perturbation_sweep()
    assert comparison_operator([[1.0, 0.0], [0.0, 1.0]]) is frozen
    # the frozen operator's one factor is of its red-black reduced system
    _, a_br, c_rb = frozen.red_black
    black = frozen.grid.black_order
    reduced = frozen.equilibrated[black][:, black] - a_br @ c_rb
    assert sum(matrix.shape == reduced.shape and (matrix != reduced).nnz == 0
               for matrix, _ in count_factorizations) == 1
    # the only others are the sweep's four perturbed operators
    assert len(count_factorizations) == 5
    # another a(0) gets its own operator on the same sub-grid
    other_a0 = comparison_operator(2.0 * np.eye(2))
    assert other_a0 is not frozen
    assert other_a0.grid.h == frozen.grid.h
    # the operators L = diag(row_scale) @ equilibrated differ
    unscaled = [sp.diags(op.row_scale) @ op.equilibrated
                for op in (other_a0, frozen)]
    assert (unscaled[0] != unscaled[1]).nnz > 0


LADDERS = pytest.mark.parametrize("probe, name, K", [
    (c1_probe, "drift_c1", 6),
    (c11_probe, "nondini_c11", 8),
])


@LADDERS
def test_ladder_factors_its_frozen_operator_once(count_factorizations,
                                                 probe, name, K):
    tr = probe(get_problem(name), K)
    assert len(tr.records) == K + 1
    assert len(count_factorizations) == 1


def disk_lattice_size(cells):
    ij = np.arange(-cells, cells + 1)
    return int(np.count_nonzero(ij[:, None] ** 2 + ij[None, :] ** 2
                                <= cells * cells))


@LADDERS
def test_rung_samples_its_ball_once(probe, name, K):
    """Each rung evaluates u on one lattice-plus-ring plan (then its refine
    window), never on a second, bare disk lattice."""
    problem = get_problem(name)
    u = problem.u
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return u(pts)

    object.__setattr__(problem, "u", counted)
    try:
        probe(problem, K)
    finally:
        object.__setattr__(problem, "u", u)
    bare = {disk_lattice_size(cells) for cells in range(16, 97)}
    assert [n for n in sizes if n in bare] == []
    assert sizes.count(disk_lattice_size(SUP_CELLS) + 720) == K + 1


def test_calibration_produces_admissible_constants(calibration):
    out, factorizations = calibration
    # the boundary exponent's operator, the sweep's four perturbed ones and
    # the frozen one, and the three drift operators: the C1 experiments
    # reuse the sweep's solutions
    assert factorizations == 9
    # campanato's constants are the one record of the calibration
    for name, value in (("C0", campanato.C0), ("C1", campanato.C1),
                        ("C2", campanato.C2), ("alpha", campanato.ALPHA)):
        assert out[name] == pytest.approx(value, rel=1e-10)
    assert 0.0 < out["alpha"] <= 1.0 / 3.0
    assert 0.0 < out["beta"] < 1.0
    assert out["alpha"] == pytest.approx(out["beta"] / (2.0 + out["beta"]))
    assert out["C0"] > 1.0
    assert 2.0 * out["C1"] * LAM < 0.25
    assert out["C2"] > 0.0
    assert out["holdout_slope"] >= out["alpha"] - 0.05
