"""Acceptance gate.

Each test covers one acceptance criterion end to end, at the stated
tolerance and budget, and prints one PASS/FAIL line (visible under -s or
in captured output).  Shared scenario runs are cached at module scope so
the gate stays fast enough to run on every change.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from regprobe.campanato import (
    LAM,
    c1_probe,
    c11_probe,
    calibrate_constants,
    certificate,
    perturbation_sweep,
    verify_recurrence,
)
from regprobe.fields import Nonlinearity, PotentialFamily
from regprobe.manufactured import get_problem
from regprobe.scenarios import load_scenario, run_scenario

CERTIFIED_SCENARIOS = ("zero_case", "drift_c1", "cubic_c11")


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def solver_report(out_dir):
    start = time.perf_counter()
    report = run_scenario(load_scenario("solver_validation"), out_dir)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def bundled_reports(out_dir):
    reports = {}
    for name in CERTIFIED_SCENARIOS:
        reports[name] = run_scenario(load_scenario(name), out_dir)
    return reports


def bundled_K(name: str) -> int:
    return load_scenario(name)["iteration"]["K"]


@pytest.fixture(scope="module")
def drift_trace():
    return c1_probe(get_problem("drift_c1"), bundled_K("drift_c1"))


@pytest.fixture(scope="module")
def cubic_trace():
    return c11_probe(get_problem("cubic_c11"), bundled_K("cubic_c11"))


def test_criterion_1_solver_convergence(solver_report):
    report, elapsed = solver_report
    orders = report["limits"]["orders"]
    order_ok = len(orders) >= 2 and all(
        abs(o - 2.0) <= 0.2 for o in orders.values())
    exact = report["limits"]["exact_sup_error"]
    ok = order_ok and exact <= 1e-10 and elapsed <= 120.0
    report_line(1, ok,
                f"orders {', '.join(f'{o:.3f}' for o in orders.values())} "
                f"within 2.0+-0.2; frozen quadratic error {exact:.2e} "
                f"<= 1e-10; {elapsed:.1f}s <= 120s")


def test_criterion_2_maximum_principle(solver_report):
    report, _ = solver_report
    limits = report["limits"]
    ok = (limits["operators"] >= 20
          and limits["mp_max_excess"] <= 1e-10
          and limits["implied_c_max_spread"] <= 0.2)
    report_line(2, ok,
                f"{limits['operators']} randomized operators: interior max "
                f"excess {limits['mp_max_excess']:.2e} <= 1e-10, implied "
                f"constant spread {limits['implied_c_max_spread']:.3f} "
                f"<= 0.2")


def test_criterion_3_perturbation_scaling():
    start = time.perf_counter()
    sweep = perturbation_sweep()
    constants = calibrate_constants()
    elapsed = time.perf_counter() - start
    alpha = constants["alpha"]
    ok = (sweep.slope >= 0.15 and 0.0 < alpha <= 1.0 / 3.0
          and elapsed <= 300.0)
    report_line(3, ok,
                f"sweep slope {sweep.slope:.3f} >= 0.15, fitted alpha "
                f"{alpha:.4f} in (0, 1/3]; {elapsed:.1f}s <= 300s")


def test_criterion_4_recurrence_on_certified_scenarios(bundled_reports):
    fractions = {}
    for name, report in bundled_reports.items():
        assert report["verdict"] in ("C1_certified", "C11_certified"), name
        assert report["config"]["iteration"]["safety"] == 1.5
        fractions[name] = report["limits"]["ok_fraction"]
    ok = len(fractions) >= 1 and all(f >= 0.95 for f in fractions.values())
    detail = ", ".join(f"{n} {100 * f:.0f}%" for n, f in fractions.items())
    report_line(4, ok, f"recurrence holds on certified scenarios: {detail}")


def test_criterion_5_drift_c1_certificate(drift_trace):
    tr = drift_trace
    N = tr.N_values
    monotone = bool(np.all(np.diff(N[2:]) < 0.0))
    b5 = tr.records[5].approx.F
    b6 = tr.records[6].approx.F
    cauchy = float(np.linalg.norm(b6 - b5))
    ok = (LAM == 0.2 and monotone and N[6] <= 1e-3
          and cauchy <= 1e-4
          and certificate(tr).verdict == "C1_certified")
    report_line(5, ok,
                f"N_k decreasing for k>=2, N_6 = {N[6]:.2e} <= 1e-3, "
                f"|B_6-B_5| = {cauchy:.2e} <= 1e-4, verdict "
                f"{certificate(tr).verdict}")


def test_criterion_6_cubic_c11_certificate(cubic_trace):
    tr = cubic_trace
    logs = np.log(tr.M_values[:6])
    denom = math.log(LAM)
    slopes = [(logs[b] - logs[a]) / ((b - a) * denom)
              for a in range(6) for b in range(a + 1, 6)]
    exponent = float(np.median(slopes))
    traces = [abs(r.approx.frozen_trace(np.eye(2))) for r in tr.records]
    verdict = certificate(tr).verdict
    ok = (exponent >= 0.9 and max(traces) <= 1e-9
          and verdict == "C11_certified")
    report_line(6, ok,
                f"decay exponent {exponent:.3f} >= 0.9 over k=0..5, "
                f"max |frozen trace| {max(traces):.1e} <= 1e-9, verdict "
                f"{verdict}")


def test_criterion_7_nondini_negative_control():
    tr = c11_probe(get_problem("nondini_c11"),
                   bundled_K("nondini_c11"))
    M = tr.M_values
    ratios = M[-4:] / M[-5:-1]
    verdict = certificate(tr).verdict
    ok = verdict == "failed" and bool(np.all(ratios > 0.95))
    report_line(7, ok,
                f"verdict {verdict}; last-4 increment ratios "
                f"{', '.join(f'{r:.3f}' for r in ratios)} all > 0.95")


def test_criterion_8_modulus_suite(out_dir):
    start = time.perf_counter()
    report = run_scenario(load_scenario("modulus_check"), out_dir)
    elapsed = time.perf_counter() - start
    limits = report["limits"]
    ok = (report["verdict"] == "pass" and limits["combos_checked"] >= 90
          and limits["max_tail_to_bound"] <= 1.0 and elapsed <= 10.0)
    report_line(8, ok,
                f"{limits['families']} families, "
                f"{limits['combos_checked']} tail sums within bounds "
                f"(worst ratio {limits['max_tail_to_bound']:.3f}); "
                f"{elapsed:.1f}s <= 10s")


def test_suite_verdicts_read_their_trace_ok_column(out_dir, solver_report):
    # a check suite passes exactly when every row of its trace has ok = 1
    reports = {"solver_validation": solver_report[0],
               "modulus_check": run_scenario(load_scenario("modulus_check"),
                                             out_dir)}
    for name, report in reports.items():
        with open(out_dir / f"{name}_trace.csv", newline="") as fh:
            oks = [row["ok"] for row in csv.DictReader(fh)]
        assert oks and set(oks) <= {"0", "1"}
        assert (report["verdict"] == "pass") == all(ok == "1" for ok in oks)


def scaled_problem(base, s: float):
    nl = base.nonlinearity
    return replace(
        base,
        nonlinearity=Nonlinearity(
            f=lambda pts, t: s * nl.f(pts, np.asarray(t) / s),
            modulus=nl.modulus),
        u=lambda pts: s * np.asarray(base.u(pts)),
        potential=PotentialFamily(
            v=lambda pts: s * np.asarray(base.potential.v(pts)),
            hessian_bound=s * base.potential.hessian_bound),
    )


def assert_telescoping(tr):
    acc = [0.0, np.zeros(2), np.zeros((2, 2))]
    for rec in tr.records[:-1]:
        inc = rec.increment
        scale = LAM ** rec.k
        acc[0] = acc[0] + scale * scale * inc.E
        acc[1] = acc[1] + scale * inc.F
        acc[2] = acc[2] + inc.G
    assert acc[0] == tr.limit.E
    assert np.array_equal(acc[1], tr.limit.F)
    assert np.array_equal(acc[2], tr.limit.G)
    running = 0.0
    for rec in tr.records:
        running += rec.M
        assert rec.S == running


def test_criterion_9_invariances(drift_trace, cubic_trace):
    base = get_problem("drift_c1")
    tr0 = c1_probe(base, 4)
    rec0 = verify_recurrence(tr0)
    worst = 0.0
    for s in (0.1, 10.0):
        trs = c1_probe(scaled_problem(base, s), 4)
        for r0, rs in zip(tr0.records, trs.records):
            worst = max(worst, abs(rs.M - s * r0.M) / max(s * r0.M, 1e-300))
            if not math.isnan(r0.xi):
                assert rs.xi == r0.xi
                worst = max(worst,
                            abs(rs.eta - s * r0.eta) / max(s * r0.eta, 1e-300))
        b_ref = s * np.asarray(tr0.limit.F)
        b_norm = max(float(np.max(np.abs(b_ref))), 1e-300)
        worst = max(worst,
                    float(np.max(np.abs(trs.limit.F - b_ref))) / b_norm)
        assert verify_recurrence(trs).ok == rec0.ok
        assert certificate(trs).verdict == certificate(tr0).verdict

    assert_telescoping(drift_trace)
    assert_telescoping(cubic_trace)
    assert_telescoping(tr0)
    for rec in cubic_trace.records:
        assert abs(rec.approx.frozen_trace(np.eye(2))) <= 1e-9

    ok = worst <= 1e-9
    report_line(9, ok,
                f"scalar rescaling by 0.1 and 10 preserved xi, recurrence, "
                f"verdicts; M/eta/coefficients scaled to rel {worst:.1e} "
                f"<= 1e-9; telescoping and trace-free hold on all traces")


def test_acceptance_artifacts_land_on_disk(out_dir, bundled_reports,
                                           solver_report):
    for name in CERTIFIED_SCENARIOS + ("solver_validation",):
        assert (out_dir / f"{name}_report.json").exists()
        assert (out_dir / f"{name}_trace.csv").exists()
    names = sorted(p.name for p in out_dir.glob("*_report.json"))
    loaded = [json.loads((out_dir / n).read_text()) for n in names]
    assert all(doc["v"] == 1 for doc in loaded)