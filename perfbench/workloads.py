"""The benchmark's workloads: the scenario documents each one generates and
the checks every report must pass.

Documents are built from the bundled scenario files under
``src/regprobe/scenarios`` with the benchmark's seed written into their
``seed`` key, so the program only ever sees generated inputs.  This module
imports nothing from numpy, scipy or regprobe: the child process imports it
before it starts the set-up clock.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# The limits must match the reference recorded at the benchmark's first
# commit within |value - ref| <= RTOL * |ref| + ATOL.  ATOL sits far above
# the round-off-level entries (limit coefficients of 1e-20 and below) and
# far below every entry a verdict depends on.
RTOL = 1e-6
ATOL = 1e-8

# solver_validation draws its random operators from the seed, so these
# limits have no seed-free reference; they are held to the scenario's own
# acceptance thresholds instead.
SEEDED_LIMITS = {
    "solver_validation": {"mp_max_excess": 1e-10, "implied_c_max_spread": 0.2},
}

DRIFT_GRADIENT_TOL = 2e-6


@dataclass(frozen=True)
class Scenario:
    id: str
    source: str          # bundled scenario the document is built from
    verdict: str         # the verdict a correct program gives
    numeric_cells: int | None = None


# Workload name -> the scenarios of one pass, in the order they run.
WORKLOADS = {
    "probe_ladder": (
        Scenario("zero_case", "zero_case", "C1_certified"),
        Scenario("drift_c1", "drift_c1", "C1_certified"),
        Scenario("cubic_c11", "cubic_c11", "C11_certified"),
        Scenario("nondini_c11", "nondini_c11", "failed")),
    "validation_suite": (
        Scenario("solver_validation", "solver_validation", "pass"),
        Scenario("lemma25_sweep", "lemma25_sweep", "pass"),
        Scenario("modulus_check", "modulus_check", "pass")),
    # At 144 cells and above the ILU's fill cap makes it inexact and a pass
    # slows five- to tenfold; 128 keeps clear of that cliff.
    "numeric_picard": (
        Scenario("nondini_c11_numeric", "nondini_c11", "inconclusive", 128),
        Scenario("drift_c1_numeric", "drift_c1", "inconclusive", 128)),
}

SCENARIO_IDS = tuple(sc.id for scenarios in WORKLOADS.values() for sc in scenarios)

# Figures from ROADMAP.md's baseline (in-process run_scenario, cold
# process, 2-core sandbox), printed next to the traced attribution.
ROADMAP_BASELINE = {
    "zero_case": "0.06 s",
    "drift_c1": "1.29 s; 84 % in manufactured._drift_u (34-term Bessel "
                "series, 45 evaluations over 7 rungs)",
    "cubic_c11": "0.19 s",
    "nondini_c11": "0.82 s; 43 % in spilu",
    "lemma25_sweep": "1.12 s; 62 % in spilu",
    "solver_validation": "8.2 s; 77 % in spilu",
    "modulus_check": "0.41 s",
}


def make_documents(root: Path, scenarios: tuple, seed: int) -> list:
    """Return the scenario documents of a workload for ``seed``."""
    docs = []
    for sc in scenarios:
        path = root / "src" / "regprobe" / "scenarios" / f"{sc.source}.json"
        doc = json.loads(path.read_text())
        doc["id"] = sc.id
        doc["seed"] = seed
        if sc.numeric_cells is not None:
            doc["description"] = (f"{doc['description']} Numeric data on "
                                  f"{sc.numeric_cells} cells.")
            doc["data_mode"] = "numeric"
            doc["grid"] = {"cells": sc.numeric_cells}
            doc["picard"] = {"tol": 1e-9}
        docs.append(doc)
    return docs


def drift_gradient() -> tuple:
    """Gradient of the drift_c1 solution at the origin, c1/4 - c0/2.

    With u = 2 x2^2 + exp(-x1/2) psi and psi = sum_m c_m I_m(r/2) cos(m th),
    only c0 I_0 and c1 I_1 contribute a first derivative at the origin.
    """
    from scipy.special import iv

    c0 = iv(2, 0.5) / iv(0, 0.5)
    c1 = (iv(1, 0.5) + iv(3, 0.5)) / iv(1, 0.5)
    return (float(c1 / 4.0 - c0 / 2.0), 0.0)


def _compare(path: str, value, ref, errors: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            errors.append(f"{path}: keys {sorted(value) if isinstance(value, dict) else value!r} "
                          f"differ from the reference {sorted(ref)}")
            return
        for key in ref:
            _compare(f"{path}.{key}", value[key], ref[key], errors)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            errors.append(f"{path}: {value!r} differs in shape from {ref!r}")
            return
        for i, (v, r) in enumerate(zip(value, ref)):
            _compare(f"{path}[{i}]", v, r, errors)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value - ref) <= RTOL * abs(ref) + ATOL):
            errors.append(f"{path}: {value!r} is not within {RTOL:g} relative "
                          f"+ {ATOL:g} of the reference {ref!r}")
    elif value != ref:
        errors.append(f"{path}: {value!r} differs from the reference {ref!r}")


def check_report(scenario: Scenario, report: dict, reference: dict,
                 gradient: tuple) -> list:
    """Every way ``report`` departs from a correct run, as messages."""
    errors = []
    if report.get("scenario_id") != scenario.id:
        errors.append(f"scenario_id {report.get('scenario_id')!r}")
    if report.get("verdict") != scenario.verdict:
        errors.append(f"verdict {report.get('verdict')!r}, expected "
                      f"{scenario.verdict!r}")
    limits = dict(report.get("limits", {}))
    for key, bound in SEEDED_LIMITS.get(scenario.id, {}).items():
        value = limits.pop(key, None)
        if not isinstance(value, (int, float)) or not value <= bound:
            errors.append(f"limits.{key} = {value!r} above {bound}")
    _compare("limits", limits, reference[scenario.id], errors)
    if scenario.id == "drift_c1":
        grad = limits.get("limit", {}).get("B", [math.nan, math.nan])
        gap = math.hypot(grad[0] - gradient[0], grad[1] - gradient[1])
        if not gap <= DRIFT_GRADIENT_TOL:
            errors.append(f"limit gradient {grad} is {gap:.3e} from the "
                          f"Bessel value {list(gradient)}")
    return errors


def reference_limits(report: dict) -> dict:
    """The part of a report's limits that the reference records."""
    seeded = SEEDED_LIMITS.get(report["scenario_id"], {})
    return {k: v for k, v in report["limits"].items() if k not in seeded}
