"""Scenario documents and their executors.

A scenario is a single JSON document, schema version 1, all keys
lower_snake.  It names a mode (``c1``, ``c11``, ``lemma25_sweep``,
``solver_validation``, ``modulus_check``) plus the config blocks that mode
needs.  Bundled scenarios ship inside the package and are resolved by id.

Execution is deterministic: the seed is part of the document and is echoed
in the report.  Every artifact (trace CSV, report JSON) is written through
a temp file in the target directory and renamed into place, so a crashed
or rejected run leaves nothing half-written.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .campanato import (
    ALPHA,
    C0,
    C1,
    C2,
    CERT_TOL,
    K_MAX,
    LAM,
    SAFETY,
    SWEEP_EPSILONS,
    c1_probe,
    c11_probe,
    certificate,
    limit_coeffs,
    perturbation_sweep,
    trace_rows,
    verify_recurrence,
)
from .elliptic import abp_check, assemble, convergence_order, solve_dirichlet
from .errors import RegistryError, ScenarioError, SchemaVersionError
from .fields import CoefficientField, constant_field
from .grid import DiskGrid
from .manufactured import get_problem
from .modulus import dini_integral, dini_tail_sum, doubling_check, parse_modulus
from .semilinear import PicardConfig, picard_solve

SCHEMA_VERSION = 1

MODES = ("c1", "c11", "lemma25_sweep", "solver_validation", "modulus_check")

_COMMON_KEYS = {"v", "id", "mode", "seed", "output_dir", "description"}

_DEFAULT_SEED = 20260822
# The rungs of a probe document that sets no iteration.K.
_DEFAULT_K = 6

# A grid of c cells has about pi c^2 nodes; a numeric run peaked at 1.6 KB
# a node at 64-192 cells.  At 2 KiB a node, 4 GiB holds 817 cells.
_GRID_BUDGET_BYTES, _NODE_BYTES = 4 << 30, 2048
_MAX_CELLS = math.sqrt(_GRID_BUDGET_BYTES / (math.pi * _NODE_BYTES))

# The fixed suites.  lemma25_sweep passes when the sweep's log-log slope
# reaches _MIN_SLOPE.  solver_validation fits its convergence orders on
# _RESOLUTIONS and draws _OPERATORS randomized operators from the seed.
# modulus_check sums each family's tails at every ratio of _LAMS from
# k0 = 1 to _K0_MAX; a document may name its own families (a table: file,
# say) in place of the built-in ones.
_MIN_SLOPE = 0.15
_RESOLUTIONS = (1 / 32, 1 / 64, 1 / 128)
_OPERATORS = 20
_LAMS = (0.125, 0.2, 0.25)
_K0_MAX = 6
_FAMILIES = (
    {"id": "power:0.5", "dini": True},
    {"id": "power:1.0", "dini": True},
    {"id": "log_power:2.0", "dini": True},
    {"id": "log_power:1.0", "dini": False},
    {"id": "log_inverse", "dini": False},
    {"id": "zero", "dini": True},
)

_MODE_KEYS = {
    "c1": {"problem", "iteration", "data_mode", "grid", "picard"},
    "c11": {"problem", "iteration", "data_mode", "grid", "picard"},
    "lemma25_sweep": set(),
    "solver_validation": set(),
    "modulus_check": {"families"},
}


def _scenario_dir():
    return resources.files("regprobe") / "scenarios"


def bundled_names() -> tuple:
    names = [p.name[:-5] for p in _scenario_dir().iterdir()
             if p.name.endswith(".json")]
    return tuple(sorted(names))


def load_scenario(ref) -> dict:
    """Load and validate a scenario from a file path or a bundled id."""
    path = Path(str(ref))
    candidate = _scenario_dir() / f"{ref}.json"
    try:
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            source = str(path)
        elif "/" not in str(ref) and candidate.is_file():
            text = candidate.read_text(encoding="utf-8")
            source = f"bundled:{ref}"
        else:
            raise RegistryError(
                f"no scenario file or bundled scenario id {ref!r} "
                f"(bundled: {', '.join(bundled_names())})")
    except OSError as exc:
        raise RegistryError(
            f"cannot read scenario {ref!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    validate_scenario(doc, source=source)
    return doc


def validate_scenario(doc, source: str = "scenario") -> None:
    """Check schema version, key set, config invariants, and registry ids."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: document must be a JSON object")
    if "v" not in doc:
        raise SchemaVersionError(f"{source}: missing schema version key 'v'")
    if doc["v"] != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{source}: schema version {doc['v']!r} not supported "
            f"(expected {SCHEMA_VERSION})")
    ident = doc.get("id")
    if (not isinstance(ident, str) or ident in ("", ".", "..")
            or any(c in ident for c in "\0/\\")):
        raise ScenarioError(
            f"{source}: key 'id' must be a file name: a non-empty string "
            f"other than '.' and '..', without NUL, '/' or '\\'")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ScenarioError(
            f"{source}: key 'mode' must be one of {', '.join(MODES)}, "
            f"got {mode!r}")
    allowed = _COMMON_KEYS | _MODE_KEYS[mode]
    for key in doc:
        if key not in allowed:
            raise ScenarioError(
                f"{source}: unknown key {key!r} for mode {mode!r}")
    seed = doc.get("seed", _DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError(
            f"{source}: key 'seed' must be a non-negative integer")
    if not isinstance(doc.get("description", ""), str):
        raise ScenarioError(f"{source}: key 'description' must be a string")
    out = doc.get("output_dir", ".")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ScenarioError(
            f"{source}: key 'output_dir' must be a non-empty string "
            f"without NUL")

    if mode in ("c1", "c11"):
        if not isinstance(doc.get("problem"), str):
            raise ScenarioError(
                f"{source}: mode {mode!r} needs key 'problem' naming a problem")
        get_problem(doc["problem"])
        iteration = doc.get("iteration", {})
        if not isinstance(iteration, dict):
            raise ScenarioError(f"{source}: key 'iteration' must be an object")
        # the scale ratio, the calibrated constants and the verdict
        # thresholds are fixed; a document sets only the number of rungs
        for key in iteration:
            if key != "K":
                raise ScenarioError(f"{source}: bad iteration block: unknown "
                                    f"key {key!r}; it holds only 'K'")
        K = iteration.get("K", _DEFAULT_K)
        if isinstance(K, bool) or not isinstance(K, int) or not 1 <= K <= K_MAX:
            raise ScenarioError(f"{source}: bad iteration block: K must be an "
                                f"integer in [1, {K_MAX}], got {K!r}")
        grid = doc.get("grid", {})
        if not isinstance(grid, dict) or set(grid) - {"cells"}:
            raise ScenarioError(
                f"{source}: key 'grid' must be an object holding only "
                f"grid.cells")
        data_mode = doc.get("data_mode", "manufactured")
        if data_mode not in ("manufactured", "numeric"):
            raise ScenarioError(
                f"{source}: key 'data_mode' must be 'manufactured' or "
                f"'numeric', got {data_mode!r}")
        if data_mode == "numeric":
            cells = grid.get("cells")
            if not isinstance(cells, int) or cells < 16:
                raise ScenarioError(
                    f"{source}: grid.cells must be an integer >= 16, and "
                    f"numeric mode needs it")
            # an int of any size is compared exactly, so no count overflows
            if not cells <= _MAX_CELLS:
                raise ScenarioError(
                    f"{source}: grid.cells must ask for at most "
                    f"{_MAX_CELLS:.0f} cells across a radius, the grid that "
                    f"fits in {_GRID_BUDGET_BYTES >> 30} GiB at "
                    f"{_NODE_BYTES >> 10} KiB a node")
        try:
            PicardConfig(**doc.get("picard", {}))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{source}: bad picard block: {exc}") from exc
        # a well-formed grid or picard block is still refused where no
        # solve reads it, so a report never echoes a setting it ignored
        for key in ("grid", "picard"):
            if data_mode == "manufactured" and key in doc:
                raise ScenarioError(
                    f"{source}: key {key!r} is read only in numeric mode "
                    f"(\"data_mode\": \"numeric\")")
    elif mode == "modulus_check" and "families" in doc:
        fams = doc["families"]
        if not isinstance(fams, list) or not fams:
            raise ScenarioError(f"{source}: key 'families' must be a "
                                f"non-empty list")
        for fam in fams:
            if (not isinstance(fam, dict) or "id" not in fam
                    or not isinstance(fam.get("dini"), bool)):
                raise ScenarioError(
                    f"{source}: each entry of key 'families' needs keys 'id' "
                    f"and 'dini' (true or false)")
            parse_modulus(fam["id"])


def sanitize(obj):
    """Make a value JSON-safe: arrays to lists, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it there.

    An OSError, such as an output directory that is a regular file, or a
    ValueError, such as a path holding a NUL byte, becomes a ScenarioError
    naming ``path``; the temp file never outlives a failure.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:
        raise ScenarioError(
            f"cannot write {path}: {exc}") from exc


def _write_report(report: dict, path) -> None:
    atomic_write_text(path, json.dumps(sanitize(report), indent=2,
                                       allow_nan=False) + "\n")


def _write_rows(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _suite_verdict(rows) -> str:
    """A check suite passes when every check's row ends in its ok = 1."""
    return "pass" if all(row[-1] for row in rows) else "failed"


def run_scenario(doc: dict, out_dir) -> dict:
    """Execute a validated scenario; write its artifacts; return the report."""
    out_dir = Path(doc.get("output_dir", out_dir))
    mode = doc["mode"]
    if mode in ("c1", "c11"):
        report = _run_probe(doc, out_dir)
    elif mode == "lemma25_sweep":
        report = _run_sweep(doc, out_dir)
    elif mode == "solver_validation":
        report = _run_solver_validation(doc, out_dir)
    else:
        report = _run_modulus_check(doc, out_dir)
    _write_report(report, out_dir / f"{doc['id']}_report.json")
    return report


def _base_report(doc: dict, verdict: str, limits: dict, flags: dict) -> dict:
    config = {k: v for k, v in doc.items() if k not in ("output_dir",)}
    flags = dict(flags)
    flags["seed"] = doc.get("seed", _DEFAULT_SEED)
    return {
        "v": SCHEMA_VERSION,
        "scenario_id": doc["id"],
        "mode": doc["mode"],
        "verdict": verdict,
        "config": config,
        "limits": limits,
        "flags": flags,
    }


def _run_probe(doc: dict, out_dir: Path) -> dict:
    problem = get_problem(doc["problem"])
    K = doc.get("iteration", {}).get("K", _DEFAULT_K)
    u = solved = None
    if doc.get("data_mode", "manufactured") == "numeric":
        cells = doc["grid"]["cells"]
        grid = DiskGrid(1.0, 1.0 / cells)
        op = assemble(problem.field, grid)
        boundary = grid.boundary_from_function(problem.boundary)
        picard = PicardConfig(**doc.get("picard", {}))
        solved = picard_solve(op, problem.nonlinearity, boundary, picard)
        u = solved.u

    probe = c1_probe if doc["mode"] == "c1" else c11_probe
    trace = probe(problem, K, u=u)
    cert = certificate(trace)
    rec = verify_recurrence(trace) if len(trace.records) >= 2 else None

    _write_rows(out_dir / f"{doc['id']}_trace.csv", *trace_rows(trace))

    last = trace.records[-1]
    limits = {
        "final_n": cert.final_n,
        "s_last": last.S,
        "m_first": trace.records[0].M,
        "m_last": last.M,
        "worst_margin": min(rec.margins) if rec else None,
        "ok_fraction": rec.ok_fraction if rec else None,
        "limit": limit_coeffs(trace),
    }
    flags = dict(trace.flags)
    flags["scales_run"] = len(trace.records)
    if solved is not None:
        flags["picard"] = {"increments": solved.increments,
                           "damping_used": solved.damping_used,
                           "residual_sup": solved.residual_sup}
    # the report records the scale ratio, the calibration and the verdict
    # thresholds the ladder ran with
    iteration = {"lam": LAM, "K": K, "C0": C0, "C1": C1, "C2": C2,
                 "alpha": ALPHA, "cert_tol": CERT_TOL, "safety": SAFETY}
    return _base_report(dict(doc, iteration=iteration), cert.verdict,
                        limits, flags)


def _run_sweep(doc: dict, out_dir: Path) -> dict:
    sweep = perturbation_sweep()
    rows = []
    for i, shape in enumerate(sweep.shapes):
        for j, e in enumerate(SWEEP_EPSILONS):
            rows.append([repr(float(e)), shape, repr(float(sweep.ratios[i, j]))])
    _write_rows(out_dir / f"{doc['id']}_trace.csv",
                ["epsilon", "shape", "ratio"], rows)
    verdict = "pass" if sweep.slope >= _MIN_SLOPE else "failed"
    limits = {
        "slope": sweep.slope,
        "alpha_estimate": sweep.slope,
        "min_slope": _MIN_SLOPE,
        "epsilons": list(SWEEP_EPSILONS),
        "mean_ratios": np.mean(sweep.ratios, axis=0),
    }
    return _base_report(doc, verdict, limits, {"shapes": list(sweep.shapes)})


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_operator(rng) -> tuple:
    theta = rng.uniform(0.0, math.pi)
    mu = rng.uniform(0.5, 1.5, size=2)
    rot = _rotation(theta)
    a0 = rot.T @ np.diag(mu) @ rot
    wave = rng.uniform(-2.0, 2.0, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def a_fn(pts, a0=a0, wave=wave, phase=phase):
        bump = 1.0 + 0.15 * np.sin(pts @ wave + phase)
        return bump[:, None, None] * a0

    b0 = rng.uniform(-0.7, 0.7, size=2)
    field = CoefficientField(
        a=a_fn, b=lambda pts, b0=b0: np.broadcast_to(b0, (len(pts), 2)))

    coeff = rng.normal(0.0, 0.5, size=7)

    def boundary_fn(pts, coeff=coeff):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.full(len(pts), coeff[0])
        for m in (1, 2, 3):
            out = out + (coeff[2 * m - 1] * np.cos(m * th)
                         + coeff[2 * m] * np.sin(m * th)) / (1.0 + m)
        return out

    fwave = rng.uniform(-2.0, 2.0, size=2)
    fphase = rng.uniform(0.0, 2.0 * math.pi)

    def forcing_fn(pts, fwave=fwave, fphase=fphase):
        return -(1.5 + np.sin(pts @ fwave + fphase))

    return field, boundary_fn, forcing_fn


_SMOOTH_CASES = (
    ("drift_exponential",
     constant_field(np.eye(2), (1.0, 0.0)),
     lambda pts: np.exp(pts[:, 0]) * np.sin(pts[:, 1]),
     lambda pts: np.exp(pts[:, 0]) * np.sin(pts[:, 1])),
    ("variable_diagonal",
     CoefficientField(
         a=lambda pts: np.stack(
             [np.stack([1.0 + 0.3 * np.sin(pts[:, 0]),
                        np.zeros(len(pts))], axis=1),
              np.stack([np.zeros(len(pts)), np.ones(len(pts))], axis=1)],
             axis=1),
         b=lambda pts: np.zeros((len(pts), 2))),
     lambda pts: np.cos(pts[:, 0]) + pts[:, 1] ** 4 / 12.0,
     lambda pts: -(1.0 + 0.3 * np.sin(pts[:, 0])) * np.cos(pts[:, 0])
         + pts[:, 1] ** 2),
    ("mixed_derivative",
     constant_field([[1.0, 0.2], [0.2, 1.0]]),
     lambda pts: np.sin(pts[:, 0] + pts[:, 1]),
     lambda pts: -2.4 * np.sin(pts[:, 0] + pts[:, 1])),
)

_EXACT_FIELD = constant_field([[1.2, 0.3], [0.3, 0.9]])


def _exact_quadratic(pts):
    x, y = pts[:, 0], pts[:, 1]
    return (0.9 * x ** 2 + 0.8 * x * y - (22.0 / 15.0) * y ** 2
            + 0.5 * x - 0.3 * y + 0.25)


def _run_solver_validation(doc: dict, out_dir: Path) -> dict:
    """Convergence orders, the exact quadratic and the randomized operators.

    One grid per spacing serves every check, and each randomized operator
    is assembled once per spacing, so its maximum-principle and implied-C
    solves on the coarse grid share one LU factor.
    """
    rng = np.random.default_rng(doc.get("seed", _DEFAULT_SEED))
    hs = _RESOLUTIONS
    grids = [DiskGrid(1.0, h) for h in hs]
    rows = []

    orders = {}
    for name, field, u_exact, rhs_fn in _SMOOTH_CASES:
        order = convergence_order(field, u_exact, rhs_fn, grids)
        orders[name] = order
        ok = abs(order - 2.0) <= 0.2
        rows.append([name, "order", repr(min(hs)), repr(order), int(ok)])

    exact_errs = []
    for grid in grids[:2]:
        op = assemble(_EXACT_FIELD, grid)
        bc = grid.boundary_from_function(_exact_quadratic)
        u = solve_dirichlet(op, grid.zeros(), bc)
        err = float(np.max(np.abs(u.values - _exact_quadratic(grid.coords))))
        exact_errs.append(err)
        ok = err <= 1e-10
        rows.append(["frozen_quadratic", "exact", repr(grid.h), repr(err),
                     int(ok)])

    mp_excess = []
    spreads = []
    coarse, fine = grids[:2]
    for i in range(_OPERATORS):
        field, boundary_fn, forcing_fn = _random_operator(rng)
        op = assemble(field, coarse)
        bc = coarse.boundary_from_function(boundary_fn)
        u0 = solve_dirichlet(op, coarse.zeros(), bc)
        excess = float(np.max(u0.values) - np.max(bc.values))
        mp_excess.append(excess)
        ok = excess <= 1e-10
        rows.append([f"op{i:02d}", "max_principle", repr(coarse.h),
                     repr(excess), int(ok)])

        implied = []
        for o in (op, assemble(field, fine)):
            f = o.grid.field_from_function(forcing_fn)
            b = o.grid.boundary_from_function(lambda pts: np.zeros(len(pts)))
            uf = solve_dirichlet(o, f, b)
            implied_C, passed = abp_check(uf, f, b)
            implied.append(implied_C)
            rows.append([f"op{i:02d}", "implied_c", repr(o.grid.h),
                         repr(float(implied_C)), int(passed)])
        spread = abs(implied[0] - implied[1]) / max(abs(implied[0]),
                                                    abs(implied[1]), 1e-300)
        spreads.append(spread)
        ok = spread <= 0.2
        rows.append([f"op{i:02d}", "implied_c_spread", repr(fine.h),
                     repr(spread), int(ok)])

    _write_rows(out_dir / f"{doc['id']}_trace.csv",
                ["case", "kind", "h", "value", "ok"], rows)
    limits = {
        "orders": orders,
        "exact_sup_error": max(exact_errs),
        "mp_max_excess": max(mp_excess),
        "implied_c_max_spread": max(spreads) if spreads else 0.0,
        "operators": _OPERATORS,
    }
    return _base_report(doc, _suite_verdict(rows), limits, {})


def _run_modulus_check(doc: dict, out_dir: Path) -> dict:
    families = doc.get("families", _FAMILIES)
    rows = []
    checked = 0
    skipped = 0
    worst_ratio = 0.0

    for fam in families:
        omega = parse_modulus(fam["id"])
        r_hi = omega.r_max if math.isfinite(omega.r_max) else 1.0
        scan = np.geomspace(r_hi * 1e-12, r_hi, 64)
        vals = omega.eval(scan)
        monotone = bool(np.all(np.diff(vals) >= -1e-12 * max(vals[-1], 1e-300)))
        at_zero = omega.eval_log(-1e300) <= 1e-200
        doubling = doubling_check(omega)
        class_ok = math.isfinite(dini_integral(omega)) == fam["dini"]
        base_ok = monotone and at_zero and doubling and class_ok
        rows.append([fam["id"], "invariants", "", "", "", int(base_ok)])

        for lam in _LAMS:
            for k0 in range(1, _K0_MAX + 1):
                if lam ** (k0 - 1) > omega.r_max * (1.0 + 1e-12):
                    skipped += 1
                    continue
                tail, bound = dini_tail_sum(omega, lam, k0)
                checked += 1
                if math.isinf(tail) and math.isinf(bound):
                    ok = not fam["dini"]
                else:
                    ok = tail <= bound * (1.0 + 1e-9)
                    if bound > 0.0:
                        worst_ratio = max(worst_ratio, tail / bound)
                rows.append([fam["id"], "tail_sum", repr(lam), k0,
                             repr(float(tail)), int(ok)])

    _write_rows(out_dir / f"{doc['id']}_trace.csv",
                ["family", "kind", "lam", "k0", "value", "ok"], rows)
    limits = {
        "families": len(families),
        "combos_checked": checked,
        "combos_skipped_out_of_domain": skipped,
        "max_tail_to_bound": worst_ratio,
    }
    return _base_report(doc, _suite_verdict(rows), limits, {})
