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
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
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
    claim,
    limit_coeffs,
    perturbation_sweep,
    trace_rows,
    verify_recurrence,
)
from .elliptic import (abp_check, assemble, convergence_order, solve_dirichlet,
                       sup_errors, trim_heap)
from .errors import RegistryError, ScenarioError, SchemaVersionError
from .fields import CoefficientField, constant_field
from .grid import disk_grid
from .manufactured import get_problem
from .modulus import (dini_integral, dini_tail_sum, doubling_check, log_power,
                      power, zero_modulus)
from .semilinear import PicardConfig, picard_solve

SCHEMA_VERSION = 1

_COMMON_KEYS = {"v", "id", "mode", "seed", "description"}

_DEFAULT_SEED = 20260822
# The rungs of a probe document that sets no iteration.K.
_DEFAULT_K = 6

# A grid of c cells has about pi c^2 nodes; a numeric run peaked at 1.6 KB
# a node at 64-192 cells.  At 2 KiB a node, 4 GiB holds 817 cells.
_GRID_BUDGET_BYTES, _NODE_BYTES = 4 << 30, 2048
_MAX_CELLS = math.sqrt(_GRID_BUDGET_BYTES / (math.pi * _NODE_BYTES))

# The fixed suites.  lemma25_sweep passes when the sweep's log-log slope
# reaches _MIN_SLOPE.  solver_validation fits its convergence orders on
# _RESOLUTIONS and draws _OPERATORS randomized operators from the seed,
# and _WORKERS threads run its coarser solves beside its finest ones, since
# SuperLU lets go of the GIL while it factors (see _run_solver_validation).
# modulus_check checks the (label, modulus, Dini or not) rows of
# _FAMILIES, on both sides of the Dini threshold, and sums each family's
# tails at every ratio of _LAMS from k0 = 1 to _K0_MAX.
_MIN_SLOPE = 0.15
_RESOLUTIONS = (1 / 32, 1 / 64, 1 / 128)
_OPERATORS = 20
_WORKERS = 2
_LAMS = (0.125, 0.2, 0.25)
_K0_MAX = 6
_FAMILIES = (
    ("power:0.5", power(0.5), True),
    ("power:1.0", power(1.0), True),
    ("log_power:2.0", log_power(2.0), True),
    ("log_power:1.0", log_power(1.0), False),
    ("log_inverse", log_power(1.0), False),
    ("zero", zero_modulus(), True),
)


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
    if type(doc["v"]) is not int or doc["v"] != SCHEMA_VERSION:
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
    allowed = _COMMON_KEYS | _MODES[mode][0]
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


def _write_rows(path, header, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    atomic_write_text(path, buf.getvalue())


def _suite_verdict(rows) -> str:
    """A check suite passes when every check's row ends in its ok = 1."""
    return "pass" if all(row[-1] for row in rows) else "failed"


def run_scenario(doc: dict, out_dir) -> dict:
    """Execute a validated scenario; write its artifacts; return the report."""
    out_dir = Path(out_dir)
    header, rows, report = _MODES[doc["mode"]][1](doc)
    _write_rows(out_dir / f"{doc['id']}_trace.csv", header, rows)
    atomic_write_text(out_dir / f"{doc['id']}_report.json",
                      json.dumps(sanitize(report), indent=2,
                                 allow_nan=False) + "\n")
    return report


def _base_report(doc: dict, verdict: str, limits: dict, flags: dict) -> dict:
    flags = dict(flags)
    flags["seed"] = doc.get("seed", _DEFAULT_SEED)
    return {
        "v": SCHEMA_VERSION,
        "scenario_id": doc["id"],
        "mode": doc["mode"],
        "verdict": verdict,
        "config": dict(doc),
        "limits": limits,
        "flags": flags,
    }


def _run_probe(doc: dict) -> tuple:
    problem = get_problem(doc["problem"])
    K = doc.get("iteration", {}).get("K", _DEFAULT_K)
    u = solved = None
    if doc.get("data_mode", "manufactured") == "numeric":
        cells = doc["grid"]["cells"]
        grid = disk_grid(1.0, 1.0 / cells)
        op = assemble(problem.field, grid)
        boundary = grid.boundary_from_function(problem.u)
        picard = PicardConfig(**doc.get("picard", {}))
        solved = picard_solve(op, problem.nonlinearity, boundary, picard)
        u = solved.u

    probe = c1_probe if doc["mode"] == "c1" else c11_probe
    trace = probe(problem, K, u=u)
    margins = verify_recurrence(trace) if len(trace.records) >= 2 else None
    last = trace.records[-1]
    limits = {
        "final_n": last.N,
        "s_last": last.S,
        "m_first": trace.records[0].M,
        "m_last": last.M,
        "worst_margin": min(margins) if margins else None,
        "ok_fraction": (sum(m >= 0.0 for m in margins) / len(margins)
                        if margins else None),
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
    report = _base_report(dict(doc, iteration=iteration), certificate(trace),
                          limits, flags)
    # outside limits, whose keys the benchmark's reference pins
    report["claim"] = claim(trace, problem)
    return (*trace_rows(trace), report)


def _run_sweep(doc: dict) -> tuple:
    sweep = perturbation_sweep()
    rows = []
    for i, shape in enumerate(sweep.shapes):
        for j, e in enumerate(SWEEP_EPSILONS):
            rows.append([repr(float(e)), shape, repr(float(sweep.ratios[i, j]))])
    verdict = "pass" if sweep.slope >= _MIN_SLOPE else "failed"
    limits = {
        "slope": sweep.slope,
        "alpha_estimate": sweep.slope,
        "min_slope": _MIN_SLOPE,
        "epsilons": list(SWEEP_EPSILONS),
        "mean_ratios": np.mean(sweep.ratios, axis=0),
    }
    return (["epsilon", "shape", "ratio"], rows,
            _base_report(doc, verdict, limits, {"shapes": list(sweep.shapes)}))


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


def _operator_checks(i, field, boundary_fn, forcing_fn, grid, coarse) -> list:
    """Operator ``i``'s (value, trace row) checks on ``grid``: its implied C,
    after its maximum-principle excess from one factor on the coarse grid."""
    op = assemble(field, grid)
    checks = []
    if coarse:
        bc = grid.boundary_from_function(boundary_fn)
        u0 = solve_dirichlet(op, grid.zeros(), bc)
        excess = float(np.max(u0.values) - np.max(bc.values))
        checks.append((excess, [f"op{i:02d}", "max_principle", repr(grid.h),
                                repr(excess), int(excess <= 1e-10)]))
    f = grid.field_from_function(forcing_fn)
    b = grid.boundary_from_function(lambda pts: np.zeros(len(pts)))
    implied_C, passed = abp_check(solve_dirichlet(op, f, b), f, b)
    return checks + [(implied_C, [f"op{i:02d}", "implied_c", repr(grid.h),
                                  repr(float(implied_C)), int(passed)])]


def _run_solver_validation(doc: dict) -> tuple:
    """Convergence orders, the exact quadratic and the randomized operators.

    The checks split into one solve per (check, grid from ``disk_grid``); a
    randomized operator's two coarse-grid solves share one LU factor.
    ``_WORKERS`` threads run every coarse-grid solve while this thread runs
    the finest grid's 7-point ones, whose factors fill about twice as much,
    then every middle-grid solve while this thread runs the finest 5-point
    ones.  Once a solve fails no queued solve starts, and the first failure
    in the checks' serial order is raised; the rows are built in that
    order, so the artifacts and errors are those of a serial loop.
    """
    rng = np.random.default_rng(doc.get("seed", _DEFAULT_SEED))
    grids = [disk_grid(1.0, h) for h in _RESOLUTIONS]
    cases = [(field, u, rhs, grids) for _, field, u, rhs in _SMOOTH_CASES]
    cases.append((_EXACT_FIELD, _exact_quadratic,
                  lambda pts: np.zeros(len(pts)), grids[:2]))
    # ((phase, on the pool), solve) in the serial order of the checks
    solves = []
    for field, u, rhs, on in cases:
        finest = 0 if np.any(field.eval_a(grids[0].coords)[:, 0, 1]) else 1
        solves += [((level, True) if level < 2 else (finest, False),
                    partial(sup_errors, field, u, rhs, (grid,)))
                   for level, grid in enumerate(on)]
    for i in range(_OPERATORS):
        draw = _random_operator(rng)
        solves += [((level, True), partial(_operator_checks, i, *draw,
                                           grids[level], level == 0))
                   for level in (0, 1)]
    results = [None] * len(solves)
    futures, lock, failed = [], threading.Lock(), threading.Event()

    def run(k):
        try:
            results[k] = solves[k][1]()
        except Exception as exc:
            results[k] = exc
            with lock:  # after a failure no queued solve starts
                failed.set()
                for future in futures:
                    future.cancel()

    pool = ThreadPoolExecutor(_WORKERS)
    try:
        for phase in (0, 1):
            with lock:
                if not failed.is_set():
                    futures += [pool.submit(run, k) for k, (at, _) in
                                enumerate(solves) if at == (phase, True)]
            for k, (at, _) in enumerate(solves):
                if at == (phase, False) and not failed.is_set():
                    run(k)
        wait(futures)
    finally:  # after an interrupt no queued solve starts
        pool.shutdown(cancel_futures=True)
    # the workers' arenas hold the freed factors: on a 2-core VM the
    # benchmark peaked at 175-184 MB with this trim, 181-190 MB without it
    trim_heap()
    if failed.is_set():
        raise next(r for r in results if isinstance(r, Exception))

    done = iter(results)
    rows, orders = [], {}
    for name, *_ in _SMOOTH_CASES:
        order = orders[name] = convergence_order(
            [grid.h for grid in grids], [next(done)[0] for _ in grids])
        rows.append([name, "order", repr(min(_RESOLUTIONS)), repr(order),
                     int(abs(order - 2.0) <= 0.2)])
    exact_errs = [next(done)[0] for _ in grids[:2]]
    rows += [["frozen_quadratic", "exact", repr(grid.h), repr(err),
              int(err <= 1e-10)] for grid, err in zip(grids, exact_errs)]
    mp_excess, spreads = [], []
    for i, ((mp, (c0, row0)), ((c1, row1),)) in enumerate(zip(done, done)):
        spreads.append(abs(c0 - c1) / max(abs(c0), abs(c1), 1e-300))
        mp_excess.append(mp[0])
        rows += [mp[1], row0, row1, [f"op{i:02d}", "implied_c_spread",
                                     repr(grids[1].h), repr(spreads[-1]),
                                     int(spreads[-1] <= 0.2)]]

    limits = {
        "orders": orders,
        "exact_sup_error": max(exact_errs),
        "mp_max_excess": max(mp_excess),
        "implied_c_max_spread": max(spreads) if spreads else 0.0,
        "operators": _OPERATORS,
    }
    return (["case", "kind", "h", "value", "ok"], rows,
            _base_report(doc, _suite_verdict(rows), limits, {}))


def _run_modulus_check(doc: dict) -> tuple:
    rows = []
    checked = 0
    skipped = 0
    worst_ratio = 0.0

    for label, omega, dini in _FAMILIES:
        r_hi = omega.r_max if math.isfinite(omega.r_max) else 1.0
        scan = np.geomspace(r_hi * 1e-12, r_hi, 64)
        vals = omega.eval(scan)
        monotone = bool(np.all(np.diff(vals) >= -1e-12 * max(vals[-1], 1e-300)))
        at_zero = omega.eval_log(-1e300) <= 1e-200
        doubling = doubling_check(omega)
        class_ok = math.isfinite(dini_integral(omega)) == dini
        base_ok = monotone and at_zero and doubling and class_ok
        rows.append([label, "invariants", "", "", "", int(base_ok)])

        for lam in _LAMS:
            for k0 in range(1, _K0_MAX + 1):
                if lam ** (k0 - 1) > omega.r_max * (1.0 + 1e-12):
                    skipped += 1
                    continue
                tail, bound = dini_tail_sum(omega, lam, k0)
                checked += 1
                if math.isinf(tail) and math.isinf(bound):
                    ok = not dini
                else:
                    ok = tail <= bound * (1.0 + 1e-9)
                    if bound > 0.0:
                        worst_ratio = max(worst_ratio, tail / bound)
                rows.append([label, "tail_sum", repr(lam), k0,
                             repr(float(tail)), int(ok)])

    limits = {
        "families": len(_FAMILIES),
        "combos_checked": checked,
        "combos_skipped_out_of_domain": skipped,
        "max_tail_to_bound": worst_ratio,
    }
    return (["family", "kind", "lam", "k0", "value", "ok"], rows,
            _base_report(doc, _suite_verdict(rows), limits, {}))


# mode -> (the document keys it takes beside _COMMON_KEYS, its runner); a
# runner maps doc -> (trace header, trace rows, report) and writes nothing
_PROBE_KEYS = {"problem", "iteration", "data_mode", "grid", "picard"}
_MODES = {
    "c1": (_PROBE_KEYS, _run_probe),
    "c11": (_PROBE_KEYS, _run_probe),
    "lemma25_sweep": (set(), _run_sweep),
    "solver_validation": (set(), _run_solver_validation),
    "modulus_check": (set(), _run_modulus_check),
}
MODES = tuple(_MODES)
