"""Multiscale polynomial approximation probes.

The certificate engine: measure how well the gap between a solution u and
its frozen-coefficient potential v is tracked by polynomials across
geometrically shrinking balls around the origin.  Each scale solves the
comparison problem on the rescaled gap (``approximate``; a ladder solves
all its scales as one batch), fits its solution h by a polynomial at the
origin and folds that into the approximant.  The
ladder only measures: a rung's record holds M_k, bar, gap |w - h| on h's
nodes, fdev, u_sup and increment.  ``recurrence_model`` turns any prefix
of the records, the problem's declared constants and the calibrated
constants below into N_k, the xi_k and eta_k of M_{k+1} <= xi_k * M_k +
eta_k, and the smallness flag; all reach the trace.  The scale ratio, the
calibrated constants and the verdict thresholds are fixed: a run's only
input is its number of rungs K.

A run certifies first-order (mode "c1", affine approximants: G = 0) or
second-order (mode "c11", quadratic approximants) behaviour at the origin
when the distance N_k to the limiting polynomial, with the last rung's
resolution and round-off bars added, falls below tolerance with a
monotone tail.  A resolved sup sequence (the rungs above their bars)
that stops decaying is reported as failed; a run cut short by the
resolution floor, or stopped where round-off alone exceeds the tolerance,
is inconclusive.  ``claim`` states what the records assert about u.  The
probe never repairs a trace to reach a verdict.
"""
from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .elliptic import LinearOperator, assemble, solve_dirichlet
from .errors import CalibrationError, FieldValidationError, FitError
from .fields import DRIFT_Q, constant_drift_norm, constant_field, perturbed_field
from .grid import DiscreteField, bicubic_sampler, disk_grid

_TINY_SUP = 1e-10
_STALL_RATIO = 0.95

# The fixed resolutions of every ladder, sweep and calibration: the frozen
# comparison operator has SUB_CELLS spacings across its radius, and a
# ball's sup is sampled on a lattice of SUP_CELLS spacings across its.
SUB_CELLS = 32
SUP_CELLS = 48
# The perturbation sizes of the sweep and of the calibration's holdout, and
# the spacings across the unit disk of the sweep's and the calibration's
# perturbed operators.
SWEEP_EPSILONS = (0.02, 0.05, 0.1, 0.2)
SWEEP_CELLS = 48

# The scale ratio of every ladder, and C0, C1, C2 and ALPHA as
# ``calibrate_constants()`` measures them at that ratio: this is their one
# record, and a recalibration changes them here.  Only ``recurrence_model``
# computes with them (a probe report echoes them); with the problem's
# declared nu, drift_bound, tau, ellipticity, omega_a, omega_b and T it
# turns the records into xi/eta and the smallness flag.
LAM = 0.2
C0 = 2.5625000960919557
C1 = 0.01746397470151538
C2 = 0.03593896907407683
ALPHA = 0.1905493004670684
# The verdict thresholds: a certificate needs N_K <= CERT_TOL, and the
# recurrence check allows M_{k+1} <= SAFETY * (xi_k M_k + eta_k).
CERT_TOL = 1e-3
SAFETY = 1.5
# The most rungs a ladder takes: rung k divides by LAM**(2k), which must
# stay a normal float (220 at LAM = 0.2).
K_MAX = int(math.log(sys.float_info.min) / (2.0 * math.log(LAM)))


# ---------------------------------------------------------------------------
# approximants


@dataclass(frozen=True)
class QuadApprox:
    """Quadratic approximant P(x) = E + F.x + x^T G x with symmetric G.

    The first-order ladder's affine approximants are the case G = 0.
    """

    E: float
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "E", float(self.E))
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float).reshape(2))
        G = np.asarray(self.G, dtype=float).reshape(2, 2)
        if not (math.isfinite(self.E) and np.all(np.isfinite(self.F))
                and np.all(np.isfinite(G))):
            raise FieldValidationError("approximant coefficients must be finite")
        if abs(G[0, 1] - G[1, 0]) > 1e-12 * max(1.0, float(np.abs(G).max())):
            raise FieldValidationError("quadratic coefficient matrix must be symmetric")
        object.__setattr__(self, "G", 0.5 * (G + G.T))

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        affine = self.E + pts @ self.F
        G = self.G
        if not G.any():  # an affine approximant skips four zero terms
            return affine
        x, y = pts[:, 0], pts[:, 1]
        # the terms and the order of einsum("ni,ij,nj->n"), so the same bits
        quad = x * G[0, 0] * x + x * G[0, 1] * y + y * G[1, 0] * x + y * G[1, 1] * y
        return affine + quad

    def frozen_trace(self, a0) -> float:
        """Value of sum_ij a0_ij * 2 G_ij, zero for admissible approximants."""
        return float(2.0 * np.sum(np.asarray(a0, dtype=float) * self.G))


# ---------------------------------------------------------------------------
# trace containers


@dataclass(frozen=True)
class ScaleRecord:
    """One rung of the ladder; docs/report_schema.md (Trace CSV) defines it."""

    k: int
    scale: float
    M: float
    S: float
    approx: QuadApprox
    sup_error_bar: float
    measure_radius: float
    # ``recurrence_model`` sets N, xi and eta; xi, eta and the rest come
    # from the comparison solve that leads to the next rung, so the last
    # rung leaves them NaN/None
    N: float = math.nan
    xi: float = math.nan
    eta: float = math.nan
    gap: float = math.nan
    fdev: float = math.nan
    u_sup: float = math.nan
    phi_u: float = math.nan
    phi_scale: float = math.nan
    increment: QuadApprox | None = None
    roundoff: float = 0.0


@dataclass(frozen=True)
class IterationTrace:
    mode: str
    records: tuple
    flags: dict

    @property
    def limit(self) -> QuadApprox:
        """The limiting polynomial: the last rung's approximant."""
        return self.records[-1].approx

    @property
    def M_values(self) -> np.ndarray:
        return np.array([r.M for r in self.records])

    @property
    def N_values(self) -> np.ndarray:
        return np.array([r.N for r in self.records])


@dataclass(frozen=True)
class SweepResult:
    """The sweep's gap ratios, indexed [shape, eps], their log-log slope,
    and the perturbed solutions, ``solutions[shape][eps]``, that the
    calibration's one-step experiments reuse."""

    shapes: tuple
    ratios: np.ndarray
    slope: float
    solutions: tuple


# ---------------------------------------------------------------------------
# sup norms over balls


_REFINE = 3


# a process keeps four plans; every ladder and sweep uses SUP_CELLS or
# SUB_CELLS
@functools.lru_cache(maxsize=4)
def _sup_plan(cells):
    """The read-only integer lattice points (i, j) with i^2 + j^2 <= cells^2,
    the 720 unit rim directions and the integer refine offsets: the parts
    of ``ball_sup``'s sample plan that do not depend on the radius."""
    ax = np.arange(-cells, cells + 1)
    gi, gj = np.meshgrid(ax, ax, indexing="ij")
    inside = gi * gi + gj * gj <= cells * cells
    lattice = np.stack([gi[inside], gj[inside]], axis=1)
    ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    rim = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = np.arange(-2 * _REFINE, 2 * _REFINE + 1)
    lx, ly = np.meshgrid(w, w, indexing="ij")
    offsets = np.stack([lx.ravel(), ly.ravel()], axis=1)
    for part in (lattice, rim, offsets):
        part.flags.writeable = False
    return lattice, rim, offsets


def ball_sup(fn, radius, cells=SUP_CELLS):
    """Sup of |fn| over the closed ball, with a crude resolution error bar.

    The sample plan is the disk lattice of spacing radius/cells plus 720
    rim points, then a window refined ``_REFINE``-fold around the argmax;
    ``fn`` sees each part once, so the ladder reads its other per-rung
    sups from the same samples.  The plan's integer lattice, unit rim and
    integer window are built once per ``cells`` in a process
    (``_sup_plan``); a call only scales them, which gives each point the
    bits of building it afresh.  The bar is 2 * (fine spacing) * (local
    Lipschitz estimate).
    """
    step = radius / cells
    lattice, rim, offsets = _sup_plan(cells)
    allpts = np.concatenate([lattice * step, radius * rim], axis=0)
    vals = np.abs(np.asarray(fn(allpts), dtype=float))
    best = int(np.argmax(vals))
    coarse_sup = float(vals[best])
    center = allpts[best]

    fine = step / _REFINE
    local = center[None, :] + offsets * fine
    rho = np.hypot(local[:, 0], local[:, 1])
    outside = rho > radius
    if np.any(outside):
        local[outside] *= (radius / rho[outside])[:, None]
    lvals = np.abs(np.asarray(fn(local), dtype=float))
    sup = max(coarse_sup, float(lvals.max()))

    dist = np.hypot(local[:, 0] - center[0], local[:, 1] - center[1])
    near = dist > 0.0
    lip = float(np.max(np.abs(lvals[near] - coarse_sup) / dist[near])) if np.any(near) else 0.0
    return sup, 2.0 * fine * lip


# ---------------------------------------------------------------------------
# frozen-coefficient comparison and polynomial extraction


def comparison_operator(a0) -> LinearOperator:
    """The frozen operator a0 : D^2 that ``approximate`` solves with, on
    ``disk_grid(0.75, 0.75 / SUB_CELLS)``, the grid every a0 shares: the
    operator of a0's ``_comparison_build``, assembled and factored once
    per process and written by no caller."""
    return _comparison_build(tuple(np.ravel(a0).tolist()))[0]


def approximate(w_fn, op: LinearOperator) -> DiscreteField:
    """Solve L h = 0, L the operator of ``op``, with h = w on the rim of
    its disk; return h.  ``w_fn`` gives one value per rim point, or a row
    of K values for a batch of K problems, and h holds as many columns.

    ``_frozen_comparisons`` passes its build's frozen operator and all the
    rungs of a ladder, or the calibration's one rung, at once;
    ``_gap_ratio`` passes ``comparison_operator(I)`` and the sweep its
    perturbed operators, one problem each.  ``op`` keeps its LU factor, so
    solves after the first are triangular substitutions only.
    """
    rim = op.grid.boundary_from_function(w_fn)
    zeros = np.zeros((op.grid.n_interior, *rim.values.shape[1:]))
    return solve_dirichlet(op, DiscreteField(op.grid, zeros, "interior"), rim)


# Each a(0)'s frozen comparison, built once per process and read-only: its
# operator and its grid's node sets.  A process keeps four; every bundled
# ladder, sweep and calibration reads one, that of a(0) = I.
@functools.lru_cache(maxsize=4)
def _comparison_build(entries):
    """(op, near, nodes, fit, affine pinv, quadratic pinv) for the a0 whose
    rows are ``entries``: its operator on ``disk_grid(0.75, 0.75 /
    SUB_CELLS)``, the mask of the grid's nodes within 1/2 of the origin and
    those nodes, the mask among them of the fit nodes, those within LAM,
    and the pseudo-inverses of the fit's design on the fit nodes, columns
    1, x1, x2, then x1^2, x1 x2, x2^2.

    Raises FitError when LAM spans fewer than 4 grid spacings or a design
    has lower rank than it has columns.
    """
    grid = disk_grid(0.75, 0.75 / SUB_CELLS)
    if LAM < 4.0 * grid.h * (1.0 - 1e-12):
        raise FitError(
            f"fit radius {LAM} spans fewer than 4 spacings of {grid.h}")
    pts = grid.coords
    near = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.25
    nodes = pts[near]
    fit = nodes[:, 0] ** 2 + nodes[:, 1] ** 2 <= LAM * LAM
    d = nodes[fit]
    design = np.stack([np.ones(len(d)), d[:, 0], d[:, 1], d[:, 0] ** 2,
                       d[:, 0] * d[:, 1], d[:, 1] ** 2], axis=1)
    sets = [near, nodes, fit]
    for width in (3, 6):
        pinv, _, rank, _ = np.linalg.lstsq(design[:, :width], np.eye(len(d)),
                                           rcond=None)
        if rank < width:
            raise FitError(
                f"rank-deficient fit: {len(d)} nodes inside radius {LAM}")
        sets.append(pinv)
    for array in sets:
        array.flags.writeable = False
    return (assemble(constant_field(np.reshape(entries, (2, 2))), grid),
            *sets)


def _gap_ratio(w: DiscreteField) -> float:
    """sup |w - h| / sup |w| for h = ``approximate(w)`` with the comparison
    operator of a0 = I, the sup over the half ball on a lattice of the
    comparison grid's SUB_CELLS spacings across its radius, with w and h
    both sampled bicubically; the sweep's and the holdout's measure."""
    w_fn = bicubic_sampler(w)
    h_fn = bicubic_sampler(approximate(w_fn, comparison_operator(np.eye(2))))
    gap, _ = ball_sup(lambda p: w_fn(p) - h_fn(p), 0.5, cells=SUB_CELLS)
    return gap / w.sup_norm()


def taylor_fit(rows, pinv, order, a0):
    """Polynomial behaviour at the origin by least squares: one QuadApprox
    per column of ``rows``, an (m, K) block of values on the fit nodes of
    ``_comparison_build`` (those within LAM), with ``pinv`` the
    pseudo-inverse of their design for ``order``.  Each column is its own
    matrix-vector product, so its bits do not depend on the batch.

    An order-1 fit is affine, G = 0.  For order 2 the quadratic part is
    projected onto the subspace with vanishing frozen-coefficient trace,
    so the fit satisfies sum a0_ij * 2 G_ij = 0.
    """
    fits = []
    for col in np.ascontiguousarray(rows.T):
        sol = pinv @ col
        G = np.zeros((2, 2))
        if order == 2:
            G = np.array([[sol[3], 0.5 * sol[4]], [0.5 * sol[4], sol[5]]])
            G = G - (np.sum(G * a0) / np.sum(a0 * a0)) * a0
        fits.append(QuadApprox(sol[0], sol[1:3], G))
    return tuple(fits)


# ---------------------------------------------------------------------------
# the multiscale ladder


def recurrence_model(mode: str, records, problem):
    """Finish a ladder: the ``records`` with N_k, xi_k and eta_k set, and
    the smallness flag (rung 0's oscillation term against LAM**(order+1)).

    N_k is measured against the last record's approximant as the limit, so
    any prefix of a deeper ladder is modelled as a ladder of its own depth.
    Each compared rung gets the (xi_k, eta_k) of M_{k+1} <= xi_k M_k +
    eta_k; the last rung's stay NaN.  Pure: of the ``records`` it reads k,
    scale, M, fdev and the approximants (rung k+1's is the folded one); the
    rest is declared by the problem or is LAM and the calibrated C0, C1, C2
    and ALPHA, so a stored trace can be modelled again.
    docs/report_schema.md (The recurrence model) gives the formulas.
    """
    order = 1 if mode == "c1" else 2
    T = problem.potential.hessian_bound
    tau, ell = problem.tau, problem.ellipticity
    tau_term = tau / (2.0 * ell) if order == 2 else 0.0
    drift = [problem.drift_bound * LAM ** (rec.k * (1.0 - 2.0 / DRIFT_Q))
             for rec in records]
    osc = [problem.nu + d if order == 1 else
           problem.omega_a.extended(rec.scale) + tau * rec.scale
           for rec, d in zip(records, drift)]
    limit = records[-1].approx
    finished = []
    for k, (cur, nxt) in enumerate(zip(records, [*records[1:], None])):
        f_dist = float(np.linalg.norm(cur.approx.F - limit.F))
        N = (cur.M + float(np.linalg.norm(cur.approx.G - limit.G))
             + f_dist / cur.scale ** (order - 1)
             + abs(cur.approx.E - limit.E) / cur.scale ** order
             + tau_term * f_dist)
        xi = eta = math.nan
        if nxt is not None:
            xi = (C1 / LAM ** order) * (LAM ** (order + 1) + osc[k] ** ALPHA)
            f_norm = float(np.linalg.norm(cur.approx.F))
            if order == 1:
                eta = (C2 / LAM) * (cur.scale * cur.fdev + T * cur.scale
                                    * osc[k] + drift[k] * f_norm)
            else:
                g_norm = float(np.linalg.norm(cur.approx.G))
                eta = (C2 / LAM ** 2) * (
                    cur.fdev + osc[k] * (T + 2.0 * g_norm + (tau / ell) * f_norm)
                    + problem.omega_b.extended(cur.scale) * f_norm
                ) + tau_term * float(
                    np.linalg.norm(nxt.approx.F - cur.approx.F))
        finished.append(replace(cur, N=N, xi=xi, eta=eta))
    value, bound = osc[0] ** ALPHA, LAM ** (order + 1)
    smallness = {"mode": mode, "oscillation": value, "bound": bound}
    if order == 2:
        smallness["drift_ratio"] = tau * C0 / (2.0 * ell)
    smallness["ok"] = bool(value <= bound
                           and smallness.get("drift_ratio", 0.0) <= 0.25)
    return tuple(finished), smallness


def _drift_correction(a0, b0, F) -> float:
    """c = b(0).F / (2 a11(0)), the coefficient of the c11 drift term
    c x1^2 that the tracked gap adds and the claim states, for the
    approximant's gradient F."""
    return float(b0 @ F) / (2.0 * a0[0, 0])


def _frozen_comparisons(a0, rungs, order, gap_fn):
    """Rung k's fit at the origin and its gap, for every k < ``rungs``,
    from one batched solve with the frozen operator of ``a0``, on the node
    sets of its ``_comparison_build``.

    Column k holds U_k(z) = gap_fn(s z) / s^2, s = LAM**k, less its own
    a(0)-harmonic fit Q_k, and h_k is the solution that matches it on the
    rim.  Rung k's fit is Q_k plus h_k's, and its gap is max |U_k - Q_k -
    h_k| on the nodes within 1/2; docs/report_schema.md (The frozen
    comparison) says why no rung waits for the one before it and why Q_k
    goes first.
    """
    op, near, nodes, fit, *pinvs = _comparison_build(
        tuple(np.ravel(a0).tolist()))
    pinv = pinvs[order - 1]

    def rescaled(k, z):
        scale = LAM ** k
        return gap_fn(z * scale) / (scale * scale)

    at_nodes = np.stack([rescaled(k, nodes) for k in range(rungs)], axis=1)
    pre = taylor_fit(at_nodes[fit], pinv, order, a0)
    h = approximate(lambda z: np.stack(
        [rescaled(k, z) - Q(z) for k, Q in enumerate(pre)], axis=1), op)
    at_nodes -= np.stack([Q(nodes) for Q in pre], axis=1)
    gaps = np.max(np.abs(at_nodes - h.values[near]), axis=0)
    fits = [QuadApprox(Q.E + P.E, Q.F + P.F, Q.G + P.G) for Q, P in
            zip(pre, taylor_fit(h.values[near][fit], pinv, order, a0))]
    return fits, gaps


def _run_ladder(problem, K: int, order: int, u_data):
    mode = "c1" if order == 1 else "c11"
    nl = problem.nonlinearity
    origin = np.zeros((1, 2))
    a0 = problem.field.eval_a(origin)[0]
    b0 = problem.field.eval_b(origin)[0]
    if order == 2 and a0[0, 0] < problem.ellipticity * (1.0 - 1e-12):
        raise FieldValidationError(
            "a11 at the origin sits below the ellipticity constant; "
            "the declared constant is wrong"
        )

    numeric = u_data is not None
    u_fn = bicubic_sampler(u_data) if numeric else problem.u
    u_shift = float(u_fn(origin)[0])
    v_fn = problem.potential.v

    # Numeric data cannot resolve balls much smaller than the grid cell;
    # stop the ladder one rung above the floor and flag the truncation.
    # At the outermost scale the interpolation stencil also cannot reach
    # the rim, so the measurement ball is pulled in by a few spacings.
    K_eff = K
    truncated = False
    safe_radius = math.inf
    if numeric:
        base_h = u_data.grid.h
        safe_radius = u_data.grid.radius - 3.0 * base_h
        while K_eff >= 0 and LAM ** K_eff < 16.0 * base_h * (1.0 - 1e-12):
            K_eff -= 1
            truncated = True
        if K_eff < 0:
            raise FieldValidationError(
                f"grid spacing {base_h} cannot resolve even the unit scale"
            )

    approx = QuadApprox(0.0, np.zeros(2), np.zeros((2, 2)))
    # one frozen operator serves every rung, and every later ladder with the
    # same a(0); a one-rung ladder compares nothing.  One batch compares the
    # rungs below the first whose round-off bar must stop the ladder: each
    # size adds |u_shift| to nonnegative terms.
    floor = float(np.finfo(float).eps * abs(u_shift))
    rungs = next((k for k in range(K_eff)
                  if floor / (LAM ** k) ** order > CERT_TOL), K_eff)
    if rungs:
        fits, gaps = _frozen_comparisons(
            a0, rungs, order, lambda pts: u_fn(pts) - u_shift - v_fn(pts))
    measured = []
    S = 0.0
    for k in range(K_eff + 1):
        scale = LAM ** k
        meas_r = min(scale, safe_radius)

        cur = approx
        # u is evaluated once on the rung's sample plan; the tracked sup,
        # the reaction increment and the sup of u are all read from it
        corr = _drift_correction(a0, b0, cur.F) if order == 2 else 0.0
        sampled = []
        sizes = []

        def tracked(pts, cur=cur, corr=corr):
            u, v, p = u_fn(pts), v_fn(pts), cur(pts)
            drift = corr * pts[:, 0] ** 2
            sampled.append((pts, u))
            # the largest size of the sum's terms, each carrying a relative
            # error of eps
            size = np.abs(u)
            size += abs(u_shift)
            for term in (v, p, drift):
                size += np.abs(term)
            sizes.append(size.max())
            return u - u_shift - v - p + drift

        sup, bar = ball_sup(tracked, meas_r)
        M = sup / scale ** order
        S = S + M
        roundoff = float(np.finfo(float).eps * max(sizes)) / scale ** order
        row = {"k": k, "scale": scale, "M": M, "S": S, "approx": cur,
               "sup_error_bar": bar / scale ** order, "measure_radius": meas_r,
               "roundoff": roundoff}
        # past a rung whose round-off alone exceeds CERT_TOL no rung can
        # resolve a certificate
        if k == K_eff or roundoff > CERT_TOL:
            measured.append(ScaleRecord(**row))
            break

        # the unit-ball increment: rung k's fit less the approximant
        # rescaled to the unit ball, folded in at scale LAM^k
        fit = fits[k]
        inc = QuadApprox(fit.E - cur.E / (scale * scale),
                         fit.F - cur.F / scale, fit.G - cur.G)
        approx = QuadApprox(approx.E + scale * scale * inc.E,
                            approx.F + scale * inc.F, approx.G + inc.G)
        drift_tr = abs(approx.frozen_trace(a0))
        if drift_tr > 1e-9:
            raise FitError(
                f"frozen-coefficient trace drifted to {drift_tr} at scale {k}"
            )

        pts = np.concatenate([p for p, _ in sampled])
        u = np.concatenate([v for _, v in sampled])
        fdev = float(np.max(np.abs(nl.eval(pts, u) - nl.eval(pts, 0.0))))
        u_sup = float(np.max(np.abs(u - u_shift)))
        measured.append(ScaleRecord(
            gap=float(gaps[k]), fdev=fdev, u_sup=u_sup,
            phi_u=nl.modulus.extended(u_sup),
            phi_scale=nl.modulus.extended(scale), increment=inc,
            **row))

    records, smallness = recurrence_model(mode, measured, problem)
    flags = {
        "smallness": smallness,
        "u_shift": u_shift,
        "data_mode": "numeric" if numeric else "manufactured",
        "scale_floor_k": len(records) if truncated else None,
    }
    return IterationTrace(mode=mode, records=records, flags=flags)


def c1_probe(problem, K: int, u=None) -> IterationTrace:
    """First-order ladder of K + 1 rungs: affine approximants, sup
    normalized by scale."""
    return _run_ladder(problem, K, 1, u)


def c11_probe(problem, K: int, u=None) -> IterationTrace:
    """Second-order ladder of K + 1 rungs: trace-free quadratic approximants.

    The tracked sup carries the drift correction term
    (b(0).F_k) x1^2 / (2 a11(0)) and is normalized by scale squared.
    """
    return _run_ladder(problem, K, 2, u)


# ---------------------------------------------------------------------------
# verification and certificates


def verify_recurrence(trace: IterationTrace) -> tuple:
    """The margins SAFETY * (xi_k M_k + eta_k) - M_{k+1} of consecutive
    records; a one-record trace has no step and no margin.

    A step passes when its margin is >= 0; a zero bound met by a zero sup
    has infinite margin.  This is the one place the recurrence is
    evaluated.
    """
    margins = []
    for cur, nxt in zip(trace.records, trace.records[1:]):
        bound = SAFETY * (cur.xi * cur.M + cur.eta)
        margins.append(math.inf if bound == 0.0 and nxt.M == 0.0
                       else bound - nxt.M)
    return tuple(margins)


def _stalled(M: np.ndarray) -> bool:
    if len(M) < 5 or M[-1] <= _TINY_SUP:
        return False
    tail = M[-5:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = tail[1:] / tail[:-1]
    return bool(np.all(ratios > _STALL_RATIO))


def certificate(trace: IterationTrace) -> str:
    """Verdict from the certificate sequence N_k.

    Certified means that over the last three steps (all of a shorter
    ladder) N_k is monotone and ends, with the last rung's resolution and
    round-off bars added, below CERT_TOL while the partial sums of M_k have
    plateaued; a non-decaying tail of the resolved M_k (those above their
    two bars) is failed; anything else, including traces the scale floor
    truncated or the round-off bar stopped, is inconclusive.
    """
    records = trace.records
    resolved = np.array([r.M > r.sup_error_bar + r.roundoff for r in records])
    M = trace.M_values[resolved]
    N = trace.N_values[-4:]
    S = [r.S for r in records[-4:]]
    slack = 1e-9 * np.maximum(N[:-1], 1e-300)
    tail_monotone = bool(np.all(np.diff(N) <= slack))
    sum_plateau = S[-1] - S[0] <= max(0.05 * S[-1], 1e-9)

    if trace.flags["scale_floor_k"] is not None:
        return "inconclusive"
    if _stalled(M):
        return "failed"
    last = records[-1]
    if (N[-1] + last.sup_error_bar + last.roundoff <= CERT_TOL
            and tail_monotone and sum_plateau):
        return "C1_certified" if trace.mode == "c1" else "C11_certified"
    return "inconclusive"


def claim(trace: IterationTrace, problem) -> dict:
    """What the ladder's records claim about the data u it read.

    For every rung k and every radius r with LAM**(k+1) <= r <= radius_k
    (the ball the rung measured, LAM**k unless numeric data cannot reach
    its rim):

        sup over B_r of |u - u(0) - v - P + c x1^2| <= bound_k (r / LAM)**order

    with P the limit polynomial, bound_k = N_k + bar_k + roundoff_k and,
    as in the tracked gap, c = b(0).F / (2 a11(0)) in c11 and 0 in c1.
    Nothing is claimed below LAM times the last rung's scale.  N_k bounds
    M_k and the distance from rung k's approximant to P on B_(LAM**k), and
    the two bars bound how far the measured M_k may sit below the true
    sup; a certified verdict asserts the claim.  docs/report_schema.md
    (The claim block) gives the derivation.
    """
    order = 1 if trace.mode == "c1" else 2
    corr = 0.0
    if order == 2:
        origin = np.zeros((1, 2))
        corr = _drift_correction(problem.field.eval_a(origin)[0],
                                 problem.field.eval_b(origin)[0],
                                 trace.limit.F)
    return {"order": order, "drift_correction": corr,
            "radii": [r.measure_radius for r in trace.records],
            "bounds": [r.N + r.sup_error_bar + r.roundoff
                       for r in trace.records]}


# ---------------------------------------------------------------------------
# perturbation sweep and constant calibration


def _sweep_shapes():
    def s1(pts):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return np.cos(th) + 0.5 * np.sin(2.0 * th)

    def s2(pts):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return np.sin(th) - 0.3 * np.cos(3.0 * th)

    def s3(pts):
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return np.cos(2.0 * th) + 0.4 * np.sin(th)

    return (("wave1", s1), ("wave2", s2), ("wave3", s3))


def perturbation_sweep() -> SweepResult:
    """Frozen-coefficient gap against coefficient perturbation size.

    For each boundary shape and each eps of SWEEP_EPSILONS, solves with
    the perturbed matrix field, compares against the frozen solve sharing
    its trace, and reports gap / sup|w|, the gap measured with the
    ladder's comparison operator.  The log-log slope across eps is the headline number; it
    must come out positive for the approximation law to hold.
    Each perturbed operator is assembled once for all the shapes, and one
    frozen operator serves every comparison.
    """
    shapes = _sweep_shapes()
    grid = disk_grid(1.0, 1.0 / SWEEP_CELLS)
    ratios = np.zeros((len(shapes), len(SWEEP_EPSILONS)))
    solutions = [[None] * len(SWEEP_EPSILONS) for _ in shapes]
    for j, eps in enumerate(SWEEP_EPSILONS):
        op = assemble(perturbed_field(eps), grid)
        for i, (_, shape_fn) in enumerate(shapes):
            solutions[i][j] = approximate(shape_fn, op)
            ratios[i, j] = _gap_ratio(solutions[i][j])
    mean_ratio = ratios.mean(axis=0)
    slope = float(np.polyfit(np.log(SWEEP_EPSILONS), np.log(mean_ratio), 1)[0])
    return SweepResult(shapes=tuple(name for name, _ in shapes),
                       ratios=ratios, slope=slope,
                       solutions=tuple(map(tuple, solutions)))


def _boundary_exponent():
    """Measured boundary growth exponent of the Dirichlet solver.

    Solves on 96 spacings across the unit disk with boundary data vanishing
    like |angle|^p at a rim point and fits sup |u| over shrinking
    half-balls at that point; the fitted slope is the exponent the solver
    actually delivers for rough data.
    """
    grid = disk_grid(1.0, 1.0 / 96)
    op = assemble(constant_field(np.eye(2)), grid)
    rhs = grid.zeros()
    anchor = np.array([1.0, 0.0])
    deltas = np.array([0.08, 0.15, 0.3, 0.5])
    slopes = []
    for p in (0.5, 0.65, 0.8):
        def data(pts, p=p):
            th = np.arctan2(pts[:, 1], pts[:, 0])
            return np.abs(th) ** p

        u = solve_dirichlet(op, rhs, grid.boundary_from_function(data))
        d = np.hypot(u.points[:, 0] - anchor[0], u.points[:, 1] - anchor[1])
        sups = np.array([
            np.max(np.abs(u.values[d <= delta])) for delta in deltas
        ])
        slopes.append(np.polyfit(np.log(deltas), np.log(sups), 1)[0])
    return float(np.clip(min(slopes), 0.05, 0.95))


def _harmonic_suite():
    def rad(m):
        def fn(pts, m=m):
            z = pts[:, 0] + 1j * pts[:, 1]
            return np.real(z ** m)
        return fn

    def pole(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        return np.real(1.0 / (1.3 - z))

    def tilted(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        return np.imag((z - 0.2) ** 3) + 0.5 * np.real(z)

    return [rad(1), rad(2), rad(3), rad(5), pole, tilted]


def _fd_derivatives(fn, pts):
    h = 1e-5
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    f0 = fn(pts)
    fx = (fn(pts + e1) - fn(pts - e1)) / (2.0 * h)
    fy = (fn(pts + e2) - fn(pts - e2)) / (2.0 * h)
    fxx = (fn(pts + e1) - 2.0 * f0 + fn(pts - e1)) / h ** 2
    fyy = (fn(pts + e2) - 2.0 * f0 + fn(pts - e2)) / h ** 2
    fxy = (fn(pts + e1 + e2) - fn(pts + e1 - e2)
           - fn(pts - e1 + e2) + fn(pts - e1 - e2)) / (4.0 * h ** 2)
    grad = np.hypot(fx, fy)
    hess = np.maximum(np.abs(fxx), np.maximum(np.abs(fyy), np.abs(fxy)))
    return f0, grad, hess


def _interior_bound_constant():
    rr = np.linspace(0.0, 0.25, 26)
    th = np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False)
    R, TH = np.meshgrid(rr, th, indexing="ij")
    pts = np.stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()], axis=1)
    rim = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    circle = np.stack([np.cos(rim), np.sin(rim)], axis=1)
    worst = 0.0
    for fn in _harmonic_suite():
        sup_norm = float(np.max(np.abs(fn(circle))))
        f0, grad, hess = _fd_derivatives(fn, pts)
        combined = float(np.max(np.abs(f0) + grad + hess)) / sup_norm
        worst = max(worst, combined)
    return worst


def _one_step_linear(u_field, v_fn):
    """Sups (M0, M1) of one first-order rung on a numeric solution, its
    affine fit from the ladder's frozen comparison with a0 = I."""
    sampler = bicubic_sampler(u_field)
    shift = float(sampler(np.zeros((1, 2)))[0])

    def w_fn(pts):
        return sampler(pts) - shift - v_fn(pts)

    M0, _ = ball_sup(w_fn, 0.9)
    (inc,), _ = _frozen_comparisons(np.eye(2), 1, 1, w_fn)
    M1, _ = ball_sup(lambda p: w_fn(p) - inc(p), LAM)
    return M0, M1 / LAM


def calibrate_constants() -> dict:
    """Empirical constants for the ladder inequalities at scale ratio LAM.

    beta is the measured boundary growth exponent, alpha = beta/(2+beta);
    C0 bounds interior value, gradient and second differences of frozen
    solutions at radius 1/4; C1 and C2 come from least squares on one-step
    ladder experiments (coefficient perturbations for C1, drift strengths
    for C2).  A holdout boundary shape checks that the perturbation law
    decays at least as fast as alpha predicts.
    """
    beta = _boundary_exponent()
    alpha = beta / (2.0 + beta)
    if not (0.0 < alpha <= 1.0 / 3.0 + 1e-12):
        raise CalibrationError(f"alpha {alpha} escaped (0, 1/3]")
    c0 = _interior_bound_constant()

    # the first n_train shapes train C1 on the sweep's own solutions; the
    # rest are the holdout
    n_train = 2
    sweep = perturbation_sweep()
    hold_ratios = sweep.ratios[n_train:]

    num = 0.0
    den = 0.0
    for i in range(n_train):
        for j, eps in enumerate(SWEEP_EPSILONS):
            M0, M1 = _one_step_linear(sweep.solutions[i][j],
                                      lambda pts: np.zeros(len(pts)))
            x = (LAM ** 2 + eps ** alpha) * M0 / LAM
            num += x * M1
            den += x * x
    if den <= 0.0:
        raise CalibrationError("degenerate C1 regression: no usable experiments")
    c1 = num / den
    if not (0.0 < c1 and 2.0 * c1 * LAM < 0.25):
        raise CalibrationError(f"calibrated C1={c1} breaks 2*C1*LAM < 1/4")

    holdout_slope = float(np.polyfit(
        np.log(SWEEP_EPSILONS), np.log(np.mean(hold_ratios, axis=0)), 1)[0])
    if holdout_slope < alpha - 0.05:
        raise CalibrationError(
            f"holdout slope {holdout_slope} under alpha - 0.05 = {alpha - 0.05}"
        )

    shapes = _sweep_shapes()
    grid = disk_grid(1.0, 1.0 / SWEEP_CELLS)
    num = 0.0
    den = 0.0
    for bmag in (0.3, 0.6, 1.0):
        field = constant_field(np.eye(2), (bmag, 0.0))
        lam1 = constant_drift_norm((bmag, 0.0))
        op = assemble(field, grid)
        rhs = grid.field_from_function(lambda pts: np.full(len(pts), 4.0))
        for _, shape_fn in shapes:
            u = solve_dirichlet(op, rhs, grid.boundary_from_function(shape_fn))
            M0, M1 = _one_step_linear(
                u, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2)
            xi0 = (c1 / LAM) * (LAM ** 2 + lam1 ** alpha)
            eta_need = max(0.0, M1 - xi0 * M0)
            bracket = 2.0 * lam1 / LAM
            num += eta_need * bracket
            den += bracket * bracket
    if den <= 0.0:
        raise CalibrationError("degenerate C2 regression: no usable experiments")
    c2 = max(num / den, 0.01)

    return {"C0": c0, "C1": float(c1), "C2": float(c2),
            "alpha": float(alpha), "beta": float(beta),
            "holdout_slope": holdout_slope}


# ---------------------------------------------------------------------------
# serialization


# The names of E, F and G in each mode: the keys of the report's limit,
# and with the components' indices the trace's columns.  A c1 trace has
# G = 0 and leaves it out.
_COEFFS = {"c1": ("A", "B"), "c11": ("E", "F", "G")}
_INDICES = (("",), ("1", "2"), ("11", "12", "22"))


def limit_coeffs(trace: IterationTrace) -> dict:
    """The limiting polynomial under the trace mode's names."""
    ap = trace.limit
    return dict(zip(_COEFFS[trace.mode], (ap.E, ap.F, ap.G)))


def _coeffs(ap: QuadApprox, count: int) -> list:
    """The first ``count`` of E, F1, F2, G11, G12, G22."""
    return [ap.E, *ap.F, ap.G[0, 0], ap.G[0, 1], ap.G[1, 1]][:count]


def trace_rows(trace: IterationTrace):
    """CSV header and rows of a trace, one rung a row, floats in ``repr``."""
    names = [name + index
             for name, indices in zip(_COEFFS[trace.mode], _INDICES)
             for index in indices]
    n = len(names)
    header = (["k", "scale", "M_k", "xi_k", "eta_k", "S_k", "N_k"] + names
              + ["bar_k", "radius_k", "gap_k", "fdev_k", "u_sup_k", "phi_u_k",
                 "phi_scale_k"] + [f"inc_{name}" for name in names]
              + ["roundoff_k"])
    rows = []
    for r in trace.records:
        inc = [math.nan] * n if r.increment is None else _coeffs(r.increment, n)
        rows.append([r.k] + [repr(float(x)) for x in (
            r.scale, r.M, r.xi, r.eta, r.S, r.N, *_coeffs(r.approx, n),
            r.sup_error_bar, r.measure_radius, r.gap, r.fdev, r.u_sup,
            r.phi_u, r.phi_scale, *inc, r.roundoff)])
    return header, rows


def trace_to_csv(trace: IterationTrace, path) -> None:
    """Write ``trace_rows(trace)`` to ``path`` (not atomically)."""
    header, rows = trace_rows(trace)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
