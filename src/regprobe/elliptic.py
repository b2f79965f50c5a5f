"""Nondivergence-form operators on disk grids and a Dirichlet solver.

The operator a_ij D_ij u + b_i D_i u is discretized with second differences
on the lattice arms.  The mixed term is folded into a diagonal second
difference whose orientation follows the sign of a_12:

    a11 D11 + a22 D22 + 2 a12 D12
        = (a11 - |a12|) D11 + (a22 - |a12|) D22 + |a12| D_diag

where D_diag is the pure second difference along the NE-SW diagonal for
a12 >= 0 and along the NW-SE diagonal otherwise.  All stencil weights off
the center are then nonnegative as long as |a12| <= min(a11, a22), which
holds whenever the local eigenvalue ratio is at most 3 + 2*sqrt(2); the
assembly refuses ratios above 5 so the discrete maximum principle is a
theorem for every operator it accepts, not an observation.  Arms cut by
the circle use unequal-arm (Shortley-Weller) differences, which keep the
stencil exact on quadratics right up to the boundary.

Each operator is factored once by sparse LU of a matrix already in lattice
nested-dissection order (George, SIAM J. Numer. Anal. 10, 1973).  On the
5-point stencil (a12 = 0 at every node) every arm joins a red node (i + j
even) to a black one (i + j odd), so the red unknowns eliminate exactly and
only the half-size black Schur complement is factored (red-black reduction;
Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970), dissected in the
black nodes' own lattice, rotated by 45 degrees.  A diagonal arm joins two
nodes of one colour; such a matrix is factored whole, in the grid's lattice.
"""
from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AnisotropyError, FieldValidationError, SolverError
from .fields import CoefficientField
from .grid import AXIS_PAIRS, DIAG_PAIRS, DiscreteField, DiskGrid

ANISOTROPY_LIMIT = 5.0

# The relative residual every solve must meet; see ``solve_dirichlet``.
SOLVER_RTOL = 1e-11

# glibc raises its mmap threshold to each freed mapped block's size, so SuperLU's
# multi-MB workspaces land on a heap that fragments differently per process: on a
# 2-vCPU VM one solver_validation input peaked at 203 MB or 243 MB.  Pinned at 4 MB
# (mallopt's -3), such blocks are mapped and unmapped whole; every process: 194 MB.
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt in this C library
    _MALLOPT = None


@dataclass(frozen=True)
class LinearOperator:
    """Assembled interior matrix plus the boundary coupling.

    ``order`` is the column order the LU factor eliminates in: the grid's
    ``dissection_order`` when the stencil has diagonal arms, None for the
    5-point stencil, whose factor is of the reduced system in ``black_order``.
    """

    grid: DiskGrid
    matrix: sp.csr_matrix
    boundary_matrix: sp.csr_matrix
    row_scale: np.ndarray
    order: np.ndarray | None

    def apply(self, interior: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Evaluate the discrete operator given interior and boundary values."""
        return self.matrix @ interior + self.boundary_matrix @ boundary

    @cached_property
    def equilibrated(self) -> sp.csc_matrix:
        """The interior matrix with every row divided by its row scale."""
        return (sp.diags(1.0 / self.row_scale) @ self.matrix).tocsc()

    @cached_property
    def _red_black(self):
        """The red-black split of a 5-point ``equilibrated`` = A.

        Returns the red node indices, the black ones in ``grid.black_order``,
        the red diagonal d, the block A_BR and the block diag(1/d) A_RB; no
        5-point arm joins two red nodes, so the red-red block of A is diag(d).
        """
        red = np.flatnonzero(self.grid.lattice.sum(axis=1) % 2 == 0)
        black = self.grid.black_order
        a = self.equilibrated
        d = a.diagonal()[red]
        a_br = a[black][:, red].tocsr()
        c_rb = (sp.diags(1.0 / d) @ a[red][:, black]).tocsr()
        return red, black, d, a_br, c_rb

    @cached_property
    def factor(self):
        """Sparse LU factor, computed once.

        The matrix factored follows the stencil and is already in lattice
        nested-dissection order, so SuperLU keeps its natural column order.
        For a 5-point matrix it is the black Schur complement
        S = A_BB - A_BR diag(1/d) A_RB of the red-black split, a 9-point
        system on about half the nodes that one line of the black nodes'
        rotated lattice separates; ``solve`` eliminates the red unknowns
        around it.  With diagonal arms the colours couple among themselves,
        and the factor is of ``equilibrated[p][:, p]`` for p = ``order``.

        SuperLU runs in its SymmetricMode: the elimination tree comes from
        A^T + A, and a diagonal pivot is taken whenever it passes the
        threshold test, so the row order follows the column order on
        these structurally symmetric, diagonally dominant matrices.
        Partial pivoting takes over for any column whose diagonal fails
        the test.
        """
        if _MALLOPT is not None:
            _MALLOPT(-3, 4 << 20)
        a, p = self.equilibrated, self.order
        if p is None:
            _, black, _, a_br, c_rb = self._red_black
            matrix = (a[black][:, black] - a_br @ c_rb).tocsc()
        else:
            matrix = a[p][:, p]
        return spla.splu(matrix, permc_spec="NATURAL",
                         options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The x with ``equilibrated @ x = b``, from the cached factor."""
        x = np.empty_like(b)
        if self.order is None:
            red, black, d, a_br, c_rb = self._red_black
            y = b[red] / d
            x_black = self.factor.solve(b[black] - a_br @ y)
            x[black] = x_black
            x[red] = y - c_rb @ x_black
            return x
        x[self.order] = self.factor.solve(b[self.order])
        return x


def _pair_weights(theta_p, theta_m, factor, step2):
    """Second-difference weights for one arm pair, exact on quadratics."""
    s = theta_p + theta_m
    wp = 2.0 * factor / (step2 * theta_p * s)
    wm = 2.0 * factor / (step2 * theta_m * s)
    wc = -2.0 * factor / (step2 * theta_p * theta_m)
    return wp, wm, wc


def _drift_weights(theta_p, theta_m, coeff, step):
    """Centered unequal-arm first-difference weights."""
    s = theta_p + theta_m
    wp = coeff * theta_m / (theta_p * s * step)
    wm = -coeff * theta_p / (theta_m * s * step)
    wc = coeff * (theta_p - theta_m) / (theta_p * theta_m * step)
    return wp, wm, wc


def assemble(field: CoefficientField, grid: DiskGrid) -> LinearOperator:
    """Build the discrete operator for ``field`` on ``grid``.

    Raises AnisotropyError when the local eigenvalue ratio of a(x) exceeds
    5 at any node, with the worst offender in the message.
    """
    pts = grid.coords
    n = grid.n_interior
    amat = field.eval_a(pts)
    bvec = field.eval_b(pts)
    a11 = amat[:, 0, 0]
    a22 = amat[:, 1, 1]
    a12 = 0.5 * (amat[:, 0, 1] + amat[:, 1, 0])
    asym = np.max(np.abs(amat[:, 0, 1] - amat[:, 1, 0]))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(amat)))):
        raise FieldValidationError(f"coefficient matrix not symmetric (max gap {asym:.3e})")

    mean = 0.5 * (a11 + a22)
    delta = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12 ** 2)
    lo = mean - delta
    hi = mean + delta
    if np.any(lo <= 0.0):
        k = int(np.argmin(lo))
        raise FieldValidationError(
            f"coefficients lose ellipticity at {tuple(pts[k])}: min eigenvalue {lo[k]:.3e}"
        )
    ratio = hi / lo
    worst = int(np.argmax(ratio))
    anis = float(ratio[worst])
    if anis > ANISOTROPY_LIMIT * (1.0 + 1e-9):
        raise AnisotropyError(
            f"eigenvalue ratio {anis:.4f} at {tuple(pts[worst])} exceeds "
            f"the supported limit {ANISOTROPY_LIMIT}"
        )

    off = np.abs(a12)
    cxx = a11 - off
    cyy = a22 - off
    h = grid.h
    h2 = h * h

    diag = np.zeros(n)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    brows: list[np.ndarray] = []
    bcols: list[np.ndarray] = []
    bvals: list[np.ndarray] = []
    idx = np.arange(n)

    def scatter(side_k, w):
        nbr = grid.neighbor[:, side_k]
        keep = w != 0.0
        internal = keep & (nbr >= 0)
        external = keep & (nbr < 0)
        rows.append(idx[internal])
        cols.append(nbr[internal])
        vals.append(w[internal])
        brows.append(idx[external])
        bcols.append(grid.boundary_col[external, side_k])
        bvals.append(w[external])

    pair_specs = []
    for pk, (kp, km) in enumerate(AXIS_PAIRS):
        factor = cxx if pk == 0 else cyy
        drift = bvec[:, 0] if pk == 0 else bvec[:, 1]
        pair_specs.append((kp, km, factor, drift, h2, h))
    sign_pos = a12 >= 0.0
    pair_specs.append((DIAG_PAIRS[0][0], DIAG_PAIRS[0][1],
                       np.where(sign_pos, 2.0 * off, 0.0), None, 2.0 * h2, None))
    pair_specs.append((DIAG_PAIRS[1][0], DIAG_PAIRS[1][1],
                       np.where(sign_pos, 0.0, 2.0 * off), None, 2.0 * h2, None))

    for kp, km, factor, drift, step2, step in pair_specs:
        tp = grid.arm[:, kp]
        tm = grid.arm[:, km]
        wp, wm, wc = _pair_weights(tp, tm, factor, step2)
        if drift is not None:
            dp, dm, dc = _drift_weights(tp, tm, drift, step)
            wp = wp + dp
            wm = wm + dm
            wc = wc + dc
        diag += wc
        scatter(kp, wp)
        scatter(km, wm)

    rows.append(idx)
    cols.append(idx)
    vals.append(diag)

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    bmat = sp.coo_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n, grid.n_boundary),
    ).tocsr()

    scale = np.maximum(
        np.abs(mat).max(axis=1).toarray().ravel(),
        np.abs(bmat).max(axis=1).toarray().ravel() if grid.n_boundary else 0.0,
    )
    scale[scale == 0.0] = 1.0
    order = grid.dissection_order if np.any(off) else None
    return LinearOperator(grid, mat, bmat, scale, order)


def solve_dirichlet(op: LinearOperator, rhs: DiscreteField,
                    boundary: DiscreteField) -> DiscreteField:
    """Solve the Dirichlet problem L u = rhs with the given boundary values.

    One sparse LU factorization (see ``LinearOperator.factor``), made on
    the first solve and kept on the operator, so later solves with the same
    operator only run the triangular substitutions.  ``SOLVER_RTOL`` is a
    check, not a stopping rule: the solution must satisfy, in the whole
    equilibrated system, red-black reduced or not,

        ||A u - b||_2 <= SOLVER_RTOL * (||rhs||_2 + ||B g||_2)

    or SolverError is raised naming the residual and its target.
    Fully deterministic for a fixed operator and right-hand side.
    """
    if rhs.role == "boundary" or boundary.role != "boundary":
        raise FieldValidationError("expected (rhs, boundary) field roles")
    if rhs.grid is not op.grid or boundary.grid is not op.grid:
        raise FieldValidationError("fields and operator live on different grids")

    d = 1.0 / op.row_scale
    coupled = op.boundary_matrix @ boundary.values
    b_vec = d * (rhs.values - coupled)
    scale = float(np.linalg.norm(d * rhs.values) + np.linalg.norm(d * coupled))
    if scale == 0.0:
        return DiscreteField(op.grid, np.zeros(op.grid.n_interior), "solution")
    target = SOLVER_RTOL * scale

    x = op.solve(b_vec)
    res = float(np.linalg.norm(b_vec - op.equilibrated @ x))
    if not np.all(np.isfinite(x)) or not res <= target:
        raise SolverError(
            f"linear solve missed its residual check: residual {res:.3e} "
            f"above target {target:.3e}")
    return DiscreteField(op.grid, x, "solution")


# The constant of the maximum-principle bound that ``abp_check`` tests.
C_CAL = 0.36


def abp_check(u: DiscreteField, f_rhs: DiscreteField,
              boundary: DiscreteField) -> tuple[float, bool]:
    """Check the interior maximum of u against boundary data and forcing.

    Bound tested: max u <= max boundary + C_CAL * ||f||_{L^2} with an
    absolute slack of 1e-10.  The L^2 norm uses the grid's cut-cell
    midpoint quadrature.  Returns (implied_C, passed), implied_C being the
    ratio actually achieved, zero when the forcing vanishes.
    """
    grid = u.grid
    lhs = float(np.max(u.values))
    bmax = float(np.max(boundary.values))
    w = grid.node_weights
    fnorm = float(np.sqrt(np.sum(w * f_rhs.values ** 2)))
    if fnorm > 1e-300:
        implied = (lhs - bmax) / fnorm
    else:
        implied = 0.0
    return implied, lhs <= bmax + C_CAL * fnorm + 1e-10


def convergence_order(field: CoefficientField, u_exact, rhs_fn,
                      grids) -> float:
    """Sup-norm convergence order of the solver on a known solution.

    ``grids`` are disk grids of shrinking spacing; a caller that runs
    several studies on one set of grids builds them once.  A non-monotone
    error sequence fits the order anyway but warns.
    """
    hs = [grid.h for grid in grids]
    errors = []
    for grid in grids:
        op = assemble(field, grid)
        rhs = grid.field_from_function(rhs_fn)
        g = grid.boundary_from_function(u_exact)
        u = solve_dirichlet(op, rhs, g)
        exact = np.asarray(u_exact(grid.coords), dtype=float)
        errors.append(float(np.max(np.abs(u.values - exact))))

    slope = np.polyfit(np.log(hs), np.log(np.maximum(errors, 1e-300)), 1)[0]
    if not all(errors[i] > errors[i + 1] for i in range(len(errors) - 1)):
        warnings.warn("error sequence is not monotone; fitted order is unreliable",
                      RuntimeWarning, stacklevel=2)
    return float(slope)

