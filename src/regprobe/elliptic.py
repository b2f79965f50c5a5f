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

``assemble`` writes the weights into an (n, 9) table of slots, a row's
columns in ascending order (``grid.SLOTS``), and copies the cut arms'
weights straight into the boundary matrix, then, row-scaled in place, the
rest into the equilibrated CSR matrix and the red-black blocks, through
index patterns each grid keeps (``DiskGrid.slots``, built with the grid,
and ``DiskGrid.red_black``, computed once).  Each value is the product
scipy's conversions and diagonal products would form, exact zeros drop
where they would drop, and the blocks' rows keep scipy's order, so S,
which scipy still forms from the blocks, and the factor are the same bits
as with that construction.  An operator keeps the boundary matrix, the
row scale, the equilibrated matrix, on a 5-point stencil the red-black
blocks, and its factor once computed; it keeps no unscaled copy of its
matrix, which is diag(row_scale) @ ``equilibrated``, and no node order:
the red and black node indices and the dissection order belong to the
grid, which ``factor`` and ``solve`` read them from.
"""
from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AnisotropyError, FieldValidationError, SolverError
from .fields import CoefficientField
from .grid import (AXIS_PAIRS, AXIS_SLOTS, CENTRE, DIAG_PAIRS, SLOTS,
                   DiscreteField, DiskGrid, _computed_once)

ANISOTROPY_LIMIT = 5.0

# The relative residual every solve must meet; see ``solve_dirichlet``.
SOLVER_RTOL = 1e-11

# glibc raises its mmap threshold to each freed mapped block's size, so SuperLU's
# multi-MB workspaces land on a heap that fragments differently per process: on a
# 2-vCPU VM one solver_validation input peaked at 203 MB or 243 MB.  Pinned at 4 MB
# (mallopt's -3), such blocks are mapped and unmapped whole; every process: 194 MB.
try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load
    _LIBC = None
_MALLOPT = getattr(_LIBC, "mallopt", None)  # None where the C library lacks it
_MALLOC_TRIM = getattr(_LIBC, "malloc_trim", None)


def trim_heap() -> None:
    """Hand what every thread's malloc arena holds free back to the system."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@dataclass(frozen=True)
class LinearOperator:
    """Assembled interior matrix plus the boundary coupling.

    ``equilibrated`` is the interior matrix with every row divided by its
    row scale, the row's largest |weight| (boundary weights included), and
    ``boundary_matrix`` holds the unscaled weights of the cut arms.
    ``red_black`` is None when the stencil has diagonal arms, whose factor
    eliminates in the grid's ``dissection_order``.  On the 5-point stencil
    it is the red-black split of ``equilibrated`` = A, over the grid's red
    nodes ``grid.red_black.red`` and its black ones in ``grid.black_order``:
    the red diagonal d, the block A_BR and the block diag(1/d) A_RB; no
    5-point arm joins two red nodes, so the red-red block of A is diag(d).
    """

    grid: DiskGrid
    boundary_matrix: sp.csr_matrix
    row_scale: np.ndarray
    equilibrated: sp.csr_matrix
    red_black: tuple | None

    @_computed_once
    def factor(self):
        """Sparse LU factor, computed once.

        The matrix factored follows the stencil and is already in lattice
        nested-dissection order, so SuperLU keeps its natural column order.
        For a 5-point matrix it is the black Schur complement
        S = A_BB - A_BR diag(1/d) A_RB of the red-black split, a 9-point
        system on about half the nodes that one line of the black nodes'
        rotated lattice separates; ``solve`` eliminates the red unknowns
        around it.  No 5-point arm joins two black nodes either, so A_BB is
        diagonal.  With diagonal arms the colours couple among themselves,
        and the factor is of ``equilibrated[p][:, p]`` for the grid's
        ``dissection_order`` p.

        SuperLU runs in its SymmetricMode: the elimination tree comes from
        A^T + A, and a diagonal pivot is taken whenever it passes the
        threshold test, so the row order follows the column order on
        these structurally symmetric, diagonally dominant matrices.
        Partial pivoting takes over for any column whose diagonal fails
        the test.
        """
        if _MALLOPT is not None:
            _MALLOPT(-3, 4 << 20)
        a = self.equilibrated
        if self.red_black is None:
            p = self.grid.dissection_order
            matrix = a[p][:, p].tocsc()
        else:
            _, a_br, c_rb = self.red_black
            a_bb = sp.diags(a.diagonal()[self.grid.black_order], format="csr")
            matrix = (a_bb - a_br @ c_rb).tocsc()
        return spla.splu(matrix, permc_spec="NATURAL",
                         options={"SymmetricMode": True})

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The x with ``equilibrated @ x = b``, from the cached factor; an
        (n, K) ``b`` is K right-hand sides.  SuperLU's substitutions and a
        CSR matrix's product with a dense block treat each column alone,
        so a column's solution has the same bits in any batch."""
        x = np.empty_like(b)
        if self.red_black is None:
            p = self.grid.dissection_order
            x[p] = self.factor.solve(b[p])
            return x
        red, black = self.grid.red_black.red, self.grid.black_order
        d, a_br, c_rb = self.red_black
        y = (b[red].T / d).T            # each column divided by d
        x_black = self.factor.solve(b[black] - a_br @ y)
        x[black] = x_black
        x[red] = y - c_rb @ x_black
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


def _weights(field: CoefficientField, grid: DiskGrid):
    """The weights of ``field`` on ``grid``: the (n, 9) table whose slot
    ``SLOTS[k]`` holds each node's arm k and ``CENTRE`` the node itself,
    the row scale (each row's largest |weight|, 1 for a row of zeros) and
    whether any node has diagonal arms.

    Raises AnisotropyError when the local eigenvalue ratio of a(x) exceeds
    5 at any node, with the worst offender in the message.  A function of
    its own, so that the checks' temporaries are freed before ``assemble``
    copies the table.
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

    sign_pos = a12 >= 0.0
    pair_specs = ((AXIS_PAIRS[0], cxx, bvec[:, 0], h2, h),
                  (AXIS_PAIRS[1], cyy, bvec[:, 1], h2, h),
                  (DIAG_PAIRS[0], np.where(sign_pos, 2.0 * off, 0.0), None,
                   2.0 * h2, None),
                  (DIAG_PAIRS[1], np.where(sign_pos, 0.0, 2.0 * off), None,
                   2.0 * h2, None))
    table = np.zeros((n, 9))
    diag = np.zeros(n)
    scale = np.zeros(n)
    for (kp, km), factor, drift, step2, step in pair_specs:
        # a coefficient that is zero at every node adds only zeros, which
        # change no weight a matrix keeps and no bit of diag
        if drift is not None and not np.any(drift):
            drift = None
        if drift is None and not np.any(factor):
            continue
        tp = grid.arm[:, kp]
        tm = grid.arm[:, km]
        wp, wm, wc = _pair_weights(tp, tm, factor, step2)
        if drift is not None:
            dp, dm, dc = _drift_weights(tp, tm, drift, step)
            wp += dp
            wm += dm
            wc += dc
        diag += wc
        for k, w in ((kp, wp), (km, wm)):
            table[:, SLOTS[k]] = w
            np.maximum(scale, np.abs(w), out=scale)
    table[:, CENTRE] = diag
    np.maximum(scale, np.abs(diag), out=scale)
    scale[scale == 0.0] = 1.0
    return table, scale, bool(np.any(off))


def assemble(field: CoefficientField, grid: DiskGrid) -> LinearOperator:
    """Build the discrete operator for ``field`` on ``grid``.

    The weights go straight into the boundary matrix, the equilibrated
    matrix and, on a 5-point stencil, the red-black blocks, through the
    grid's index patterns.  Raises AnisotropyError when the local
    eigenvalue ratio of a(x) exceeds 5 at any node, with the worst offender
    in the message.
    """
    table, scale, diagonal_arms = _weights(field, grid)
    n = grid.n_interior
    slots = grid.slots
    flat = table.ravel()
    cut = flat[slots.cut]
    keep = cut != 0.0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots.cut[keep] // 9, minlength=n), out=indptr[1:])
    bmat = sp.csr_matrix((cut[keep], slots.cut_columns[keep], indptr),
                         shape=(n, grid.n_boundary))
    flat[slots.cut] = 0.0           # the cut arms' weights are in bmat

    # the table becomes the values of sp.diags(1 / scale) @ L, a product
    # that drops exact zeros
    table *= (1.0 / scale)[:, None]
    equilibrated = _compressed(table, slots.columns, table != 0.0, (n, n))
    if diagonal_arms:
        return LinearOperator(grid, bmat, scale, equilibrated, None)

    rb = grid.red_black
    black = grid.black_order
    d = table[rb.red, CENTRE]
    to_red = black[:, None] * 9 + AXIS_SLOTS
    to_black = rb.red[:, None] * 9 + AXIS_SLOTS[rb.rb_order]
    a_br = flat[to_red]
    c_rb = flat[to_black] * (1.0 / d)[:, None]
    columns = slots.columns.ravel()
    shape = (len(black), len(rb.red))
    blocks = (d,
              _compressed(a_br, rb.rank[columns[to_red]], a_br != 0.0, shape),
              _compressed(c_rb, rb.rank[columns[to_black]], c_rb != 0.0,
                          shape[::-1]))
    return LinearOperator(grid, bmat, scale, equilibrated, blocks)


def _compressed(values, columns, keep, shape):
    """The CSR matrix whose row k holds the kept entries of ``values[k]``
    in the columns ``columns[k]``, in that order."""
    rows, width = keep.shape
    at = np.flatnonzero(keep)
    indptr = np.zeros(rows + 1, dtype=np.int32)
    # the kept count of each row: a uint8 product sums short rows quickly
    np.cumsum(keep.view(np.uint8) @ np.ones(width, np.uint8), out=indptr[1:])
    return sp.csr_matrix((values.take(at), columns.take(at), indptr), shape=shape)


def _column_norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of ``v`` (a vector is one column), each
    taken as a vector: a vector's norm is one dot product, several times
    faster on a long column than numpy's norm along an axis."""
    return np.array([np.linalg.norm(col) for col in v.reshape(len(v), -1).T])


def _dirichlet_part(op: LinearOperator, g: np.ndarray):
    """The Dirichlet data ``g``'s part of every solve against it, for one
    problem or a batch of columns: d = 1 / row_scale shaped to ``g``, the
    coupling B g and each column's ||d B g||_2."""
    d = (1.0 / op.row_scale).reshape((-1,) + (1,) * (g.ndim - 1))
    coupled = op.boundary_matrix @ g
    return d, coupled, _column_norms(d * coupled)


def _checked_solve(op: LinearOperator, f: np.ndarray, part) -> np.ndarray:
    """The solution of L u = ``f`` against the Dirichlet data whose
    ``_dirichlet_part`` is ``part``, shaped like ``f``, once each column
    has passed the residual check that ``solve_dirichlet`` states."""
    d, coupled, coupled_norm = part
    b_vec = d * (f - coupled)
    scale = _column_norms(d * f) + coupled_norm
    live = scale != 0.0
    if not live.any():
        return np.zeros_like(b_vec)
    target = SOLVER_RTOL * scale
    x = op.solve(b_vec)
    columns = x.reshape(len(x), -1)     # a view: one problem is one column
    columns[:, ~live] = 0.0
    res = _column_norms(b_vec - op.equilibrated @ x)
    failed = np.flatnonzero(~(np.isfinite(columns).all(axis=0) & (res <= target)))
    if len(failed):
        j = failed[0]
        raise SolverError(
            f"linear solve missed its residual check: residual {res[j]:.3e} "
            f"above target {target[j]:.3e}")
    return x


def solve_dirichlet(op: LinearOperator, rhs: DiscreteField,
                    boundary: DiscreteField) -> DiscreteField:
    """Solve the Dirichlet problem L u = rhs with the given boundary values.

    ``rhs`` and ``boundary`` hold one problem, or the same number K of
    problems as columns, and so does the solution.  One sparse LU
    factorization (see ``LinearOperator.factor``), made on the first solve
    and kept on the operator, so later solves with the same operator only
    run the triangular substitutions, all K columns in one call.
    ``SOLVER_RTOL`` is a check, not a stopping rule: each column's solution
    must satisfy, in the whole equilibrated system, red-black reduced or
    not,

        ||A u - b||_2 <= SOLVER_RTOL * (||rhs||_2 + ||B g||_2)

    against that column's own rhs and g, or SolverError is raised naming
    the first failing column's residual and target.  A column whose data
    are all zero is zero.  Fully deterministic for a fixed operator and
    right-hand side, and a column has the same bits in any batch.  The
    part that reads only g (``_dirichlet_part``) is formed apart from the
    solve and its check (``_checked_solve``): ``picard_solve`` forms it
    once a run.
    """
    if rhs.role != "interior" or boundary.role != "boundary":
        raise FieldValidationError("expected (interior, boundary) field roles")
    if rhs.grid is not op.grid or boundary.grid is not op.grid:
        raise FieldValidationError("fields and operator live on different grids")
    if rhs.values.shape[1:] != boundary.values.shape[1:]:
        raise FieldValidationError("rhs and boundary hold different batches")

    x = _checked_solve(op, rhs.values, _dirichlet_part(op, boundary.values))
    return DiscreteField(op.grid, x, "interior")


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


def sup_error(field: CoefficientField, u_exact, rhs_fn, grid: DiskGrid) -> float:
    """The sup-norm error of the solver on ``grid``, for the known solution
    ``u_exact`` of L u = ``rhs_fn`` with its own boundary values."""
    u = solve_dirichlet(assemble(field, grid), grid.field_from_function(rhs_fn),
                        grid.boundary_from_function(u_exact))
    exact = np.asarray(u_exact(grid.coords), dtype=float)
    return float(np.max(np.abs(u.values - exact)))


def convergence_order(hs, errors) -> float:
    """The order fitted to the sup-norm ``errors`` at shrinking spacings
    ``hs``; a non-monotone error sequence fits the order anyway but warns."""
    slope = np.polyfit(np.log(hs), np.log(np.maximum(errors, 1e-300)), 1)[0]
    if not all(errors[i] > errors[i + 1] for i in range(len(errors) - 1)):
        warnings.warn("error sequence is not monotone; fitted order is unreliable",
                      RuntimeWarning, stacklevel=2)
    return float(slope)
