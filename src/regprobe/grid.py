"""Disk grids and nodal fields.

The grid is a uniform Cartesian lattice ``(i*h, j*h)`` about the origin,
the probe point, clipped to an open disk.  Nodes strictly inside the disk
are interior; stencil arms that leave the disk are cut at the circle, and
the cut geometry (arm fraction and boundary intersection point) is
precomputed per direction so the operator assembly can apply unequal-arm
differences.

Direction order is fixed as E, W, N, S, NE, SW, NW, SE; the first four are
the axis arms, the last four the diagonal arms grouped in opposite pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DomainError, FieldValidationError

DIRECTIONS = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [-1, 1], [1, -1]],
    dtype=int,
)
AXIS_PAIRS = ((0, 1), (2, 3))
DIAG_PAIRS = ((4, 5), (6, 7))

_ROLES = ("solution", "rhs", "boundary")

# Largest box that ``dissection_order`` leaves undivided, in either lattice.
DISSECTION_LEAF = 8


def dissection_order(ij: np.ndarray) -> np.ndarray:
    """Lattice nested-dissection order of the integer points ``ij``.

    The bounding box is split at its middle lattice line across its longer
    side; both halves are ordered the same way, then the line, and a box of
    at most ``DISSECTION_LEAF`` points keeps index order (George, SIAM J.
    Numer. Anal. 10, 1973), so one line separates the 5-, 7- and 9-point
    stencils alike.  All boxes of a level split at once: a point's base-3
    key gains one digit per level, 0 for the low half, 1 for the high half
    and 2 for the line, and the order is a read-only stable sort by key.
    """
    n = len(ij)
    key = np.zeros(n, dtype=np.int64)
    live = np.arange(n)                      # points whose box still splits
    box = np.zeros(n, dtype=np.intp)         # the box of each live point
    lo = ij.min(axis=0, keepdims=True)       # lattice bounds of each box
    hi = ij.max(axis=0, keepdims=True)
    while len(live):
        boxes = np.arange(len(lo))
        split = np.bincount(box, minlength=len(lo)) > DISSECTION_LEAF
        axis = np.argmax(hi - lo, axis=1)
        mid = (lo[boxes, axis] + hi[boxes, axis]) // 2
        side = np.sign(ij[live, axis[box]] - mid[box])
        digit = np.where(side == 0, 2, (side + 1) // 2)
        go = split[box]
        key *= 3
        key[live[go]] += digit[go]
        parent = np.flatnonzero(split)
        child = 2 * np.arange(len(parent))
        lo = np.repeat(lo[parent], 2, axis=0)
        hi = np.repeat(hi[parent], 2, axis=0)
        hi[child, axis[parent]] = mid[parent] - 1
        lo[child + 1, axis[parent]] = mid[parent] + 1
        go &= digit < 2
        box = 2 * (np.cumsum(split) - 1)[box[go]] + digit[go]
        live = live[go]
    order = np.argsort(key, kind="stable")
    order.flags.writeable = False
    return order


@dataclass(frozen=True)
class DiskGrid:
    """Uniform lattice on a disk about the origin with Shortley-Weller arm
    geometry."""

    radius: float
    h: float
    coords: np.ndarray = dc_field(init=False, repr=False)
    neighbor: np.ndarray = dc_field(init=False, repr=False)
    arm: np.ndarray = dc_field(init=False, repr=False)
    boundary_col: np.ndarray = dc_field(init=False, repr=False)
    boundary_points: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        if not (self.radius > 0.0 and self.h > 0.0):
            raise DomainError("radius and spacing must be positive")
        if self.h > self.radius / 16.0 * (1.0 + 1e-12):
            raise DomainError(
                f"spacing h={self.h} too coarse for radius {self.radius}; need h <= radius/16"
            )

        r = float(self.radius)
        h = float(self.h)
        m = int(math.floor(r / h + 1e-12)) + 1
        ax = np.arange(-m, m + 1)
        gi, gj = np.meshgrid(ax, ax, indexing="ij")
        px = gi * h
        py = gj * h
        rho2 = px * px + py * py
        inner = rho2 < (r * (1.0 - 1e-13)) ** 2

        index = -np.ones(gi.shape, dtype=int)
        index[inner] = np.arange(int(inner.sum()))
        n_int = int(inner.sum())
        coords = np.stack([px[inner], py[inner]], axis=1)

        neighbor = -np.ones((n_int, 8), dtype=int)
        arm = np.ones((n_int, 8))
        bcol = -np.ones((n_int, 8), dtype=int)
        bpoints: list[np.ndarray] = []

        ii = gi[inner]
        jj = gj[inner]
        lx = px[inner]
        ly = py[inner]
        next_col = 0
        for k, (di, dj) in enumerate(DIRECTIONS):
            ni = ii + di
            nj = jj + dj
            ok = (np.abs(ni) <= m) & (np.abs(nj) <= m)
            nidx = -np.ones(n_int, dtype=int)
            nidx[ok] = index[ni[ok] + m, nj[ok] + m]
            neighbor[:, k] = nidx
            cut = nidx < 0
            if not np.any(cut):
                continue
            vx = di * h
            vy = dj * h
            v2 = vx * vx + vy * vy
            pv = lx[cut] * vx + ly[cut] * vy
            disc = pv * pv + v2 * (r * r - (lx[cut] ** 2 + ly[cut] ** 2))
            theta = (-pv + np.sqrt(disc)) / v2
            theta = np.clip(theta, 1e-14, 1.0)
            arm[cut, k] = theta
            cols = np.arange(next_col, next_col + int(cut.sum()))
            bcol[cut, k] = cols
            next_col = cols[-1] + 1 if len(cols) else next_col
            bpoints.append(np.stack([lx[cut] + theta * vx,
                                     ly[cut] + theta * vy], axis=1))

        bp = np.concatenate(bpoints, axis=0) if bpoints else np.zeros((0, 2))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "neighbor", neighbor)
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "boundary_col", bcol)
        object.__setattr__(self, "boundary_points", bp)

    @property
    def n_interior(self) -> int:
        return len(self.coords)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_points)

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Midpoint-cell quadrature weights for the interior nodes.

        Each node owns the cell of side ``h`` centered on it; cells cut by
        the circle are weighted by the covered-area fraction from a 4x4
        subsample.  Computed once per grid and read-only, since every
        caller shares the array.
        """
        d = self.coords
        h = self.h
        r = self.radius
        xlo = d[:, 0] - 0.5 * h
        ylo = d[:, 1] - 0.5 * h
        xhi = xlo + h
        yhi = ylo + h
        far = np.hypot(np.maximum(np.abs(xlo), np.abs(xhi)),
                       np.maximum(np.abs(ylo), np.abs(yhi)))
        w = np.full(len(d), h * h)
        cut = far > r
        if np.any(cut):
            sub = (np.arange(4) + 0.5) / 4.0
            sx = xlo[cut, None, None] + h * sub[None, :, None]
            sy = ylo[cut, None, None] + h * sub[None, None, :]
            frac = np.mean(sx * sx + sy * sy <= r * r, axis=(1, 2))
            w[cut] = frac * h * h
        w.flags.writeable = False
        return w

    @cached_property
    def lattice(self) -> np.ndarray:
        """The int64 lattice indices (i, j) of each interior node.

        Node k sits at ``h * lattice[k]``.  Computed once per grid and
        read-only.
        """
        ij = np.rint(self.coords / self.h).astype(np.int64)
        ij.flags.writeable = False
        return ij

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """``dissection_order`` of ``lattice``, computed once; read-only."""
        return dissection_order(self.lattice)

    @cached_property
    def black_order(self) -> np.ndarray:
        """The black nodes (i + j odd), ordered by ``dissection_order`` of
        their own lattice, rotated by 45 degrees: (i + j, i - j) // 2 =
        ((i + j - 1) / 2, (i - j - 1) / 2).  Computed once; read-only."""
        ij = self.lattice
        black = np.flatnonzero(ij.sum(axis=1) & 1)
        order = black[dissection_order(ij[black] @ [[1, 1], [1, -1]] // 2)]
        order.flags.writeable = False
        return order

    def field_from_function(self, fn) -> "DiscreteField":
        vals = np.asarray(fn(self.coords), dtype=float)
        return DiscreteField(self, vals, "rhs")

    def boundary_from_function(self, fn) -> "DiscreteField":
        vals = np.asarray(fn(self.boundary_points), dtype=float)
        return DiscreteField(self, vals, "boundary", points=self.boundary_points)

    def zeros(self) -> "DiscreteField":
        return DiscreteField(self, np.zeros(self.n_interior), "rhs")


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values bound to a grid, tagged by role: one value per point,
    and the points are the role's nodes unless given."""

    grid: DiskGrid
    values: np.ndarray
    role: str
    points: np.ndarray = None

    def __post_init__(self):
        if self.role not in _ROLES:
            raise FieldValidationError(f"unknown field role {self.role!r}")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.points is None:
            object.__setattr__(self, "points", (
                self.grid.boundary_points if self.role == "boundary"
                else self.grid.coords))
        expected = len(self.points)
        if vals.shape != (expected,):
            raise FieldValidationError(
                f"{self.role} field has {vals.shape} values, expected ({expected},)"
            )
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError(f"{self.role} field contains non-finite values")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def bicubic_sampler(field: DiscreteField):
    """Return a callable evaluating the field between nodes.

    Local 4x4 Lagrange interpolation on the lattice, exact on cubics, so
    resampling costs O(h^4) accuracy.  Every evaluation point must have its
    full 4x4 node block inside the disk; points too close to the rim raise
    DomainError rather than extrapolate from undefined exterior values.
    """
    if field.role == "boundary":
        raise FieldValidationError("cannot interpolate a boundary-trace field")
    grid = field.grid
    if field.points is not grid.coords:
        raise FieldValidationError("can interpolate only values at the grid's nodes")
    m = int(math.floor(grid.radius / grid.h + 1e-12)) + 1
    lattice = np.full((2 * m + 1, 2 * m + 1), np.nan)
    ij = grid.lattice
    lattice[ij[:, 0] + m, ij[:, 1] + m] = field.values

    def sample(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = pts / grid.h
        i0 = np.floor(s[:, 0]).astype(int)
        j0 = np.floor(s[:, 1]).astype(int)
        tx = s[:, 0] - i0
        ty = s[:, 1] - j0
        if np.any(i0 - 1 + m < 0) or np.any(i0 + 2 + m > 2 * m) \
                or np.any(j0 - 1 + m < 0) or np.any(j0 + 2 + m > 2 * m):
            raise DomainError("interpolation point outside the lattice")

        def weights(t):
            return np.stack([
                -t * (t - 1.0) * (t - 2.0) / 6.0,
                (t * t - 1.0) * (t - 2.0) / 2.0,
                -t * (t + 1.0) * (t - 2.0) / 2.0,
                t * (t * t - 1.0) / 6.0,
            ], axis=1)

        wx = weights(tx)
        wy = weights(ty)
        out = np.zeros(len(pts))
        for a in range(4):
            row = np.zeros(len(pts))
            for bq in range(4):
                row += wy[:, bq] * lattice[i0 - 1 + a + m, j0 - 1 + bq + m]
            out += wx[:, a] * row
        if not np.all(np.isfinite(out)):
            raise DomainError(
                "interpolation stencil reaches outside the disk interior"
            )
        return out

    return sample
