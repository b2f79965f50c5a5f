"""Disk grids and nodal fields.

The grid is a uniform Cartesian lattice ``(i*h, j*h)`` about the origin,
the probe point, clipped to an open disk.  Nodes strictly inside the disk
are interior; stencil arms that leave the disk are cut at the circle.

A grid keeps, from its build, the node coordinates, the arm fractions as
one ``(n_interior, 8)`` table (1 for a whole arm), the points where the
cut arms meet the circle, and ``DiskGrid.slots``: each node's neighbours
as columns of an ``(n_interior, 9)`` slot table, -1 for a cut arm, and
the cut arms' slots with their boundary columns.  The operator assembly
reads unequal-arm differences for all nodes at once from these, and
copies its weights into sparse matrices through ``slots`` and
``DiskGrid.red_black``.  The lattice indices, both nested-dissection
orders, the quadrature weights and ``red_black`` are computed on first
use and kept; with all of them a 128-cell grid holds 163 B a node.

Direction order is fixed as E, W, N, S, NE, SW, NW, SE; the first four are
the axis arms, the last four the diagonal arms grouped in opposite pairs.
"""
from __future__ import annotations

import math
import threading
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

# A node's matrix row holds at most nine columns, in ascending order on the
# row-major lattice SW, W, NW, S, centre, N, SE, E, NE: slot 3 (di + 1) +
# (dj + 1) for the arm (di, dj), ``CENTRE`` for the node itself.
SLOTS = 3 * DIRECTIONS[:, 0] + DIRECTIONS[:, 1] + 4
CENTRE = 4
AXIS_SLOTS = np.sort(SLOTS[:4])           # W, S, N, E

_ROLES = ("solution", "rhs", "boundary")

# Largest box that ``dissection_order`` leaves undivided, in either lattice.
DISSECTION_LEAF = 8

# Interior nodes that ``disk_grid`` keeps in total, about 21 MB at the
# 163 B a node of geometry, orders and the assembly's index patterns
# (``slots`` and ``red_black``) measured on 128 cells.  One pass of the
# largest workload, validation_suite, reads five grids: 32, 48, 64 and
# 128 cells on the unit disk and the 32-cell comparison disk of radius
# 3/4, 3205 + 7209 + 12849 + 51429 + 3205 = 77897 nodes; a numeric probe
# on 128 cells reads 51429 + 3205 = 54634, and calibration adds 28913 on
# 96 cells.
# 2^17 = 131072 holds each set with room; one grid of 256 cells or more
# (205857 nodes and up) is kept alone.
GRID_CACHE_NODES = 1 << 17

_GRIDS: dict = {}                 # (radius, h) -> DiskGrid, oldest use first
_GRIDS_LOCK = threading.Lock()


class _computed_once(cached_property):
    """``cached_property`` without the lock that Python 3.11 shares among all
    instances and holds while it computes, which lets one thread factor at a
    time; two threads that read one new value both compute it."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.attrname, self.func(instance))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False   # every caller shares the grid
    return array


@dataclass(frozen=True)
class SlotPattern:
    """A grid's index patterns for an (n, 9) table of slot weights.

    ``columns`` holds the column of each slot, -1 where the arm is cut, so
    a row's kept slots read in order are its sorted CSR columns.  ``cut``
    are the flat slots of the cut arms, row by row and in direction order
    within a row, which is the order of their ``cut_columns`` in the
    boundary matrix.
    """

    columns: np.ndarray
    cut: np.ndarray
    cut_columns: np.ndarray


@dataclass(frozen=True)
class RedBlackPattern:
    """A grid's index patterns for the red-black blocks of a 5-point table.

    ``red`` are the red nodes (i + j even) in index order.  ``rank`` holds
    each red node's place among them and each black node's place in
    ``black_order``, the columns of A_BR and of A_RB.  A row of A_BR reads
    its black node's ``AXIS_SLOTS`` in that order; row k of A_RB reads red
    node k's in the order ``rb_order[k]``, by descending column, as
    scipy's product of a diagonal and a sorted matrix lists them.  A cut
    arm's slot holds a zero, which the assembly drops, wherever it sorts.
    """

    red: np.ndarray
    rank: np.ndarray
    rb_order: np.ndarray


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
    arm: np.ndarray = dc_field(init=False, repr=False)
    boundary_points: np.ndarray = dc_field(init=False, repr=False)
    slots: SlotPattern = dc_field(init=False, repr=False)

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
        px = (gi * h).ravel()
        py = (gj * h).ravel()
        nodes = np.flatnonzero(px * px + py * py < (r * (1.0 - 1e-13)) ** 2)
        index = -np.ones(len(px), dtype=np.int32)     # int32, as sparse indices
        index[nodes] = np.arange(len(nodes))
        coords = np.stack([px[nodes], py[nodes]], axis=1)
        # each arm's neighbour, looked up at the flat lattice index of the
        # arm's end; every interior node has |i|, |j| < m, so no arm leaves
        # the box
        n = len(nodes)
        columns = np.empty((n, 9), dtype=np.int32)
        columns[:, SLOTS] = index[nodes[:, None] + DIRECTIONS @ [2 * m + 1, 1]]
        columns[:, CENTRE] = np.arange(n)

        # the cut arms, direction by direction, then node by node: the
        # order of the boundary points
        k, node = np.nonzero(columns[:, SLOTS].T < 0)
        vx, vy = DIRECTIONS[k].T * h
        lx, ly = coords[node].T
        v2 = vx * vx + vy * vy
        pv = lx * vx + ly * vy
        disc = pv * pv + v2 * (r * r - (lx ** 2 + ly ** 2))
        theta = np.clip((-pv + np.sqrt(disc)) / v2, 1e-14, 1.0)
        arm = np.ones((n, 8))
        arm[node, k] = theta
        bp = np.stack([lx + theta * vx, ly + theta * vy], axis=1)
        # the same arms node by node, in direction order within a node; the
        # boundary column of each is its place in the order above
        within = np.argsort(node, kind="stable")
        slots = SlotPattern(_frozen(columns),
                            _frozen(node[within] * 9 + SLOTS[k[within]]),
                            _frozen(within.astype(np.int32)))
        for name, value in (("coords", coords), ("arm", arm),
                            ("boundary_points", bp)):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "slots", slots)

    @property
    def n_interior(self) -> int:
        return len(self.coords)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_points)

    @_computed_once
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

    @_computed_once
    def lattice(self) -> np.ndarray:
        """The int64 lattice indices (i, j) of each interior node.

        Node k sits at ``h * lattice[k]``.  Computed once per grid and
        read-only.
        """
        ij = np.rint(self.coords / self.h).astype(np.int64)
        ij.flags.writeable = False
        return ij

    @_computed_once
    def dissection_order(self) -> np.ndarray:
        """``dissection_order`` of ``lattice``, computed once; read-only."""
        return dissection_order(self.lattice)

    @_computed_once
    def black_order(self) -> np.ndarray:
        """The black nodes (i + j odd), ordered by ``dissection_order`` of
        their own lattice, rotated by 45 degrees: (i + j, i - j) // 2 =
        ((i + j - 1) / 2, (i - j - 1) / 2).  Computed once; read-only."""
        ij = self.lattice
        black = np.flatnonzero(ij.sum(axis=1) & 1)
        order = black[dissection_order(ij[black] @ [[1, 1], [1, -1]] // 2)]
        order.flags.writeable = False
        return order

    @_computed_once
    def red_black(self) -> "RedBlackPattern":
        """The index patterns of a 5-point operator's red-black blocks;
        computed once, read-only."""
        ij = self.lattice
        red = np.flatnonzero(ij.sum(axis=1) % 2 == 0)
        black = self.black_order
        rank = np.empty(self.n_interior, dtype=np.int32)
        rank[red] = np.arange(len(red))
        rank[black] = np.arange(len(black))
        to_black = rank[self.slots.columns[red][:, AXIS_SLOTS]]
        order = np.argsort(-to_black, axis=1).astype(np.int8)
        return RedBlackPattern(_frozen(red), _frozen(rank), _frozen(order))

    def field_from_function(self, fn) -> "DiscreteField":
        vals = np.asarray(fn(self.coords), dtype=float)
        return DiscreteField(self, vals, "rhs")

    def boundary_from_function(self, fn) -> "DiscreteField":
        vals = np.asarray(fn(self.boundary_points), dtype=float)
        return DiscreteField(self, vals, "boundary")

    def zeros(self) -> "DiscreteField":
        return DiscreteField(self, np.zeros(self.n_interior), "rhs")


def disk_grid(radius: float, h: float) -> DiskGrid:
    """The process's one ``DiskGrid(radius, h)``, built on first use.

    Every scenario, sweep and calibration with the same ``(radius, h)``
    reads the same grid, so its geometry, lattice, orders and weights are
    computed once per process.  The least recently used grids are dropped
    while the kept ones hold more than ``GRID_CACHE_NODES`` interior nodes
    in total; the newest grid is always kept.  A lock makes the lookup and
    the build one step, so two threads never build one grid twice.
    """
    key = (radius, h)
    with _GRIDS_LOCK:
        grid = _GRIDS.pop(key, None)
        if grid is None:
            grid = DiskGrid(radius, h)
        _GRIDS[key] = grid
        while (len(_GRIDS) > 1 and sum(g.n_interior for g in _GRIDS.values())
               > GRID_CACHE_NODES):
            del _GRIDS[next(iter(_GRIDS))]
    return grid


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values bound to a grid, tagged by role: one value per point,
    and the role fixes the points."""

    grid: DiskGrid
    values: np.ndarray
    role: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise FieldValidationError(f"unknown field role {self.role!r}")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = len(self.points)
        if vals.shape != (expected,):
            raise FieldValidationError(
                f"{self.role} field has {vals.shape} values, expected ({expected},)"
            )
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError(f"{self.role} field contains non-finite values")

    @property
    def points(self) -> np.ndarray:
        """The grid's boundary points for a boundary field, else its nodes."""
        return (self.grid.boundary_points if self.role == "boundary"
                else self.grid.coords)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def cubic_weights(t):
    """Lagrange weights of the nodes -1, 0, 1, 2 at ``t``, as four arrays.

    They reproduce cubics exactly; outside [0, 1] they extrapolate the
    cubic through the four nodes.
    """
    return (-t * (t - 1.0) * (t - 2.0) / 6.0,
            (t * t - 1.0) * (t - 2.0) / 2.0,
            -t * (t + 1.0) * (t - 2.0) / 2.0,
            t * (t * t - 1.0) / 6.0)


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

        wx = cubic_weights(tx)
        wy = cubic_weights(ty)
        out = np.zeros(len(pts))
        for a in range(4):
            row = np.zeros(len(pts))
            for bq in range(4):
                row += wy[bq] * lattice[i0 - 1 + a + m, j0 - 1 + bq + m]
            out += wx[a] * row
        if not np.all(np.isfinite(out)):
            raise DomainError(
                "interpolation stencil reaches outside the disk interior"
            )
        return out

    return sample
