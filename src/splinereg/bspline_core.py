"""Uniform cubic B-spline displacement fields on a tile-aligned control lattice.

A field is parameterized by three scalar coefficient lattices (one per vector
component). Space is partitioned into tiles of size r1 x r2 x r3 mm; every
point inside a tile is supported by the same 4x4x4 block of control points.
Basis evaluation is expressed through 4x4 matrices Q = B R D acting on the
monomial vector [1, x, x^2, x^3] of the physical offset within the tile, so
that derivatives come out in physical units (per mm) directly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Rows are the four basis pieces beta_0..beta_3, columns are powers of u.
BASIS_COEFFS = np.array(
    [
        [1.0, -3.0, 3.0, -1.0],
        [4.0, 0.0, -6.0, 3.0],
        [1.0, 3.0, 3.0, -3.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
) / 6.0
BASIS_COEFFS.setflags(write=False)

MIN_TILE_SPACING = 1e-6  # mm; below this the 1/r^3 scaling is meaningless

# Relative slack, in tile units, when classifying points against the grid extent,
# so that points computed as `origin + n * spacing` land inside despite rounding.
_EXTENT_SLACK = 1e-9

_SLAB_POINTS = 16384  # sample points per row block of every separable contraction (`_slabs`)


def _derivative_matrix(order: int) -> np.ndarray:
    """Matrix D with D[m, m-order] = m!/(m-order)! mapping monomial coefficients
    to those of the order-th derivative (acting as Q = B R D on [1,x,x^2,x^3])."""
    mat = np.zeros((4, 4))
    for m in range(order, 4):
        coef = 1.0
        for t in range(m - order + 1, m + 1):
            coef *= t
        mat[m, m - order] = coef
    return mat


DERIVATIVE_MATRICES = tuple(_derivative_matrix(d) for d in range(4))
for _m in DERIVATIVE_MATRICES:
    _m.setflags(write=False)


def _within_extent(s, count):
    """Whether tile-unit coordinates s = (x - origin) / spacing lie in [0, count]:
    the one extent rule, shared by `GridGeometry.contains` and evaluation."""
    slack = _EXTENT_SLACK * np.maximum(1.0, np.abs(s))
    return (s >= -slack) & (s <= count + slack)


def _triple(value, name: str, dtype=float) -> tuple:
    arr = np.asarray(value)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 entries, got shape {arr.shape}")
    return tuple(_count(v, name) if dtype is int else dtype(v) for v in arr.tolist())


def _count(value, name: str) -> int:
    """`value` as an int when it is a whole number >= 1, an integral float or
    a numpy integer included; anything else (0, 2.5, nan, True, "3") is a
    ValueError naming `name`."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < 1):
        raise ValueError(f"{name} must be whole and >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridGeometry:
    """Tile layout of a control-point grid: counts, physical tile size, origin."""

    tile_counts: tuple
    tile_spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "tile_counts", _triple(self.tile_counts, "tile_counts", int))
        object.__setattr__(self, "tile_spacing", _triple(self.tile_spacing, "tile_spacing"))
        object.__setattr__(self, "origin", _triple(self.origin, "origin"))
        if any(not np.isfinite(r) or r < MIN_TILE_SPACING for r in self.tile_spacing):
            raise ValueError(
                f"tile_spacing must be finite and >= {MIN_TILE_SPACING} mm, got {self.tile_spacing}"
            )
        if any(not np.isfinite(o) for o in self.origin):
            raise ValueError("origin must be finite")

    @property
    def lattice_shape(self) -> tuple:
        """Control points per axis: one tile needs 4, each further tile adds 1."""
        return tuple(n + 3 for n in self.tile_counts)

    @property
    def extent(self) -> tuple:
        """Physical size of the gridded region in mm."""
        return tuple(n * r for n, r in zip(self.tile_counts, self.tile_spacing))

    @property
    def tile_total(self) -> int:
        n1, n2, n3 = self.tile_counts
        return n1 * n2 * n3

    def far_corner(self) -> tuple:
        return tuple(o + e for o, e in zip(self.origin, self.extent))

    def greville(self, axis: int) -> np.ndarray:
        """Physical positions attached to the lattice indices along `axis` (0..2).

        A lattice whose values sample a linear function at these positions
        reproduces that function exactly.
        """
        count = self.lattice_shape[axis]
        return self.origin[axis] + (np.arange(count) - 1.0) * self.tile_spacing[axis]

    def contains(self, points):
        """Whether a point, or each point of a (..., 3) array, lies inside the
        extent (within a small rounding slack in tile units)."""
        s = (np.asarray(points, dtype=float) - self.origin) / self.tile_spacing
        return np.all(_within_extent(s, np.array(self.tile_counts)), axis=-1)


class ControlPointGrid:
    """Coefficient lattices p1, p2, p3 (mm) over a GridGeometry.

    Coefficients are stored as one float64 array of shape (3, P1, P2, P3).
    Evaluation never mutates; updates happen through `with_coefficients` or by
    assigning into `coefficients` between evaluation phases.
    """

    __slots__ = ("geometry", "coefficients")

    def __init__(self, geometry: GridGeometry, coefficients):
        coeffs = np.ascontiguousarray(coefficients, dtype=np.float64)
        expected = (3,) + geometry.lattice_shape
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array must have shape {expected}, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        self.geometry = geometry
        self.coefficients = coeffs

    @classmethod
    def zeros(cls, geometry: GridGeometry) -> "ControlPointGrid":
        return cls(geometry, np.zeros((3,) + geometry.lattice_shape))

    def copy(self) -> "ControlPointGrid":
        return ControlPointGrid(self.geometry, self.coefficients.copy())

    def with_coefficients(self, coefficients) -> "ControlPointGrid":
        return ControlPointGrid(self.geometry, coefficients)


@dataclass(frozen=True)
class LocalCoord:
    """A point expressed as its tile plus normalized offsets u in [0, 1]."""

    tile_index: tuple
    u: tuple


def eval_basis(u: float, piece: int, order: int = 0) -> float:
    """Order-th derivative with respect to u of basis piece `piece` at u in [0, 1]."""
    if not 0 <= piece <= 3:
        raise ValueError(f"basis piece must be in 0..3, got {piece}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    return float(build_q(1.0, order)[piece] @ np.array([1.0, u, u * u, u ** 3]))


def build_q(spacing: float, order: int) -> np.ndarray:
    """Q = B R Delta for one axis: the read-only 4x4 matrix whose product with
    [1, x, x^2, x^3] gives the four basis values (or their physical
    derivatives of the given order) at offset x. `spacing` is the tile size
    along that axis in mm."""
    if not np.isfinite(spacing) or spacing < MIN_TILE_SPACING:
        raise ValueError(f"tile spacing must be >= {MIN_TILE_SPACING} mm, got {spacing}")
    if not 0 <= order <= 3:
        raise ValueError(f"derivative order must be in 0..3, got {order}")
    scale = np.diag([1.0, 1.0 / spacing, 1.0 / spacing ** 2, 1.0 / spacing ** 3])
    q = BASIS_COEFFS @ scale @ DERIVATIVE_MATRICES[order]
    q.setflags(write=False)
    return q


def _locate_axis(geometry: GridGeometry, axis: int, values) -> tuple:
    """Tile indices and normalized offsets u in [0, 1] of coordinates along one
    axis (arrays shaped like `values`)."""
    origin = geometry.origin[axis]
    spacing = geometry.tile_spacing[axis]
    count = geometry.tile_counts[axis]
    v = np.asarray(values, dtype=float)
    s = (v - origin) / spacing
    outside = ~_within_extent(s, count)
    if np.any(outside):
        raise ValueError(
            f"point coordinate {v[outside].flat[0]} outside grid extent "
            f"[{origin}, {origin + count * spacing}] on axis {axis + 1}"
        )
    s = np.clip(s, 0.0, float(count))
    # the far face closes onto the last tile at u = 1
    tile = np.minimum(s.astype(np.int64), count - 1)
    return tile, s - tile


def locate(geometry: GridGeometry, point) -> LocalCoord:
    """Tile index and normalized local coordinates of a physical point."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"point must be a 3-vector, got shape {p.shape}")
    located = [_locate_axis(geometry, d, p[d]) for d in range(3)]
    return LocalCoord(
        tile_index=tuple(int(t) for t, _ in located),
        u=tuple(float(u) for _, u in located),
    )


def _axis_weights(geometry: GridGeometry, axis: int, u, order: int) -> np.ndarray:
    """(..., 4) basis (derivative) values along one axis at normalized offsets u."""
    spacing = geometry.tile_spacing[axis]
    q = build_q(spacing, order)
    x = np.asarray(u, dtype=float) * spacing
    return np.stack([np.ones_like(x), x, x ** 2, x ** 3], axis=-1) @ q.T


def _support_indices(geometry: GridGeometry, t1, t2, t3) -> np.ndarray:
    """(..., 64) flat lattice indices of the blocks supporting tiles (t1, t2, t3).
    The one statement of the support layout: entry 16*l + 4*m + n holds offset
    (l, m, n) from the tile's first control point (third axis fastest), the
    Kronecker order of the tile operators, so `tile_term` contracts it directly."""
    _, p2, p3 = geometry.lattice_shape
    four = np.arange(4)
    offsets = ((four[:, None, None] * p2 + four[None, :, None]) * p3 + four).ravel()
    first = (np.asarray(t1, dtype=np.int64) * p2 + t2) * p3 + t3
    return first[..., None] + offsets


def _eval_points(grid: ControlPointGrid, points, orders: tuple) -> np.ndarray:
    """(..., 3) mixed partials of the given multi-index of all three components
    at the points of a 3-vector or (..., 3) array inside the grid extent."""
    geometry = grid.geometry
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (3,):
        raise ValueError(f"points must have a last axis of 3, got shape {pts.shape}")
    located = [_locate_axis(geometry, d, pts[..., d]) for d in range(3)]
    w1, w2, w3 = (_axis_weights(geometry, d, u, orders[d]) for d, (_, u) in enumerate(located))
    support = _support_indices(geometry, *(t for t, _ in located))
    block = grid.coefficients.reshape(3, -1)[:, support].reshape((3,) + pts.shape[:-1] + (4, 4, 4))
    weights = w1[..., :, None, None] * w2[..., None, :, None] * w3[..., None, None, :]
    return np.einsum("...lmn,c...lmn->...c", weights, block)


def eval_displacement(grid: ControlPointGrid, points) -> np.ndarray:
    """Displacement vectors (mm) at physical points inside the grid extent.

    `points` is a 3-vector or a (..., 3) array; the result has its shape.
    """
    return _eval_points(grid, points, (0, 0, 0))


def _check_multi_index(orders) -> tuple:
    idx = tuple(int(o) for o in orders)
    if len(idx) != 3 or any(o < 0 or o > 3 for o in idx) or sum(idx) > 3:
        raise ValueError(
            f"derivative multi-index must be 3 entries in 0..3 with total <= 3, got {orders}"
        )
    return idx


def eval_partial(grid: ControlPointGrid, point, component: int, orders) -> float:
    """Mixed partial derivative of one displacement component, in physical units.

    `orders` is the (d1, d2, d3) multi-index; e.g. (1, 0, 0) is d/dx1 and
    (1, 1, 0) is d^2/dx1 dx2. Total order at most 3.
    """
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    idx = _check_multi_index(orders)
    if np.shape(point) != (3,):
        raise ValueError(f"point must be a 3-vector, got shape {np.shape(point)}")
    return float(_eval_points(grid, point, idx)[component - 1])


def tile_coefficients(grid: ControlPointGrid, tile_index) -> tuple:
    """The three 64-vectors of coefficients supporting one tile, in the
    flattening order of `_support_indices` (entry 16*l + 4*m + n holds lattice
    offset (l, m, n), the third axis fastest)."""
    t = tuple(int(i) for i in tile_index)
    counts = grid.geometry.tile_counts
    if len(t) != 3 or any(i < 0 or i >= n for i, n in zip(t, counts)):
        raise IndexError(f"tile index {tile_index} out of range for counts {counts}")
    return tuple(grid.coefficients.reshape(3, -1)[:, _support_indices(grid.geometry, *t)])


def support_index_map(geometry: GridGeometry) -> np.ndarray:
    """(tile_total, 64) flat lattice indices of every tile's supporting block.

    Tiles are ordered with the third axis fastest; within a tile the 64 entries
    follow the `tile_coefficients` flattening order.
    """
    tiles = np.ix_(*(np.arange(n) for n in geometry.tile_counts))
    return _support_indices(geometry, *tiles).reshape(-1, 64)


def axis_weight_matrix(geometry: GridGeometry, axis: int, coords, order: int = 0) -> np.ndarray:
    """Dense (len(coords), P_axis) matrix of basis-derivative weights.

    Row s holds the four nonzero weights of sample coords[s] placed at the
    lattice columns supporting it; everything else is zero. Contracting these
    per-axis matrices against the lattice evaluates the field (or a physical
    derivative) on an axis-aligned sample grid.
    """
    tiles, u = _locate_axis(geometry, axis, coords)
    local = _axis_weights(geometry, axis, u, order)  # (S, 4)
    out = np.zeros((len(coords), geometry.lattice_shape[axis]))
    rows = np.arange(len(coords))
    for piece in range(4):
        out[rows, tiles + piece] += local[:, piece]
    return out


def _slabs(shape, points: int = _SLAB_POINTS) -> list:
    """Slabs of whole first-axis rows of a (S1, S2, S3) grid, ~`points` points each;
    by default the row blocks in which `_contract` and `scatter_separable` make
    their BLAS products, so a whole call has the bits of the same calls slab by slab."""
    rows = max(1, points // (shape[1] * shape[2]))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


def _contract(lattice: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray, out=None) -> np.ndarray:
    """The lattice contracted with the per-axis weight matrices: (S1, S2, S3)
    samples, written into `out` (a C-contiguous float64 array of that shape)
    when given, else into a new array, with the same bits either way."""
    # each product is the one np.tensordot makes along the same axes, minus its argument handling
    (p1, p2, p3), s2, s3 = lattice.shape, len(w2), len(w3)
    shape, flat = (len(w1), s2, s3), lattice.reshape(p1, -1)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    for part in _slabs(out.shape):
        block = np.dot(w1[part], flat).reshape(-1, p2, p3).transpose(0, 2, 1).reshape(-1, p2)
        block = np.dot(block, w2.T).reshape(-1, p3, s2).transpose(0, 2, 1).reshape(-1, p3)
        np.dot(block, w3.T, out=out[part].reshape(-1, s3))
    return out


def _sample_planes(grid: ControlPointGrid, ws) -> np.ndarray:
    """(3, S1, S2, S3) displacement components on a separable sample grid,
    given the grid's per-axis 0th-order weight matrices `ws` there."""
    planes = np.empty((3,) + tuple(len(w) for w in ws))
    for c in range(3):
        _contract(grid.coefficients[c], *ws, out=planes[c])
    return planes


def sample_displacement(grid: ControlPointGrid, axes) -> np.ndarray:
    """Displacement on the outer product of three coordinate arrays.

    Returns (S1, S2, S3, 3): a view of planar (3, S1, S2, S3) storage, so each
    component `[..., c]` is one contiguous volume. Fast path for dense
    evaluation: the sample grid is separable so each axis is contracted once.
    """
    ws = [axis_weight_matrix(grid.geometry, d, axes[d], 0) for d in range(3)]
    return np.moveaxis(_sample_planes(grid, ws), 0, -1)


def sample_partial(grid: ControlPointGrid, axes, component: int, orders) -> np.ndarray:
    """One mixed partial of one component on a separable sample grid."""
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    idx = _check_multi_index(orders)
    ws = [axis_weight_matrix(grid.geometry, d, axes[d], idx[d]) for d in range(3)]
    return _contract(grid.coefficients[component - 1], *ws)


def scatter_separable(values: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> np.ndarray:
    """Adjoint of the separable contraction: accumulate per-sample values into
    a lattice-shaped array using the same weight matrices, from zeros."""
    (_, s2, s3), p1, p2, p3 = values.shape, w1.shape[1], w2.shape[1], w3.shape[1]
    out = np.zeros((p1, p2, p3))
    for part in _slabs(values.shape):
        block = np.dot(values[part].reshape(-1, s3), w3).reshape(-1, s2, p3).transpose(0, 2, 1)
        block = np.dot(block.reshape(-1, s2), w2).reshape(-1, p3, p2).transpose(1, 2, 0)
        out += np.dot(block.reshape(p3 * p2, -1), w1[part]).reshape(p3, p2, p1).transpose(2, 1, 0)
    return out


def monomial_lattice_1d(positions: np.ndarray, spacing: float, power: int) -> np.ndarray:
    """Per-axis coefficient values that make the cubic B-spline series reproduce
    x^power exactly (power 0..3). Quadratic and cubic need the classic
    -spacing^2/3 and -spacing^2 corrections on top of the sampled monomial."""
    g = np.asarray(positions, dtype=float)
    if power == 0:
        return np.ones_like(g)
    if power == 1:
        return g.copy()
    if power == 2:
        return g ** 2 - spacing ** 2 / 3.0
    if power == 3:
        return g ** 3 - spacing ** 2 * g
    raise ValueError(f"power must be in 0..3, got {power}")


def monomial_grid(geometry: GridGeometry, component: int, powers, scale: float = 1.0) -> ControlPointGrid:
    """Grid whose `component` field equals scale * x1^a x2^b x3^c (others zero).

    Each per-axis power must be at most 3; such separable polynomials are
    reproduced exactly by the cubic basis.
    """
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    pw = tuple(int(p) for p in powers)
    if len(pw) != 3 or any(p < 0 or p > 3 for p in pw):
        raise ValueError(f"per-axis powers must be in 0..3, got {powers}")
    axes = [
        monomial_lattice_1d(geometry.greville(d), geometry.tile_spacing[d], pw[d])
        for d in range(3)
    ]
    lattice = scale * axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    coeffs = np.zeros((3,) + geometry.lattice_shape)
    coeffs[component - 1] = lattice
    return ControlPointGrid(geometry, coeffs)


def linear_field_grid(geometry: GridGeometry, matrix=None, offset=None) -> ControlPointGrid:
    """Grid reproducing the affine field v(x) = matrix @ x + offset exactly."""
    mat = np.zeros((3, 3)) if matrix is None else np.asarray(matrix, dtype=float)
    off = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
    if mat.shape != (3, 3) or off.shape != (3,):
        raise ValueError("matrix must be 3x3 and offset a 3-vector")
    coeffs = np.zeros((3,) + geometry.lattice_shape)
    grev = [geometry.greville(d) for d in range(3)]
    for c in range(3):
        coeffs[c] += off[c]
        coeffs[c] += mat[c, 0] * grev[0][:, None, None]
        coeffs[c] += mat[c, 1] * grev[1][None, :, None]
        coeffs[c] += mat[c, 2] * grev[2][None, None, :]
    return ControlPointGrid(geometry, coeffs)
