"""Volumes, their on-disk format, and synthetic data generators.

A Volume is a scalar or 3-vector sample array with voxel spacing and origin;
the origin is the physical position of the *center* of voxel (0, 0, 0), so
voxel i sits at origin + i * spacing. VOL1 volumes, BSPG1 grids and VBANK1
banks share one file layout, which one codec writes (`_write_file`) and reads
(`_read_header`, `_read_payload`): a magic line, `key v1 v2 ...` lines, then a
raw little-endian payload (float32 for volumes, which writing narrows; float64
in memory).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bspline_core as core


class FormatError(ValueError):
    """Raised for malformed or truncated data files."""


@dataclass
class Volume:
    """3D scalar field (d1, d2, d3) or 3-vector field (d1, d2, d3, 3)."""

    data: np.ndarray
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 4 and self.data.shape[3] == 3:
            pass
        elif self.data.ndim != 3:
            raise ValueError(f"volume data must be (d1,d2,d3) or (d1,d2,d3,3), got {self.data.shape}")
        if any(d < 1 for d in self.data.shape[:3]):
            raise ValueError(f"volume dims must all be >= 1, got {self.data.shape[:3]}")
        self.spacing = core._triple(self.spacing, "spacing")
        self.origin = core._triple(self.origin, "origin")
        if any(s <= 0 or not np.isfinite(s) for s in self.spacing):
            raise ValueError(f"voxel spacing must be positive, got {self.spacing}")
        if any(not np.isfinite(o) for o in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def dims(self) -> tuple:
        return self.data.shape[:3]

    @property
    def components(self) -> int:
        return 1 if self.data.ndim == 3 else 3

    def axis_coords(self, axis: int) -> np.ndarray:
        """Physical coordinates of voxel centers along one axis."""
        return self.origin[axis] + np.arange(self.dims[axis]) * self.spacing[axis]

    def center_span(self) -> tuple:
        """Physical distance between first and last voxel centers per axis."""
        return tuple((d - 1) * s for d, s in zip(self.dims, self.spacing))

    def same_geometry(self, other: "Volume") -> bool:
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and self.origin == other.origin
        )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _write_file(path, magic: str, fields, payload: np.ndarray, dtype: str):
    """Write one file of the common layout: the magic line, one `key v1 v2 ...`
    line per (key, values) field, floats by repr, then `payload` in C order as
    raw little-endian `dtype` values."""
    lines = [magic] + [" ".join([key] + [repr(float(v)) if isinstance(v, float) else str(v) for v in values])
                       for key, values in fields]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode("ascii"))
        fh.write(np.ascontiguousarray(payload, dtype=dtype).tobytes())


def _read_header_line(fh) -> str:
    raw = fh.readline(513)  # at most 512 bytes and the newline
    if not raw.endswith(b"\n"):
        if len(raw) > 512:
            raise FormatError("header line too long; not a valid header")
        raise FormatError("unexpected end of file inside header")
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise FormatError("header is not ASCII text") from exc


def _read_header(fh, fields, magic: str | None = None) -> list:
    """Check the magic line of the open file `fh`, if given, then read one
    `key v1 .. vcount` line per (key, count) of `fields`: their values, as strings."""
    if magic is not None and (found := _read_header_line(fh)) != magic:
        raise FormatError(f"not a {magic} file (magic {found!r})")
    values = []
    for key, count in fields:
        line = _read_header_line(fh)
        parts = line.split()
        if len(parts) != count + 1 or parts[0] != key:
            raise FormatError(f"malformed header line {line!r}, expected '{key}' with {count} values")
        values.append(parts[1:])
    return values


def _numbers(key: str, values, kind=float, low=-np.inf) -> tuple:
    """The values of header field `key` as `kind`, each finite and >= `low`."""
    try:
        numbers = tuple(kind(v) for v in values)
        if all(np.isfinite(v) and v >= low for v in numbers):
            return numbers
    except ValueError:  # not a number of that kind
        pass
    bound = f" >= {low}" if low > -np.inf else ""
    raise FormatError(f"header field '{key} {' '.join(values)}': values must be finite {kind.__name__}s{bound}")


def _read_payload(fh, dtype: str, shape) -> np.ndarray:
    """The rest of the open file `fh` as raw little-endian `dtype` values,
    returned as a float64 array of `shape`: its length must fit `shape`
    exactly, and every value must be finite."""
    payload, expected = fh.read(), math.prod(shape) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if bad := int(np.count_nonzero(~np.isfinite(data))):
        raise FormatError(f"{bad} of {data.size} values are not finite (NaN or infinite)")
    return data.reshape(shape)


def write_volume(volume: Volume, path):
    """Write a VOL1 file. Data narrows to float32 on disk."""
    _write_file(path, "VOL1", (("dims", volume.dims), ("spacing", volume.spacing), ("origin", volume.origin),
                               ("dtype", ("float32",)), ("components", (volume.components,))), volume.data, "<f4")


def read_volume(path) -> Volume:
    """Read a VOL1 file back into a float64 Volume."""
    with open(path, "rb") as fh:
        dims, spacing, origin, (dtype,), (components,) = _read_header(
            fh, (("dims", 3), ("spacing", 3), ("origin", 3), ("dtype", 1), ("components", 1)), "VOL1")
        if dtype != "float32":
            raise FormatError(f"unsupported element type {dtype!r}")
        if components not in ("1", "3"):
            raise FormatError(f"component count must be 1 or 3, got {components}")
        dims = _numbers("dims", dims, int, 1)
        data = _read_payload(fh, "<f4", dims if components == "1" else dims + (3,))
    return Volume(data, _numbers("spacing", spacing, low=math.ulp(0.0)), _numbers("origin", origin))  # spacing > 0


def write_grid(grid: core.ControlPointGrid, path):
    """Write a BSPG1 coefficient file (float64 payload, component-major)."""
    geom = grid.geometry
    fields = (("tiles", geom.tile_counts), ("spacing", geom.tile_spacing), ("origin", geom.origin))
    _write_file(path, "BSPG1", fields, grid.coefficients, "<f8")


def read_grid(path) -> core.ControlPointGrid:
    with open(path, "rb") as fh:
        tiles, spacing, origin = _read_header(fh, (("tiles", 3), ("spacing", 3), ("origin", 3)), "BSPG1")
        geometry = core.GridGeometry(_numbers("tiles", tiles, int, 1),
                                     _numbers("spacing", spacing, low=core.MIN_TILE_SPACING),
                                     _numbers("origin", origin))
        return core.ControlPointGrid(geometry, _read_payload(fh, "<f8", (3,) + geometry.lattice_shape))


# ---------------------------------------------------------------------------
# Interpolation and resampling
# ---------------------------------------------------------------------------

def trilinear_sample(volume: Volume, points: np.ndarray):
    """Trilinear interpolation of a scalar volume at physical points.

    Returns (values, inside_mask). Points outside the voxel-center hull get
    value 0 and mask False. Work runs on the (3, ...) planes of `points`; an
    (..., 3) view of them costs no copy.
    """
    if volume.components != 1:
        raise ValueError("trilinear_sample expects a scalar volume")
    planes = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    idx = [(planes[d] - volume.origin[d]) / volume.spacing[d] for d in range(3)]
    inside = np.all([(i >= 0.0) & (i <= n - 1) for i, n in zip(idx, volume.dims)], axis=0)
    values, _ = _cell_sample(volume, idx, False)
    return np.where(inside, values, 0.0), inside


def _cell_of(dims, idx) -> tuple:
    """Flat index of the base voxel of each point's interpolation cell, and
    the point's (f1, f2, f3) offsets in [0, 1] within it, at the per-axis voxel
    indices `idx`. The base is clipped to dims - 2 (0 on a one-voxel axis, and
    for a NaN index) in floating point, where whole voxel counts are exact, and
    converted to an integer once, as the flat index."""
    flat, offsets = 0.0, []
    for i, n, stride in zip(idx, dims, (dims[1] * dims[2], dims[2], 1)):
        base = np.floor(i, out=np.empty_like(i))  # an array, also for one point
        np.fmin(np.fmax(base, 0.0, out=base), max(n - 2, 0), out=base)
        offsets.append(np.clip(np.subtract(i, base), 0.0, 1.0))
        flat = np.add(np.multiply(base, stride, out=base), flat, out=base)
    return flat.astype(np.int64), tuple(offsets)


_MONOMIAL_CORNERS = (0, 4, 2, 1, 6, 5, 3, 7)  # corner c = 4 i1 + 2 i2 + i3 of a0..a7's f1^i1 f2^i2 f3^i3


def _corner_coefficients(volume: Volume, i000: np.ndarray) -> list:
    """The eight coefficients a0..a7 of the cell polynomials whose base
    voxels have the flat indices `i000`: the trilinear interpolant on the cell
    is a0 + a1 f1 + a2 f2 + a3 f3 + a4 f1f2 + a5 f1f3 + a6 f2f3 + a7 f1f2f3.
    The coefficient of f1^i1 f2^i2 f3^i3 is the value at corner c = 4 i1 +
    2 i2 + i3, forward-differenced along axis 1, then 2, then 3. The base is
    clipped to dims - 2, so the upper corner is base + 1 on every axis except
    a one-voxel one, whose stride is 0 and whose differences are 0."""
    d1, d2, d3 = volume.dims
    s1, s2, s3 = (d2 * d3 if d1 > 1 else 0), (d3 if d2 > 1 else 0), (1 if d3 > 1 else 0)
    flat = volume.data.ravel()
    # each corner gathered from the view that starts at its offset, so no index is summed; in a0..a7
    # order, not by corner: the differences then ran about 10% faster at 16384 points
    p = {c: flat[(c >> 2) * s1 + (c >> 1 & 1) * s2 + (c & 1) * s3:].take(i000) for c in _MONOMIAL_CORNERS}
    for step in (4, 2, 1):  # along axis 1, 2, 3: each corner with a 1 there less its partner with a 0
        for c in p:
            if c & step:
                p[c] -= p[c - step]
    return list(p.values())


def _cell_sample(volume: Volume, idx, gradient: bool) -> tuple:
    """Values of the trilinear interpolant at the per-axis voxel indices `idx`
    and, with gradient=True, a list of the three planes of its gradient per
    mm (else None), with no inside test: a point beyond a face takes the value
    on the face, and its gradient that of the outermost cell.

    Each point's cell polynomial, from `_corner_coefficients` and keyed by
    corner as p[c], is evaluated by Horner's rule along axis 3, then 2, then
    1: the step along an axis folds each coefficient with a 1 there into its
    partner with a 0, p[c] += f p[c + step]. The products go to one spare
    plane, so every plane keeps the value its fold read, and the derivative
    along an axis is the polynomial of the planes with a 1 there, summed into
    the plane of its constant term: dM/df1 = p[4], dM/df2 = p[2] + f1 p[6]
    and dM/df3 = p[1] + f2 (p[3] + f1 p[7]) + f1 p[5], summed in that order,
    which fixes its rounding. The coefficients are eight separate arrays, not
    one (8, n) block, so only the planes that the result reuses outlive the
    call. They are the first four gathered, so the freed ones lie together for
    the slab's next allocations: keeping others ran about 10% slower."""
    i000, offsets = _cell_of(volume.dims, idx)
    shape = i000.shape
    # flat rows: those of a 0-d gather would be scalars, which in-place ops do not write back
    i000, f1, f2, f3 = [x.reshape(-1) for x in (i000, *offsets)]
    p = dict(zip(_MONOMIAL_CORNERS, _corner_coefficients(volume, i000)))
    spare = np.empty_like(f1) if gradient else p[1]  # without gradient, the first fold spends p[1]
    for step, f in ((1, f3), (2, f2), (4, f1)):
        for c in range(0, 8, 2 * step):
            p[c] += np.multiply(f, p[c + step], out=spare)
    if not gradient:
        return p[0].reshape(shape), None
    p[6] *= f1  # dM/df2, into p[2]
    p[2] += p[6]
    p[7] *= f1  # dM/df3, into p[1]
    p[7] += p[3]
    p[7] *= f2
    p[1] += p[7]
    p[5] *= f1
    p[1] += p[5]
    return p[0].reshape(shape), [np.divide(p[c], s, out=p[c]).reshape(shape) for c, s in zip((4, 2, 1), volume.spacing)]


def _hull_faded_sample(volume: Volume, planes: np.ndarray) -> tuple:
    """The moving-image terms of the hull-faded data term at the (3, ...)
    planes of physical points: (M, grad M, w, grad w), gradients per mm, grad
    M as three planes and grad w as (3, ...) planes. M and grad M are as
    `_cell_sample` gives them.

    The fade is w = w1 w2 w3 with w_d = clip(min(i_d, n_d - 1 - i_d), 0, 1)
    at voxel index i_d: 0 on the faces of the voxel-centre hull and beyond
    them, 1 one cell or more inside. grad w along d is the product of the
    other two factors times +-1 / spacing_d on the ramp and 0 elsewhere. An
    axis of one or two voxels has no room for the ramp: there w_d is 1 on and
    between its voxel planes and 0 off them, as the inside test of
    `trilinear_sample`.
    """
    idx = [(planes[d] - volume.origin[d]) / volume.spacing[d] for d in range(3)]
    values, grads = _cell_sample(volume, idx, True)
    fades, dw = [], np.zeros((3,) + values.shape)
    for d, (i, n) in enumerate(zip(idx, volume.dims)):
        if n <= 2:
            fades.append(((i >= 0.0) & (i <= n - 1)).astype(float))
            continue
        step = 1.0 / volume.spacing[d]
        to_far_face = (n - 1) - i
        dw[d] = np.where(i <= to_far_face, step, -step)
        depth = np.minimum(i, to_far_face, out=to_far_face)  # voxels inside the nearer face
        dw[d][(depth <= 0.0) | (depth >= 1.0)] = 0.0  # off the ramp
        fades.append(np.clip(depth, 0.0, 1.0, out=depth))
    w = fades[0]
    for d, w_d in enumerate(fades):  # product rule: w_d scales w and every other axis's grad w
        if d:
            w *= w_d
        for e in range(3):
            if e != d:
                dw[e] *= w_d
    return values, grads, w, dw


def _warped_planes(grid: core.ControlPointGrid, axes, ws, part=slice(None)) -> np.ndarray:
    """(3, rows, S2, S3) planes of x + v(x) on first-axis rows `part` of the
    separable grid `axes`, given the grid's 0th-order weight matrices `ws` there."""
    planes = core._sample_planes(grid, (ws[0][part], ws[1], ws[2]))
    for d, a in enumerate((axes[0][part], axes[1], axes[2])):
        planes[d] += a.reshape([-1 if e == d else 1 for e in range(3)])
    return planes


def _voxel_weights(geometry: core.GridGeometry, like: Volume) -> tuple:
    """The 0th-order weight matrices of `like`'s voxel centers on `geometry`,
    one per axis. They depend on nothing else, so the last geometry and voxel
    grid asked for keep theirs, read-only: every evaluation of a registration
    stage asks for the same ones."""
    return _grid_weights(geometry, like.dims, like.spacing, like.origin)


@functools.lru_cache(maxsize=1)
def _grid_weights(geometry: core.GridGeometry, dims: tuple, spacing: tuple, origin: tuple) -> tuple:
    ws = tuple(core.axis_weight_matrix(geometry, d, origin[d] + np.arange(dims[d]) * spacing[d], 0) for d in range(3))
    for w in ws:
        w.flags.writeable = False
    return ws


def warped_voxel_centers(grid: core.ControlPointGrid, like: Volume) -> np.ndarray:
    """Positions x + v(x) of every voxel center x of `like`: a like.dims + (3,) planar view."""
    axes = [like.axis_coords(d) for d in range(3)]
    return np.moveaxis(_warped_planes(grid, axes, _voxel_weights(grid.geometry, like)), 0, -1)


def warp_volume(moving: Volume, grid: core.ControlPointGrid, like: Volume) -> Volume:
    """Resample `moving` through x -> x + v(x) onto `like`'s voxels, block by block."""
    axes = [like.axis_coords(d) for d in range(3)]
    ws = _voxel_weights(grid.geometry, like)
    values = np.empty(like.dims)
    for part in core._slabs(like.dims):
        points = np.moveaxis(_warped_planes(grid, axes, ws, part), 0, -1)
        values[part], _ = trilinear_sample(moving, points)
    return Volume(data=values, spacing=like.spacing, origin=like.origin)


def box_downsample(volume: Volume, factor: int) -> Volume:
    """Integer-factor box-filter downsample; trailing voxels that do not fill a
    box are dropped. The origin moves to the center of the first box."""
    if volume.components != 1:
        raise ValueError("box_downsample expects a scalar volume")
    f = core._count(factor, "factor")
    if f == 1:
        return Volume(volume.data.copy(), volume.spacing, volume.origin)
    dims = tuple((d // f) for d in volume.dims)
    for axis, n in enumerate(volume.dims, 1):
        if n < f:
            raise ValueError(f"factor {f} leaves no voxel of the {n} on axis {axis}")
    cropped = volume.data[: dims[0] * f, : dims[1] * f, : dims[2] * f]
    data = cropped.reshape(dims[0], f, dims[1], f, dims[2], f).mean(axis=(1, 3, 5))
    spacing = tuple(s * f for s in volume.spacing)
    origin = tuple(o + (f - 1) / 2.0 * s for o, s in zip(volume.origin, volume.spacing))
    return Volume(data=data, spacing=spacing, origin=origin)


def covering_geometry(volume: Volume, tile_spacing) -> core.GridGeometry:
    """Smallest grid with the given tile spacing whose extent, from the first
    voxel center, covers every voxel center."""
    spacing = core._triple(tile_spacing, "tile_spacing")
    span = volume.center_span()
    counts = tuple(max(1, int(np.ceil(span[d] / spacing[d] - 1e-9))) for d in range(3))
    return core.GridGeometry(counts, spacing, volume.origin)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def make_phantom(kind: str, dims, spacing, seed: int = 0, origin=(0.0, 0.0, 0.0)) -> Volume:
    """Deterministic synthetic test image.

    blobs    sum of anisotropic Gaussian bumps with seeded placement
    gradient voxel value equals its x1 coordinate in mm
    checker  20 mm checkerboard of 0/1
    """
    dims = tuple(int(d) for d in dims)
    vol = Volume(data=np.zeros(dims), spacing=spacing, origin=origin)
    axes = [vol.axis_coords(d) for d in range(3)]
    if kind == "gradient":
        vol.data += axes[0][:, None, None]
        return vol
    if kind == "checker":
        period = 20.0
        par = [np.floor(a / period).astype(int) % 2 for a in axes]
        vol.data[:] = (par[0][:, None, None] ^ par[1][None, :, None] ^ par[2][None, None, :]).astype(float)
        return vol
    if kind != "blobs":
        raise ValueError(f"unknown phantom kind {kind!r}")
    rng = np.random.default_rng(seed)
    span = vol.center_span()
    volume_mm3 = max(np.prod([max(s, 1.0) for s in span]), 1.0)
    n_blobs = int(np.clip(volume_mm3 / 32.0 ** 3, 8, 60))
    for _ in range(n_blobs):
        center = [rng.uniform(0, span[d]) + vol.origin[d] for d in range(3)]
        width = rng.uniform(6.0, 16.0, size=3)
        amp = rng.uniform(0.5, 1.5)
        parts = [np.exp(-(((axes[d] - center[d]) / width[d]) ** 2)) for d in range(3)]
        vol.data += amp * parts[0][:, None, None] * parts[1][None, :, None] * parts[2][None, None, :]
    return vol


def random_coefficient_grid(
    geometry: core.GridGeometry, amplitude: float, seed: int = 0
) -> core.ControlPointGrid:
    """IID normal coefficients with the given standard deviation (mm)."""
    rng = np.random.default_rng(seed)
    return core.ControlPointGrid(
        geometry, rng.normal(0.0, amplitude, size=(3,) + geometry.lattice_shape)
    )


def _edge_taper_window(shape) -> np.ndarray:
    """Separable window that is zero on the outer lattice shells and ramps to 1,
    so the generated field (and its derivatives) vanish toward the boundary."""

    def taper_1d(count: int) -> np.ndarray:
        zero = min(2, max(0, (count - 4) // 3))
        ramp = max(1, min(3, (count - 2 * zero - 1) // 2))
        w = np.ones(count)
        for i in range(count):
            edge = min(i, count - 1 - i)
            if edge < zero:
                w[i] = 0.0
            else:
                t = min(1.0, (edge - zero + 1) / (ramp + 1))
                w[i] = 0.5 * (1.0 - np.cos(np.pi * t))
        return w

    w1, w2, w3 = (taper_1d(n) for n in shape)
    return w1[:, None, None] * w2[None, :, None] * w3[None, None, :]


def _gaussian_blur(array: np.ndarray, sigmas) -> np.ndarray:
    """Gaussian blur with zero padding, one axis after another, bitwise equal to
    `scipy.ndimage.gaussian_filter(array, sigmas, mode="constant")`. The kernel
    exp(-t^2 / (2 sigma^2)), normalized by its sum, is truncated at radius
    int(4 sigma + 0.5); each output starts as x[i] w0 and adds
    (x[i-j] + x[i+j]) w_j for j from the radius down to 1, the order of scipy's
    symmetric-kernel loop. Axes with sigma <= 1e-15 are left as they are."""
    out = np.array(array, dtype=np.float64)
    for axis, sigma in enumerate(sigmas):
        sigma = float(sigma)
        if sigma <= 1e-15:
            continue
        radius = int(4.0 * sigma + 0.5)
        t = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 / (sigma * sigma) * t ** 2)
        w = (kernel / kernel.sum())[radius:]
        lines = np.moveaxis(out, axis, 0)
        n = lines.shape[0]
        padded = np.zeros((n + 2 * radius,) + lines.shape[1:])
        padded[radius:radius + n] = lines
        blurred = lines * w[0]
        for j in range(radius, 0, -1):
            blurred += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) * w[j]
        out = np.moveaxis(blurred, 0, axis)
    return np.ascontiguousarray(out)


def make_smooth_grid(
    geometry: core.GridGeometry,
    amplitude: float,
    smoothness: float,
    seed: int = 0,
    edge_taper: bool = True,
) -> core.ControlPointGrid:
    """Smooth random coefficient grid: white noise blurred to the given physical
    correlation scale, optionally tapered to zero at the lattice boundary, and
    scaled so the largest coefficient vector has magnitude `amplitude`.

    The blur is `_gaussian_blur` with sigma = smoothness / tile spacing per
    axis, zero padded and truncated at 4 sigma: the numbers of
    `scipy.ndimage.gaussian_filter(mode="constant")`, without importing scipy."""
    if not np.isfinite(smoothness) or smoothness < 0:
        raise ValueError(f"smoothness must be finite and >= 0, got {smoothness}")
    rng = np.random.default_rng(seed)
    shape = geometry.lattice_shape
    sigmas = [smoothness / r for r in geometry.tile_spacing]
    coeffs = rng.normal(size=(3,) + shape)
    coeffs = np.stack([_gaussian_blur(coeffs[c], sigmas) for c in range(3)])
    if edge_taper:
        coeffs *= _edge_taper_window(shape)[None]
    peak = np.max(np.linalg.norm(coeffs, axis=0))
    if peak > 0:
        coeffs *= amplitude / peak
    return core.ControlPointGrid(geometry, coeffs)


_FIELD_DRAWS = 20  # fold-free draws tried by make_ground_truth_field


def make_ground_truth_field(
    geometry: core.GridGeometry,
    amplitude: float,
    smoothness: float,
    seed: int = 0,
    n_landmarks: int = 300,
):
    """Smooth random displacement field with a fold-free guarantee, plus paired
    landmarks: random fixed points and their exact warps through the field.

    Returns (grid, fixed_landmarks, warped_landmarks). Edge-tapered draws
    (`make_smooth_grid`) are rejected until the minimum Jacobian determinant is
    positive, at most `_FIELD_DRAWS` times; the amplitude must stay below a
    third of the smoothness scale or rejection rarely terminates.
    """
    from .field_metrics import LandmarkSet, jacobian_map, warp_landmarks
    from .regularizers_numeric import SamplingSpec

    if amplitude < 0 or not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    if amplitude >= smoothness / 3.0:
        raise ValueError(
            f"amplitude {amplitude} too large for smoothness {smoothness}; "
            "need amplitude < smoothness / 3 to keep the field diffeomorphic"
        )

    spec = SamplingSpec.per_tile((4, 4, 4))
    grid = None
    for attempt in range(_FIELD_DRAWS):
        candidate = make_smooth_grid(geometry, amplitude, smoothness, seed + attempt)
        if amplitude == 0.0:
            grid = candidate
            break
        _, min_j = jacobian_map(candidate, spec)
        if min_j > 1e-3:
            grid = candidate
            break
    if grid is None:
        raise RuntimeError(
            f"could not draw a fold-free field in {_FIELD_DRAWS} attempts "
            f"(amplitude {amplitude}, smoothness {smoothness})"
        )

    rng = np.random.default_rng(seed + 7919)
    lo = np.array(geometry.origin)
    hi = np.array(geometry.far_corner())
    margin = amplitude + 0.01 * (hi - lo)
    pts = rng.uniform(lo + margin, hi - margin, size=(n_landmarks, 3))
    fixed = LandmarkSet(points=pts, label="fixed")
    warped = warp_landmarks(grid, fixed)
    return grid, fixed, warped
