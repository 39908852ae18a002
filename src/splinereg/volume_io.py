"""Volumes, their on-disk format, and synthetic data generators.

A Volume is a scalar or 3-vector sample array with voxel spacing and origin;
the origin is the physical position of the *center* of voxel (0, 0, 0), so
voxel i sits at origin + i * spacing. Files use a short self-describing text
header followed by a raw little-endian payload (float32 on disk, float64 in
memory; writing narrows).
"""

from __future__ import annotations

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

def _read_header_line(fh) -> str:
    raw = bytearray()
    while True:
        b = fh.read(1)
        if not b:
            raise FormatError("unexpected end of file inside header")
        if b == b"\n":
            break
        raw += b
        if len(raw) > 512:
            raise FormatError("header line too long; not a valid header")
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise FormatError("header is not ASCII text") from exc


def _header_fields(line: str, key: str, count: int) -> list:
    parts = line.split()
    if len(parts) != count + 1 or parts[0] != key:
        raise FormatError(f"malformed header line {line!r}, expected '{key}' with {count} values")
    return parts[1:]


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_volume(volume: Volume, path):
    """Write a VOL1 file. Data narrows to float32 on disk."""
    with open(path, "wb") as fh:
        fh.write(b"VOL1\n")
        fh.write(f"dims {volume.dims[0]} {volume.dims[1]} {volume.dims[2]}\n".encode())
        fh.write(f"spacing {_fmt(volume.spacing)}\n".encode())
        fh.write(f"origin {_fmt(volume.origin)}\n".encode())
        fh.write(b"dtype float32\n")
        fh.write(f"components {volume.components}\n".encode())
        fh.write(np.ascontiguousarray(volume.data, dtype="<f4").tobytes())


def read_volume(path) -> Volume:
    """Read a VOL1 file back into a float64 Volume."""
    with open(path, "rb") as fh:
        magic = _read_header_line(fh)
        if magic != "VOL1":
            raise FormatError(f"not a VOL1 file (magic {magic!r})")
        dims = tuple(int(v) for v in _header_fields(_read_header_line(fh), "dims", 3))
        spacing = tuple(float(v) for v in _header_fields(_read_header_line(fh), "spacing", 3))
        origin = tuple(float(v) for v in _header_fields(_read_header_line(fh), "origin", 3))
        dtype = _header_fields(_read_header_line(fh), "dtype", 1)[0]
        if dtype != "float32":
            raise FormatError(f"unsupported element type {dtype!r}")
        components = int(_header_fields(_read_header_line(fh), "components", 1)[0])
        if components not in (1, 3):
            raise FormatError(f"component count must be 1 or 3, got {components}")
        payload = fh.read()
    count = dims[0] * dims[1] * dims[2] * components
    if len(payload) != count * 4:
        raise FormatError(f"truncated payload: expected {count * 4} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    bad = int(np.count_nonzero(~np.isfinite(data)))
    if bad:
        raise FormatError(f"{bad} of {count} values are not finite (NaN or infinite)")
    shape = dims if components == 1 else dims + (3,)
    return Volume(data=data.reshape(shape), spacing=spacing, origin=origin)


def write_grid(grid: core.ControlPointGrid, path):
    """Write a BSPG1 coefficient file (float64 payload, component-major)."""
    geom = grid.geometry
    with open(path, "wb") as fh:
        fh.write(b"BSPG1\n")
        fh.write(f"tiles {geom.tile_counts[0]} {geom.tile_counts[1]} {geom.tile_counts[2]}\n".encode())
        fh.write(f"spacing {_fmt(geom.tile_spacing)}\n".encode())
        fh.write(f"origin {_fmt(geom.origin)}\n".encode())
        fh.write(np.ascontiguousarray(grid.coefficients, dtype="<f8").tobytes())


def read_grid(path) -> core.ControlPointGrid:
    with open(path, "rb") as fh:
        magic = _read_header_line(fh)
        if magic != "BSPG1":
            raise FormatError(f"not a BSPG1 file (magic {magic!r})")
        tiles = tuple(int(v) for v in _header_fields(_read_header_line(fh), "tiles", 3))
        spacing = tuple(float(v) for v in _header_fields(_read_header_line(fh), "spacing", 3))
        origin = tuple(float(v) for v in _header_fields(_read_header_line(fh), "origin", 3))
        payload = fh.read()
    try:
        geometry = core.GridGeometry(tiles, spacing, origin)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    shape = (3,) + geometry.lattice_shape
    expected = int(np.prod(shape)) * 8
    if len(payload) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    coeffs = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return core.ControlPointGrid(geometry, coeffs)


# ---------------------------------------------------------------------------
# Interpolation and resampling
# ---------------------------------------------------------------------------

def trilinear_sample(volume: Volume, points: np.ndarray, gradient: bool = False):
    """Trilinear interpolation of a scalar volume at physical points.

    Returns (values, inside_mask) or, with gradient=True, also the exact
    spatial gradient of the interpolant (per mm) at each point. Points outside
    the voxel-center hull get value 0 and mask False. Work runs on the (3, ...)
    planes of `points` and of the gradient; (..., 3) views of them cost no copy.
    """
    if volume.components != 1:
        raise ValueError("trilinear_sample expects a scalar volume")
    planes = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    idx = [(planes[d] - volume.origin[d]) / volume.spacing[d] for d in range(3)]
    inside = np.all([(i >= 0.0) & (i <= n - 1) for i, n in zip(idx, volume.dims)], axis=0)
    values, grads = _cell_trilinear(volume, idx, gradient)
    values = np.where(inside, values, 0.0)
    if not gradient:
        return values, inside
    grads[:, ~inside] = 0.0
    return values, np.moveaxis(grads, 0, -1), inside


def _cell_trilinear(volume: Volume, idx, gradient: bool) -> tuple:
    """Values of the trilinear interpolant at the per-axis voxel indices `idx`
    and, with gradient=True, the (3, ...) planes of its gradient per mm (else
    None), with no inside test: a point beyond a face takes the value on the
    face, and its gradient that of the outermost cell."""
    base = [np.clip(np.floor(i).astype(np.int64), 0, max(n - 2, 0)) for i, n in zip(idx, volume.dims)]
    f1, f2, f3 = (np.clip(i - b, 0.0, 1.0) for i, b in zip(idx, base))

    # flat gather: `base` is clipped to dims - 2, so the upper corner is
    # base + 1 on every axis except a one-voxel one, whose stride is 0
    d1, d2, d3 = volume.dims
    s1, s2, s3 = (d2 * d3 if d1 > 1 else 0), (d3 if d2 > 1 else 0), (1 if d3 > 1 else 0)
    flat = volume.data.ravel()
    i000 = (base[0] * d2 + base[1]) * d3 + base[2]
    v000, v001 = flat[i000], flat[i000 + s3]
    v010, v011 = flat[i000 + s2], flat[i000 + s2 + s3]
    i100 = i000 + s1
    v100, v101 = flat[i100], flat[i100 + s3]
    v110, v111 = flat[i100 + s2], flat[i100 + s2 + s3]
    e1, e2, e3 = 1 - f1, 1 - f2, 1 - f3
    c00 = v000 * e3 + v001 * f3
    c01 = v010 * e3 + v011 * f3
    c10 = v100 * e3 + v101 * f3
    c11 = v110 * e3 + v111 * f3
    c0 = c00 * e2 + c01 * f2
    c1 = c10 * e2 + c11 * f2
    values = c0 * e1 + c1 * f1
    if not gradient:
        return values, None

    g3 = (
        (v001 - v000) * e1 * e2
        + (v011 - v010) * e1 * f2
        + (v101 - v100) * f1 * e2
        + (v111 - v110) * f1 * f2
    )
    grads = np.empty((3,) + values.shape)
    for d, g in enumerate((c1 - c0, (c01 - c00) * e1 + (c11 - c10) * f1, g3)):
        np.divide(g, volume.spacing[d], out=grads[d, ...])
    return values, grads


def _hull_faded_sample(volume: Volume, planes: np.ndarray) -> tuple:
    """The moving-image terms of the hull-faded data term at the (3, ...)
    planes of physical points: (M, grad M, w, grad w), gradients as (3, ...)
    planes per mm, M and grad M as `_cell_trilinear` gives them.

    The fade is w = w1 w2 w3 with w_d = clip(min(i_d, n_d - 1 - i_d), 0, 1)
    at voxel index i_d: 0 on the faces of the voxel-centre hull and beyond
    them, 1 one cell or more inside. grad w along d is the product of the
    other two factors times +-1 / spacing_d on the ramp and 0 elsewhere. An
    axis of one or two voxels has no room for the ramp: there w_d is 1 on and
    between its voxel planes and 0 off them, as the inside test of
    `trilinear_sample`.
    """
    idx = [(planes[d] - volume.origin[d]) / volume.spacing[d] for d in range(3)]
    values, grads = _cell_trilinear(volume, idx, True)
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
    w1, w2, w3 = fades
    dw[0] *= w2
    dw[0] *= w3
    dw[1] *= w1
    dw[1] *= w3
    dw[2] *= w1
    dw[2] *= w2
    w1 *= w2
    w1 *= w3
    return values, grads, w1, dw


def _warped_planes(grid: core.ControlPointGrid, axes, ws) -> np.ndarray:
    """(3, S1, S2, S3) planes of x + v(x) on the separable grid `axes`, given
    the grid's per-axis 0th-order weight matrices `ws` at those coordinates."""
    planes = core._sample_planes(grid, ws)
    for d in range(3):
        planes[d] += axes[d].reshape([-1 if e == d else 1 for e in range(3)])
    return planes


def warped_voxel_centers(grid: core.ControlPointGrid, like: Volume) -> np.ndarray:
    """Positions x + v(x) of every voxel center x of `like`: a like.dims + (3,) planar view."""
    axes = [like.axis_coords(d) for d in range(3)]
    ws = [core.axis_weight_matrix(grid.geometry, d, axes[d], 0) for d in range(3)]
    return np.moveaxis(_warped_planes(grid, axes, ws), 0, -1)


def warp_volume(moving: Volume, grid: core.ControlPointGrid, like: Volume) -> Volume:
    """Resample `moving` through the transform x -> x + v(x) onto `like`'s voxels."""
    points = warped_voxel_centers(grid, like)
    values = np.empty(like.dims)
    for part in core._slabs(like.dims):
        values[part], _ = trilinear_sample(moving, points[part])
    return Volume(data=values, spacing=like.spacing, origin=like.origin)


def box_downsample(volume: Volume, factor: int) -> Volume:
    """Integer-factor box-filter downsample; trailing voxels that do not fill a
    box are dropped. The origin moves to the center of the first box."""
    if volume.components != 1:
        raise ValueError("box_downsample expects a scalar volume")
    f = int(factor)
    if f < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    if f == 1:
        return Volume(volume.data.copy(), volume.spacing, volume.origin)
    dims = tuple((d // f) for d in volume.dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"volume {volume.dims} too small for factor {f}")
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
