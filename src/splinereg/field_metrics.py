"""Displacement-field quality metrics: Jacobian maps and landmark separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bspline_core as core
from .regularizers_numeric import SamplingSpec, sample_axes
from .volume_io import Volume


@dataclass
class LandmarkSet:
    """Ordered physical-coordinate points (mm)."""

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("landmark coordinates must be finite")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def select(self, mask) -> "LandmarkSet":
        return LandmarkSet(points=self.points[np.asarray(mask)], label=self.label)


def read_landmarks(path) -> LandmarkSet:
    """Plain-text landmarks: one 'x y z' line per point, '#' starts a comment."""
    pts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
            pts.append([float(v) for v in parts])
    return LandmarkSet(points=np.array(pts).reshape(-1, 3))


def write_landmarks(landmarks: LandmarkSet, path):
    with open(path, "w") as fh:
        if landmarks.label:
            fh.write(f"# {landmarks.label}\n")
        for p in landmarks.points:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


def extent_mask(geometry: core.GridGeometry, landmarks: LandmarkSet) -> np.ndarray:
    """Boolean mask of landmarks inside the grid extent."""
    return geometry.contains(landmarks.points)


def warp_landmarks(grid: core.ControlPointGrid, landmarks: LandmarkSet) -> LandmarkSet:
    """Apply x -> x + v(x) to every landmark.

    Raises on out-of-extent points (listing their indices); callers that want
    to drop them instead should filter with `extent_mask` first.
    """
    mask = extent_mask(grid.geometry, landmarks)
    if not np.all(mask):
        bad = np.flatnonzero(~mask)
        raise ValueError(
            f"{bad.size} landmark(s) outside the grid extent at indices {bad.tolist()[:20]}"
        )
    warped = landmarks.points + core.eval_displacement(grid, landmarks.points)
    label = f"{landmarks.label}+warped" if landmarks.label else "warped"
    return LandmarkSet(points=warped, label=label)


def mls(a: LandmarkSet, b: LandmarkSet) -> float:
    """Mean Euclidean separation between paired landmark sets (mm)."""
    if len(a) != len(b):
        raise ValueError(f"landmark sets differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        return 0.0
    return float(np.mean(np.linalg.norm(a.points - b.points, axis=1)))


def jacobian_map(grid: core.ControlPointGrid, spec: SamplingSpec) -> tuple:
    """Map of det(I + grad v) over a sample grid, plus its global minimum.

    First derivatives come from the basis (analytic), not finite differences,
    so folds are detected at the resolution of the sampling only. The per-axis
    weights of orders 0 and 1 are built once, and the determinant is taken
    from the nine partials one `core._slabs` row block at a time, the blocks
    of `core._contract` itself: memory holds one block's partials beyond the map.
    """
    axes, steps = sample_axes(grid.geometry, spec)
    ws = [[core.axis_weight_matrix(grid.geometry, e, axes[e], o) for o in (0, 1)] for e in range(3)]
    det = np.empty(tuple(len(a) for a in axes))
    for part in core._slabs(det.shape):
        # d nu_c / d x_d: derivative order (d == e) along each axis e
        jac = [[core._contract(grid.coefficients[c], ws[0][d == 0][part], ws[1][d == 1],
                               ws[2][d == 2]) for d in range(3)] for c in range(3)]
        for c in range(3):
            jac[c][c] += 1.0
        det[part] = (
            jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
            - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
            + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0])
        )
    origin = tuple(float(a[0]) for a in axes)
    return Volume(data=det, spacing=steps, origin=origin), float(det.min())
