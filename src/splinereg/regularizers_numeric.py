"""Sampled numerical penalties: the validation oracle and the speedup baseline.

Two routes sample the five penalty definitions of the analytic module.
`fd_penalty` is the conventional numerical baseline: it samples each
displacement component densely, takes central finite differences of the
samples and sums their squares times the cell volume. `quadrature_penalty` is
the stronger oracle: the derivatives at every tile's cell centers are exact
(separable contractions with basis-derivative weights), so only the midpoint
integration is approximate and the error shrinks as O(h^2) toward the
closed-form values.

Both walk the samples in slabs of whole rows and hand each slab's derivatives
to one assembly (`_slab_terms`): the ordered sums of `_uses`, which counts each
distinct derivative's multiplicity from the ordered direction tuples instead
of reading the analytic tables (so the analytic multiplicities are checked
rather than shared), and S3's cross products of the diagonals. `fd_penalty`
samples each component on a slab's rows plus a halo as wide as the widest
wanted stencil's reach (2 rows with S4) and takes each wanted derivative once
on it (`_differences`); clamp samples at clamped positions, which pads the
block with edge samples. Its sums agree with the whole-volume formulation to
rounding (<= 1e-12 relative), not bit for bit. Each call pins BLAS to one
thread while it samples and sums, as `penalty` does, so the three routes are
timed at one BLAS setting whoever calls them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bspline_core as core
from ._threads import single_threaded_blas
from .regularizers_analytic import PenaltyResult
from .volume_io import Volume

_ORDERS = (1, 2, 1, 3, 0)  # derivative order that S1..S5 square
_WALK_POINTS = 2 * core._SLAB_POINTS  # slab of the walks below (fewer temporaries per point)
_SLAB_ROWS = 8  # fewest rows per slab of fd_penalty, so its halo (at most 2 rows a side) adds at most half


@dataclass(frozen=True)
class SamplingSpec:
    """Where the numeric penalties sample the field.

    voxel-grid mode places samples at voxel centers of an implied image with
    the given spacing; per-tile-samples mode places a fixed count of cell
    centers inside every tile. skip-boundary drops samples whose stencil would
    leave the sampled block; clamp replicates edge samples instead.
    """

    mode: str
    voxel_spacing: tuple | None = None
    samples_per_tile: tuple | None = None
    boundary_policy: str = "skip-boundary"

    def __post_init__(self):
        if self.mode not in ("voxel-grid", "per-tile-samples"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.boundary_policy not in ("skip-boundary", "clamp"):
            raise ValueError(f"unknown boundary policy {self.boundary_policy!r}")
        if self.mode == "voxel-grid":
            if self.voxel_spacing is None:
                raise ValueError("voxel-grid mode requires voxel_spacing")
            object.__setattr__(self, "voxel_spacing", core._triple(self.voxel_spacing, "voxel_spacing"))
            if not all(0 < s < math.inf for s in self.voxel_spacing):  # false for nan too
                raise ValueError(f"voxel_spacing must be positive and finite, got {self.voxel_spacing}")
        else:
            if self.samples_per_tile is None:
                raise ValueError("per-tile-samples mode requires samples_per_tile")
            object.__setattr__(self, "samples_per_tile", core._triple(self.samples_per_tile, "samples_per_tile", int))

    @classmethod
    def voxel_grid(cls, spacing, boundary_policy: str = "skip-boundary") -> "SamplingSpec":
        return cls(mode="voxel-grid", voxel_spacing=spacing, boundary_policy=boundary_policy)

    @classmethod
    def per_tile(cls, samples, boundary_policy: str = "skip-boundary") -> "SamplingSpec":
        return cls(mode="per-tile-samples", samples_per_tile=samples, boundary_policy=boundary_policy)


def sample_axes(geometry: core.GridGeometry, spec: SamplingSpec) -> tuple:
    """Per-axis sample coordinates (cell centers) and their spacings.

    Cell centers avoid double counting tile edges and make the sum times cell
    volume a midpoint rule.
    """
    axes = []
    steps = []
    for d in range(3):
        extent = geometry.extent[d]
        if spec.mode == "voxel-grid":
            h = spec.voxel_spacing[d]
            n = int(np.floor(extent / h + 1e-9))
            if n < 1:
                raise ValueError(f"voxel spacing {h} exceeds grid extent {extent} on axis {d + 1}")
        else:
            per = spec.samples_per_tile[d]
            n = geometry.tile_counts[d] * per
            h = geometry.tile_spacing[d] / per
        axes.append(geometry.origin[d] + (np.arange(n) + 0.5) * h)
        steps.append(h)
    return axes, tuple(steps)


def dense_field(grid: core.ControlPointGrid, spec: SamplingSpec) -> Volume:
    """Displacement vector at every sample point, as a 3-vector Volume."""
    axes, steps = sample_axes(grid.geometry, spec)
    data = core.sample_displacement(grid, axes)
    origin = tuple(float(a[0]) for a in axes)
    return Volume(data=data, spacing=steps, origin=origin)


def _derivative(arr: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    """The order-th central difference along `axis` (order 0 returns `arr`).

    Each difference is taken over the C-order flat samples at the flat offset
    k of one step along `axis`: the first as (hi - lo) / 2h, the second as
    (hi - 2 mid + lo) / h^2 and the third as the first of the second. So an
    entry within the stencil's half-width, (order + 1) // 2 samples, of a face
    normal to `axis` takes its neighbours from an adjacent row: it is garbage
    (finite; the first and last k flat entries are 0), and no caller sums it.
    """
    if order == 0:
        return arr
    a = np.ravel(arr)
    k = math.prod(arr.shape[axis + 1:])
    out = np.empty_like(a)
    hi, lo, inner = a[2 * k:], a[:-2 * k], out[k:-k]
    if order == 1:
        np.subtract(hi, lo, out=inner)
        np.divide(inner, 2.0 * h, out=inner)
    else:
        np.multiply(a[k:-k], 2.0, out=inner)
        np.subtract(hi, inner, out=inner)
        np.add(inner, lo, out=inner)
        np.divide(inner, h * h, out=inner)
    out[:k] = out[-k:] = 0.0
    out = out.reshape(arr.shape)
    return _derivative(out, axis, 1, h) if order == 3 else out


def _differences(samples: np.ndarray, rows: slice, steps, regions: dict, axis: int = 0, prefix: tuple = ()):
    """(multi-index, its central difference cropped to its region) for each
    multi-index of `regions`, in sorted order.

    `samples` holds a slab's rows `rows` and a halo of the stencils' reach.
    The walk goes depth first over the axes, so a difference along the first
    axes is taken once for every multi-index that shares it, and a third
    difference is the first of the second when that is taken too. Axis 0 is
    differenced over the halo, then cropped to the slab's rows.
    """
    if axis == 3:
        yield prefix, samples[regions[prefix]]
        return
    second = None
    for o in sorted({delta[axis] for delta in regions if delta[:axis] == prefix}):
        if o == 3 and second is not None:
            d = _derivative(second, axis, 1, steps[axis])
        else:
            d = _derivative(samples, axis, o, steps[axis])
        if o == 2:
            second = d
        yield from _differences(d[rows] if axis == 0 else d, rows, steps, regions, axis + 1, prefix + (o,))


def _uses(wanted) -> dict:
    """Each multi-index the wanted S1..S5 square -> {regularizer: multiplicity}.

    The penalties are ordered sums over components and derivative directions:
    S1 and S3 square first derivatives (j), S2 second (j, k), S4 third
    (j, k, q); S5 squares the field itself. Each distinct derivative is taken
    once, weighted by the number of ordered direction tuples that produce it.
    """
    uses: dict = {}
    for n, order in enumerate(_ORDERS):
        if n in wanted:
            for dirs in itertools.product(range(3), repeat=order):
                counts = uses.setdefault(tuple(dirs.count(a) for a in range(3)), {})
                counts[n] = counts.get(n, 0) + 1
    return uses


def _slab_terms(uses: dict, derivatives) -> np.ndarray:
    """One slab's S1..S5 sums. `derivatives(c)` yields component c's
    (multi-index, derivative) pairs on the samples the slab sums, and is read
    to the end before component c + 1's are asked for. Each sum of squares is
    added once per regularizer with its multiplicity in `uses`. Where S3 uses
    a component's diagonal d nu_c / d x_c it is kept, and S3 adds the three
    cross products of the diagonals."""
    out = np.zeros(5)
    diag = []
    for c in range(3):
        for delta, d in derivatives(c):
            s = np.sum(d ** 2)
            for n, mult in uses[delta].items():
                out[n] += mult * s
            if 2 in uses[delta] and delta[c] == sum(delta) == 1:
                diag.append(d)
    if diag:
        prod = np.empty_like(diag[0])  # each cross product once, in turn
        for a, b in ((0, 1), (0, 2), (1, 2)):
            out[2] += np.sum(np.multiply(diag[a], diag[b], out=prod))
    return out


def fd_penalty(grid, weights, spec: SamplingSpec, terms=None) -> PenaltyResult:
    """Finite-difference penalties over a dense sampling of the field.

    Central differences (`_derivative`, error O(h^2)) of the samples, squared
    and summed times the cell volume. With skip-boundary each regularizer
    sums only the samples whose stencils stay inside the sampled block; with
    clamp the block is edge-padded by 2 and every sample contributes. Needs at
    least 4 samples per tile per axis. `terms` optionally restricts which of
    S1..S5 (0-based) are computed; the rest stay zero. No gradient.
    """
    wanted = frozenset(range(5) if terms is None else terms)
    for t in wanted:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t <= 4:
            raise ValueError(f"terms must be integers 0..4 (S1..S5), got {t!r}")
    axes, steps = sample_axes(grid.geometry, spec)
    for d in range(3):
        per_tile = grid.geometry.tile_spacing[d] / steps[d]
        if per_tile < 4 - 1e-9:
            raise ValueError(
                f"insufficient sampling: {per_tile:.2f} samples per tile on axis {d + 1}, need >= 4"
            )

    clamp = spec.boundary_policy == "clamp"
    ws = [core.axis_weight_matrix(grid.geometry, d, axes[d], 0) for d in range(3)]
    if clamp:  # sampling at clamped positions pads the block by 2 edge samples
        ws = [w[np.clip(np.arange(-2, len(w) + 2), 0, len(w) - 1)] for w in ws]
    n0, n1, n2 = block = tuple(len(w) for w in ws)
    uses = _uses(wanted)
    # per multi-index, how far its summed samples lie from every face: clamp's
    # padding absorbs every stencil; skip-boundary drops the widest per-axis
    # stencil half-width of its order
    margin = {delta: 2 if clamp else (sum(delta) + 1) // 2 for delta in uses}
    if min(block) <= 2 * max(margin.values(), default=0):
        raise ValueError(
            f"sample block {block} too small for stencil margin {max(margin.values())}; refine the sampling"
        )
    reach = max(((sum(delta) + 1) // 2 for delta in uses), default=0)  # the widest stencil's half-width
    rows = max(_SLAB_ROWS, _WALK_POINTS // (n1 * n2))
    out = np.zeros(5)
    window = np.empty((min(rows + 2 * reach, n0), n1, n2))  # each component's slab samples in turn
    with single_threaded_blas():
        for lo in range(0, n0 if uses else 0, rows):  # with no term wanted, nothing is sampled
            top, bottom = max(lo - reach, 0), min(lo + rows + reach, n0)  # the slab's rows and their halo
            regions = {delta: (slice(max(m - lo, 0), max(n0 - m - lo, 0)), slice(m, n1 - m), slice(m, n2 - m))
                       for delta, m in margin.items()}
            out += _slab_terms(uses, lambda c: _differences(
                core._contract(grid.coefficients[c], ws[0][top:bottom], ws[1], ws[2], out=window[:bottom - top]),
                slice(lo - top, min(lo + rows, n0) - top), steps, regions))
    out *= float(np.prod(steps))
    return PenaltyResult(value=float(weights.as_array() @ out), terms=out, gradient=None)


def quadrature_penalty(grid, weights, samples_per_tile) -> PenaltyResult:
    """Midpoint-rule penalties using exact basis derivatives at the samples.

    The integrand values are exact; only the integration is approximate, which
    makes this the reference oracle for the closed-form path. Converges O(h^2)
    in the per-axis sample spacing. It walks the cell centers of
    `SamplingSpec.per_tile` in slabs, with per-axis weights built once. The
    result has no gradient.
    """
    spec = SamplingSpec.per_tile(samples_per_tile)
    spt = spec.samples_per_tile
    if any(s < 2 for s in spt):
        raise ValueError(f"need at least 2 samples per tile per axis, got {spt}")

    geometry = grid.geometry
    axes, _ = sample_axes(geometry, spec)
    ws = [[core.axis_weight_matrix(geometry, d, axes[d], o) for o in range(4)] for d in range(3)]
    uses = _uses(range(5))
    terms = np.zeros(5)
    with single_threaded_blas():
        for part in core._slabs(tuple(len(a) for a in axes), _WALK_POINTS):
            terms += _slab_terms(uses, lambda c: (
                (delta, core._contract(grid.coefficients[c], ws[0][delta[0]][part], ws[1][delta[1]], ws[2][delta[2]]))
                for delta in uses))
    terms *= float(np.prod(geometry.tile_spacing)) / float(np.prod(spt))
    return PenaltyResult(value=float(weights.as_array() @ terms), terms=terms, gradient=None)
