"""Sampled numerical penalties: the validation oracle and the speedup baseline.

Two routes are provided. `fd_penalty` mirrors the conventional numerical
approach: sample the displacement field densely, take finite differences of
the samples, square/multiply, and sum times cell volume. `quadrature_penalty`
is the stronger oracle: the derivatives at every tile's cell centers are
exact (separable contractions with basis-derivative weights), so only the
midpoint integration is approximate and the error shrinks as O(h^2) toward
the closed-form values.

Both compute the same five penalty definitions as the analytic module, written
here as the ordered sums over components and derivative directions so the
analytic multiplicity bookkeeping is checked rather than shared: both count
each distinct derivative's multiplicity from the ordered direction tuples
(`_penalty_sums`) instead of reading the analytic tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bspline_core as core
from .regularizers_analytic import PenaltyResult
from .volume_io import Volume

# skip-boundary margins per regularizer: widest per-axis stencil half-width
# among that regularizer's derivative stencils (third order composes a
# second-difference with a central first difference, half-width 2).
_REG_MARGINS = (1, 1, 1, 2, 0)  # S1..S5


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
            if any(s <= 0 for s in self.voxel_spacing):
                raise ValueError(f"voxel_spacing must be positive, got {self.voxel_spacing}")
        else:
            if self.samples_per_tile is None:
                raise ValueError("per-tile-samples mode requires samples_per_tile")
            spt = tuple(int(s) for s in core._triple(self.samples_per_tile, "samples_per_tile", int))
            if any(s < 1 for s in spt):
                raise ValueError(f"samples_per_tile must be >= 1, got {spt}")
            object.__setattr__(self, "samples_per_tile", spt)

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


def _central1(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(arr)
    mid = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo = [slice(None)] * 3
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    out[tuple(mid)] = (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)
    return out

def _central2(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(arr)
    mid = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo = [slice(None)] * 3
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    out[tuple(mid)] = (arr[tuple(hi)] - 2.0 * arr[tuple(mid)] + arr[tuple(lo)]) / (h * h)
    return out


def _fd_derivatives(samples: np.ndarray, deltas, steps):
    """Yield (delta, volume) for every wanted derivative multi-index.

    Each derivative is the tensor-product central stencil applied along axes
    0, 1, 2 in turn; third order along an axis nests a central first
    difference over the standard second difference (half-width 2, error
    O(h^2)). The walk is depth first over the axes, so a partial derivative
    shared by several multi-indices is taken once and at most a few volumes
    are alive at any time. Entries inside the stencil margin of the block edge
    are garbage and must be excluded by the caller; that margin is what
    skip-boundary drops.
    """

    def walk(arr, axis, prefix):
        if axis == 3:
            yield prefix, arr
            return
        orders = sorted({d[axis] for d in deltas if d[:axis] == prefix})
        second = None
        for o in orders:
            if o == 0:
                out = arr
            elif o == 1:
                out = _central1(arr, axis, steps[axis])
            elif o == 2:
                out = second = _central2(arr, axis, steps[axis])
            else:
                if second is None:
                    second = _central2(arr, axis, steps[axis])
                out = _central1(second, axis, steps[axis])
                second = None
            yield from walk(out, axis + 1, prefix + (o,))
            del out

    yield from walk(samples, 0, ())


def _ordered_multiplicities(order: int) -> dict:
    """Distinct derivative multi-indices of total `order`, each with the number
    of ordered direction tuples (j, k, ...) that produce it."""
    counts: dict = {}
    for dirs in itertools.product(range(3), repeat=order):
        delta = tuple(dirs.count(a) for a in range(3))
        counts[delta] = counts.get(delta, 0) + 1
    return counts


def _interior(shape, margin: int):
    if margin == 0:
        return (slice(None),) * 3
    if any(s <= 2 * margin for s in shape):
        raise ValueError(
            f"sample block {shape} too small for stencil margin {margin}; refine the sampling"
        )
    return (slice(margin, -margin),) * 3


def _penalty_sums(wanted, regions, derivatives) -> np.ndarray:
    """The wanted S1..S5 as sample sums (others zero), before the cell volume.

    The ordered sums over directions, with each distinct derivative taken
    once and weighted by how many ordered direction tuples produce it: S1 and
    S3 square first derivatives (j), S2 second (j, k), S4 third (j, k, q); S5
    squares the field itself. `derivatives(c, deltas)` yields (delta, values)
    of component c; S_n sums `values[regions[n]]`.
    """
    uses: dict = {}  # multi-index -> [(regularizer, multiplicity)]
    for n, order in ((0, 1), (1, 2), (2, 1), (3, 3), (4, 0)):
        if n in wanted:
            for delta, mult in _ordered_multiplicities(order).items():
                uses.setdefault(delta, []).append((n, mult))

    out = np.zeros(5)
    diag = []  # d nu_c / d x_c, for the elastic cross products
    for c in range(3):
        first_c = tuple(1 if a == c else 0 for a in range(3))
        for delta, d in derivatives(c, tuple(uses)):
            for n, mult in uses[delta]:
                out[n] += mult * np.sum(d[regions[n]] ** 2)
            if 2 in wanted and delta == first_c:
                diag.append(d)
            del d

    if 2 in wanted:
        # S3 adds the three divergence-style cross products of distinct
        # diagonal first derivatives, each once
        r3 = regions[2]
        for a in range(3):
            for b in range(a + 1, 3):
                out[2] += np.sum((diag[a] * diag[b])[r3])
    return out


def fd_penalty(grid, weights, spec: SamplingSpec, terms=None) -> PenaltyResult:
    """Finite-difference penalties over a dense sampling of the field.

    Each displacement component is sampled as one contiguous volume in turn
    and differentiated by central stencils. With skip-boundary, each
    regularizer sums only samples whose stencils stay inside the block; with
    clamp, the component's block is edge-padded by 2 first so every sample
    contributes. Requires at least 4 samples per tile per axis so the stencils
    resolve the piecewise-cubic structure. The result has no gradient.

    `terms` optionally restricts which of S1..S5 are computed (0-based
    indices); the rest stay zero. Benchmarks use this to time one regularizer
    at a time.
    """
    wanted = frozenset(range(5)) if terms is None else frozenset(int(t) for t in terms)
    axes, steps = sample_axes(grid.geometry, spec)
    for d in range(3):
        per_tile = grid.geometry.tile_spacing[d] / steps[d]
        if per_tile < 4 - 1e-9:
            raise ValueError(
                f"insufficient sampling: {per_tile:.2f} samples per tile on axis {d + 1}, need >= 4"
            )

    clamp = spec.boundary_policy == "clamp"
    shape = tuple(len(a) for a in axes)

    def region(margin: int):
        if clamp:
            return (slice(2, -2),) * 3  # padding absorbs the stencil margin
        return _interior(shape, margin)

    regions = {n: region(_REG_MARGINS[n]) for n in wanted}

    def derivatives(c, deltas):
        samples = core.sample_partial(grid, axes, c + 1, (0, 0, 0))
        if clamp:
            samples = np.pad(samples, 2, mode="edge")
        return _fd_derivatives(samples, deltas, steps)

    out = _penalty_sums(wanted, regions, derivatives)
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
    everything = dict.fromkeys(range(5), (slice(None),) * 3)
    terms = np.zeros(5)
    for part in core._slabs(tuple(len(a) for a in axes)):
        def derivatives(c, deltas, part=part):
            for delta in deltas:
                w1, w2, w3 = (ws[d][delta[d]] for d in range(3))
                yield delta, core._contract(grid.coefficients[c], w1[part], w2, w3)

        terms += _penalty_sums(range(5), everything, derivatives)
    terms *= float(np.prod(geometry.tile_spacing)) / float(np.prod(spt))
    return PenaltyResult(value=float(weights.as_array() @ terms), terms=terms, gradient=None)
