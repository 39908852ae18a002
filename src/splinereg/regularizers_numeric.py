"""Sampled numerical penalties: the validation oracle and the speedup baseline.

Two routes are provided. `fd_penalty` mirrors the conventional numerical
approach: sample the displacement field densely, take finite differences of
the samples, square/multiply, and sum times cell volume. `quadrature_penalty`
is the stronger oracle: the derivatives at every tile's cell centers are
exact (separable contractions with basis-derivative weights), so only the
midpoint integration is approximate and the error shrinks as O(h^2) toward
the closed-form values.

`fd_penalty` samples each displacement component whole, but no derivative of
it is ever a whole volume (except the three that S3 multiplies pairwise): each
is taken over cache-sized slabs of rows (`core._slabs`) by stencils that run as
one contiguous ufunc pass over the C-order flat samples, at the flat offset of
one step along their axis. Such a stencil wraps round at the faces normal to
its axis, so its entries within its half-width of those faces (two samples for
a third difference, one otherwise) are garbage; the margin that skip-boundary
drops, or the edge padding under clamp, keeps them out of every sum. Each
slab's squares land in one interior-shaped buffer that is summed whole, so
every term is bitwise equal to the sum over the interior of the whole-volume
derivative.

Both compute the same five penalty definitions as the analytic module, written
here as the ordered sums over components and derivative directions so the
analytic multiplicity bookkeeping is checked rather than shared: both count
each distinct derivative's multiplicity from the ordered direction tuples
(`_penalty_sums`) instead of reading the analytic tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bspline_core as core
from .regularizers_analytic import PenaltyResult
from .volume_io import Volume

_ORDERS = (1, 2, 1, 3, 0)  # derivative order that S1..S5 square


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
    """First central difference along `axis`, as one contiguous ufunc pass.

    The stencil runs on the C-order flat samples with the flat offset k of one
    step along `axis`, so an entry on a face normal to `axis` takes its
    neighbours from the adjacent row: entries within one sample of those faces
    are garbage (finite; the first and last k flat entries are 0).
    """
    a = np.ravel(arr)
    k = math.prod(arr.shape[axis + 1:])
    out = np.empty_like(a)
    mid = out[k:-k]
    np.subtract(a[2 * k:], a[:-2 * k], out=mid)
    np.divide(mid, 2.0 * h, out=mid)
    out[:k] = out[-k:] = 0.0
    return out.reshape(arr.shape)


def _central2(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second central difference along `axis`, flat and with garbage margins as
    `_central1`. The steps keep the order of (hi - 2 mid + lo) / h^2."""
    a = np.ravel(arr)
    k = math.prod(arr.shape[axis + 1:])
    out = np.empty_like(a)
    mid = out[k:-k]
    np.multiply(a[k:-k], 2.0, out=mid)
    np.subtract(a[2 * k:], mid, out=mid)
    np.add(mid, a[:-2 * k], out=mid)
    np.divide(mid, h * h, out=mid)
    out[:k] = out[-k:] = 0.0
    return out.reshape(arr.shape)


def _derivative(arr: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    """The order-th central difference along `axis` (order 0 returns `arr`).

    Third order nests a first difference over the second difference, so its
    garbage margin is 2 samples wide; the others' is (order + 1) // 2.
    """
    if order == 0:
        return arr
    if order == 1:
        return _central1(arr, axis, h)
    second = _central2(arr, axis, h)
    return second if order == 2 else _central1(second, axis, h)


def _square_sum(samples: np.ndarray, delta, steps, margin: int, squares: np.ndarray) -> float:
    """Sum of squares of derivative `delta` of `samples` over the samples at
    least `margin` from every face (`margin` covers each axis's stencil).

    The interior is walked in `core._slabs` of output rows: the axis-0 stencil
    runs on the slab's rows plus a halo of its half-width, the halo is
    dropped, and the axis-1 and axis-2 stencils run on the rest. Each slab
    squares into its rows of one interior-shaped view of the flat scratch
    buffer `squares`, which is summed whole, so the sum sees the same values
    in the same layout as a sum over the whole-volume derivative's interior.
    """
    inner = _interior(samples.shape, margin)
    buf = squares[:math.prod(inner)].reshape(inner)
    halo = (delta[0] + 1) // 2
    for part in core._slabs(inner):
        rows = min(part.stop, inner[0]) - part.start
        lo = part.start + margin - halo
        d = _derivative(samples[lo:lo + rows + 2 * halo], 0, delta[0], steps[0])[halo:halo + rows]
        d = _derivative(d, 1, delta[1], steps[1])
        d = _derivative(d, 2, delta[2], steps[2])
        np.square(d[:, margin:margin + inner[1], margin:margin + inner[2]], out=buf[part])
    return np.sum(buf)


def _ordered_multiplicities(order: int) -> dict:
    """Distinct derivative multi-indices of total `order`, each with the number
    of ordered direction tuples (j, k, ...) that produce it."""
    counts: dict = {}
    for dirs in itertools.product(range(3), repeat=order):
        delta = tuple(dirs.count(a) for a in range(3))
        counts[delta] = counts.get(delta, 0) + 1
    return counts


def _interior(shape, margin: int) -> tuple:
    """Shape of the samples at least `margin` from every face of a block."""
    inner = tuple(s - 2 * margin for s in shape)
    if min(inner) < 1:
        raise ValueError(
            f"sample block {tuple(shape)} too small for stencil margin {margin}; refine the sampling"
        )
    return inner


def _penalty_sums(wanted, r3, derivatives) -> np.ndarray:
    """The wanted S1..S5 as sample sums (others zero), before the cell volume.

    The ordered sums over directions, with each distinct derivative taken
    once and weighted by how many ordered direction tuples produce it: S1 and
    S3 square first derivatives (j), S2 second (j, k), S4 third (j, k, q); S5
    squares the field itself. `derivatives(c, deltas, keep)` yields
    (delta, s, values) for component c in the order it chooses: s is the sum of
    squares of that derivative over the samples its regularizers sum, and
    `values` is the derivative itself for delta == keep, else None. S3 adds
    the sums over `r3` of the products of the three diagonal first
    derivatives d nu_c / d x_c, kept this way.
    """
    uses: dict = {}  # multi-index -> [(regularizer, multiplicity)]
    for n, order in enumerate(_ORDERS):
        if n in wanted:
            for delta, mult in _ordered_multiplicities(order).items():
                uses.setdefault(delta, []).append((n, mult))

    out = np.zeros(5)
    diag = []
    for c in range(3):
        keep = tuple(1 if a == c else 0 for a in range(3)) if 2 in wanted else None
        for delta, s, values in derivatives(c, tuple(uses), keep):
            for n, mult in uses[delta]:
                out[n] += mult * s
            if values is not None:
                diag.append(values)

    if 2 in wanted:
        # S3 adds the three divergence-style cross products of distinct
        # diagonal first derivatives, each once
        for a in range(3):
            for b in range(a + 1, 3):
                out[2] += np.sum((diag[a] * diag[b])[r3])
    return out


def fd_penalty(grid, weights, spec: SamplingSpec, terms=None) -> PenaltyResult:
    """Finite-difference penalties over a dense sampling of the field.

    Each displacement component is sampled whole as one contiguous volume in
    turn (edge-padded by 2 under clamp) and differentiated by tensor-product
    central stencils, third order along an axis nesting a first difference
    over the second difference (half-width 2, error O(h^2)). Apart from S3's
    three diagonal first derivatives d nu_c / d x_c, which stay whole
    volumes, every derivative is evaluated in cache-sized slabs of rows
    (`_square_sum`) by flat-offset stencils whose entries near the faces
    normal to their axis are garbage, and those entries are never summed.
    With skip-boundary, each regularizer sums only samples whose stencils stay
    inside the block, a margin of (order + 1) // 2 samples; with clamp, the
    padding absorbs the stencils so every sample contributes. Requires at
    least 4 samples per tile per axis so the stencils resolve the
    piecewise-cubic structure. The result has no gradient.

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
    block = tuple(len(a) + (4 if clamp else 0) for a in axes)

    def margin(order: int) -> int:
        # clamp's edge padding of 2 absorbs every stencil; skip-boundary drops
        # the widest per-axis stencil half-width among the derivatives of that
        # order, reached with the whole order on one axis
        return 2 if clamp else (order + 1) // 2

    # one scratch buffer for every derivative's squares, sized for the widest
    # interior any wanted regularizer sums (checked here, before sampling)
    size = max((math.prod(_interior(block, margin(_ORDERS[n]))) for n in wanted), default=0)
    squares = np.empty(size)

    def derivatives(c, deltas, keep):
        samples = core.sample_partial(grid, axes, c + 1, (0, 0, 0))
        if clamp:
            samples = np.pad(samples, 2, mode="edge")
        # lexicographic, the order the terms have always accumulated in: it
        # fixes their last bits
        for delta in sorted(deltas):
            s = _square_sum(samples, delta, steps, margin(sum(delta)), squares)
            values = None
            if delta == keep:
                values = samples
                for axis in range(3):
                    values = _derivative(values, axis, delta[axis], steps[axis])
            yield delta, s, values

    r3 = (slice(margin(1), -margin(1)),) * 3
    out = _penalty_sums(wanted, r3, derivatives)
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
    terms = np.zeros(5)
    for part in core._slabs(tuple(len(a) for a in axes)):
        def derivatives(c, deltas, keep, part=part):
            for delta in deltas:
                w1, w2, w3 = (ws[d][delta[d]] for d in range(3))
                d = core._contract(grid.coefficients[c], w1[part], w2, w3)
                yield delta, np.sum(d ** 2), d if delta == keep else None

        terms += _penalty_sums(range(5), (slice(None),) * 3, derivatives)
    terms *= float(np.prod(geometry.tile_spacing)) / float(np.prod(spt))
    return PenaltyResult(value=float(weights.as_array() @ terms), terms=terms, gradient=None)
