"""Sampled numerical penalties: the validation oracle and the speedup baseline.

Two routes sample the five penalty definitions of the analytic module.
`fd_penalty` is the conventional numerical baseline: it samples each
displacement component densely, takes central finite differences of the
samples and sums their squares times the cell volume. `quadrature_penalty` is
the stronger oracle: the derivatives at every tile's cell centers are exact
(separable contractions with basis-derivative weights), so only the midpoint
integration is approximate and the error shrinks as O(h^2) toward the
closed-form values.

Both are plain loops over the ordered sums of `_uses`, which counts each
distinct derivative's multiplicity from the ordered direction tuples instead
of reading the analytic tables, so the analytic multiplicities are checked
rather than shared. `fd_penalty` takes every derivative in one slab walk
(`_square_sum`, slabs of `core._slabs`): the axis-0 stencil differences only
the slab's rows, reading their neighbours straight from the samples
(`_row_derivative`), and the axis-1 and axis-2 stencils run at a flat offset
(`_derivative`); both share one formula (`_stencil`), and no entry of the
garbage margin is summed. Every component is sampled in turn into one
block, and the walk run in place overwrites spent samples with a derivative
of them, taken last: with S3, component 2's diagonal first derivative
d nu_c / d x_c, which S3's cross products read; with S4 (components 0 and 1
only, when S3 is wanted too), the axis-0 second difference, whose first
differences are S4's (3, 0, 0), (2, 1, 0) and (2, 0, 1). The cross products
re-sample the other diagonals, transformed by the walk without squares, into
whichever block is spent: (0, 2), then (1, 2), then (0, 1), component 0
twice. So S3 holds at most two whole sample blocks, the samples and the
squares buffer (three under clamp, which stages its unpadded samples in the
squares buffer).
Each call pins BLAS to one thread while it samples and sums, as `penalty`
does, so the three routes are timed at one BLAS setting whoever calls them.
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


def _stencil(hi, mid, lo, order: int, h: float, out: np.ndarray) -> np.ndarray:
    """The first (order 1) or second central difference of each sample from its
    neighbours one step up (`hi`) and down (`lo`), into `out`; the second keeps
    the order of (hi - 2 mid + lo) / h^2. Elementwise, so its bits do not
    depend on the layout of the samples it is handed."""
    if order == 1:
        np.subtract(hi, lo, out=out)
        return np.divide(out, 2.0 * h, out=out)
    np.multiply(mid, 2.0, out=out)
    np.subtract(hi, out, out=out)
    np.add(out, lo, out=out)
    return np.divide(out, h * h, out=out)


def _derivative(arr: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    """The order-th central difference along `axis` (order 0 returns `arr`).

    Each difference is one `_stencil` over the C-order flat samples at the
    flat offset k of one step along `axis`; the third nests a first difference
    over the second. So an entry within the stencil's half-width,
    (order + 1) // 2 samples, of a face normal to `axis` takes its neighbours
    from an adjacent row: it is garbage (finite; the first and last k flat
    entries are 0), and no caller sums it.
    """
    if order == 0:
        return arr
    a = np.ravel(arr)
    k = math.prod(arr.shape[axis + 1:])
    out = np.empty_like(a)
    _stencil(a[2 * k:], a[k:-k], a[:-2 * k], min(order, 2), h, out[k:-k])
    out[:k] = out[-k:] = 0.0
    out = out.reshape(arr.shape)
    return _derivative(out, axis, 1, h) if order == 3 else out


def _row_derivative(samples: np.ndarray, lo: int, rows: int, order: int, h: float) -> np.ndarray:
    """Rows lo to lo + rows - 1 of `_derivative(samples, 0, order, h)`, with
    the same bits. Each row's neighbours are read straight from `samples`,
    which must hold the (order + 1) // 2 rows on either side of the window.
    No row outside the window is differenced, but order 3 takes the second
    difference on the window plus one row each side."""
    if order == 0:
        return samples[lo:lo + rows]
    if order == 3:
        second = _row_derivative(samples, lo - 1, rows + 2, 2, h)
        return _stencil(second[2:], None, second[:-2], 1, h, np.empty((rows,) + samples.shape[1:]))
    out = np.empty((rows,) + samples.shape[1:])
    return _stencil(samples[lo + 1:lo + rows + 1], samples[lo:lo + rows], samples[lo - 1:lo + rows - 1], order, h, out)


def _square_sum(samples: np.ndarray, delta, steps, margin: int, squares: np.ndarray | None,
                in_place: bool = False) -> float | None:
    """Sum of squares of derivative `delta` of `samples` over the samples at
    least `margin` from every face (`margin` covers each axis's stencil).

    The interior is walked in `core._slabs` of output rows: the axis-0
    stencil runs on just the slab's rows (`_row_derivative`), then the axis-1
    and axis-2 stencils on whole rows. Each slab squares into its rows of one
    interior-shaped view of the flat scratch buffer `squares`, which is summed
    whole, so the sum sees the same values in the same layout as a sum over
    the interior of the whole-volume `_derivative`. With `in_place` each
    slab's derivative also overwrites its rows of the interior of `samples`,
    one slab late: the next slab's axis-0 stencil reads this slab's last row.
    With `squares` None the walk (then in place) only transforms, and
    returns None.
    """
    inner = _interior(samples.shape, margin)
    buf = None if squares is None else squares[:math.prod(inner)].reshape(inner)
    cols = (slice(margin, margin + inner[1]), slice(margin, margin + inner[2]))
    pending = None  # (rows, derivative) of the slab before, written once the next is taken
    for part in core._slabs(inner, _WALK_POINTS):
        rows = min(part.stop, inner[0]) - part.start
        d = _row_derivative(samples, part.start + margin, rows, delta[0], steps[0])
        d = _derivative(d, 1, delta[1], steps[1])
        d = _derivative(d, 2, delta[2], steps[2])[(slice(None),) + cols]
        if buf is not None:
            np.square(d, out=buf[part])
        if in_place:
            if pending:
                samples[(pending[0],) + cols] = pending[1]
            pending = slice(part.start + margin, part.start + margin + rows), d
    if pending:
        samples[(pending[0],) + cols] = pending[1]
    return None if buf is None else np.sum(buf)


def _edge_pad(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.pad(raw, 2, mode="edge"), written into `out`."""
    out[2:-2, 2:-2, 2:-2] = raw
    for axis in range(3):  # each pass copies faces the passes before completed
        face = np.moveaxis(out, axis, 0)
        face[:2] = face[2]
        face[-2:] = face[-3]
    return out


def _interior(shape, margin: int) -> tuple:
    """Shape of the samples at least `margin` from every face of a block."""
    inner = tuple(s - 2 * margin for s in shape)
    if min(inner) < 1:
        raise ValueError(
            f"sample block {tuple(shape)} too small for stencil margin {margin}; refine the sampling"
        )
    return inner


def _diagonal(c: int) -> tuple:
    """Multi-index of component c's diagonal first derivative d nu_c / d x_c."""
    return tuple(int(a == c) for a in range(3))


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
    raw = tuple(len(a) for a in axes)
    block = tuple(n + (4 if clamp else 0) for n in raw)
    # per derivative order: clamp's edge padding of 2 absorbs every stencil;
    # skip-boundary drops the widest per-axis stencil half-width of that order
    margin = [2 if clamp else (order + 1) // 2 for order in range(4)]
    # one scratch buffer for every derivative's squares, sized for the widest
    # interior any wanted regularizer sums (checked here, before sampling); it
    # also holds clamp's unpadded samples, and S3's diagonals off clamp
    size = max((math.prod(_interior(block, margin[_ORDERS[n]])) for n in wanted), default=0)
    linear_elastic = 2 in wanted
    squares = np.empty(math.prod(block) if linear_elastic and not clamp else size)
    ws = [core.axis_weight_matrix(grid.geometry, d, axes[d], 0) for d in range(3)]
    uses = _uses(wanted)
    sums = [None] * 3  # per component: {multi-index: sum of squares}

    def sample(c, into):
        """Component c's samples on the block, written into `into`; under clamp
        contracted into the spent squares buffer first, then edge-padded."""
        if not clamp:
            return core._contract(grid.coefficients[c], *ws, out=into)
        unpadded = core._contract(grid.coefficients[c], *ws, out=squares[:math.prod(raw)].reshape(raw))
        return _edge_pad(unpadded, into)

    def diagonal(c, into):
        """Component c's diagonal first derivative d nu_c / d x_c on the
        interior of its samples in `into`: the walk run in place, no squares."""
        samples = sample(c, into)
        _square_sum(samples, _diagonal(c), steps, margin[1], None, in_place=True)
        return samples

    def square_sums(c, samples):
        """Component c's sums of squares, each derivative taken once. One comes
        last, taken in place of the spent samples: with S3 component 2's
        diagonal, which the cross products read; else with S4 the axis-0
        second difference at margin 1, whose first difference along any axis
        is one of S4's (2 + q, j, k), taken from it after. Its own sum is kept
        only when a wanted term sums it at that margin (S2 off clamp)."""
        last, at, rest = None, None, {}  # taken in place at margin `at`; derivative -> the same of `last`
        if linear_elastic and c == 2:
            last, at = _diagonal(c), margin[1]
        elif 3 in wanted:
            last, at = (2, 0, 0), 1
            rest = {(2 + q, j, k): (q, j, k) for q, j, k in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        kept = last in uses and margin[sum(last)] == at
        sums[c] = {delta: _square_sum(samples, delta, steps, margin[sum(delta)], squares)
                   for delta in sorted(uses) if delta not in rest and not (kept and delta == last)}
        if last:
            total = _square_sum(samples, last, steps, at, squares if kept else None, in_place=True)
            if kept:
                sums[c][last] = total
        for delta, of in rest.items():
            sums[c][delta] = _square_sum(samples, of, steps, margin[3], squares)

    cross = {}
    with single_threaded_blas():
        if uses:  # one block holds every component's samples in turn; with no term wanted none
            held = np.empty(block)
            for c in range(3):
                square_sums(c, sample(c, held))
        if linear_elastic:
            # two whole blocks: `held` ends with component 2's diagonal, and
            # each other diagonal is re-sampled into whichever block is spent;
            # clamp stages its samples in `squares`, so it takes a third
            region = (slice(margin[1], -margin[1]),) * 3
            spare = np.empty(block) if clamp else squares.reshape(block)
            d0 = diagonal(0, spare)
            cross[0, 2] = np.sum(np.multiply(d0, held, out=d0)[region])
            d1 = diagonal(1, spare)
            cross[1, 2] = np.sum(np.multiply(d1, held, out=held)[region])
            d0 = diagonal(0, held)
            cross[0, 1] = np.sum(np.multiply(d0, d1, out=d0)[region])
    # components 0, 1, 2 in sorted(uses) order, then the cross products (0, 1),
    # (0, 2), (1, 2): the order the terms have always accumulated in fixes
    # their last bits
    out = np.zeros(5)
    for c in range(3):
        for delta in sorted(uses):
            for n, mult in uses[delta].items():
                out[n] += mult * sums[c][delta]
    for pair in sorted(cross):
        out[2] += cross[pair]
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
            out = np.zeros(5)
            diag = []
            for c in range(3):
                for delta, counts in uses.items():
                    w1, w2, w3 = (ws[d][delta[d]] for d in range(3))
                    d = core._contract(grid.coefficients[c], w1[part], w2, w3)
                    s = np.sum(d ** 2)
                    for n, mult in counts.items():
                        out[n] += mult * s
                    if delta[c] == sum(delta) == 1:  # d nu_c / d x_c
                        diag.append(d)
            prod = np.empty_like(diag[0])  # S3's cross products, each once, in turn
            for a, b in ((0, 1), (0, 2), (1, 2)):
                out[2] += np.sum(np.multiply(diag[a], diag[b], out=prod))
            terms += out
    terms *= float(np.prod(geometry.tile_spacing)) / float(np.prod(spt))
    return PenaltyResult(value=float(weights.as_array() @ terms), terms=terms, gradient=None)
