"""Sampled numeric penalties: the finite-difference baseline and the oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg import regularizers_numeric as rn
from splinereg.regularizers_analytic import DerivPair, RegularizerWeights, build_vbank, penalty
from splinereg.volume_io import make_smooth_grid
from tests.conftest import midpoint_v_integral, random_grid

NO_WEIGHTS = RegularizerWeights()


def test_sampling_spec_validation():
    with pytest.raises(ValueError):
        rn.SamplingSpec(mode="nope", voxel_spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        rn.SamplingSpec(mode="voxel-grid")
    with pytest.raises(ValueError):
        rn.SamplingSpec(mode="voxel-grid", voxel_spacing=(0, 1, 1))
    with pytest.raises(ValueError):
        rn.SamplingSpec(mode="per-tile-samples", samples_per_tile=(0, 4, 4))
    with pytest.raises(ValueError):
        rn.SamplingSpec.voxel_grid((1, 1, 1), boundary_policy="wrap")


@pytest.mark.parametrize("spacing", [(np.nan, 1, 1), (1, np.inf, 1), (1, 1, -np.inf)])
def test_voxel_spacing_must_be_finite(spacing):
    """A NaN voxel spacing was accepted (its `<= 0` check is false for NaN) and
    failed later in `sample_axes` with a message that named no field."""
    with pytest.raises(ValueError, match="voxel_spacing"):
        rn.SamplingSpec.voxel_grid(spacing)


@pytest.mark.parametrize("make", [
    lambda: rn.SamplingSpec.per_tile((4.5, 4, 4)),
    lambda: rn.SamplingSpec.per_tile((4, 4, np.nan), "clamp"),
    lambda: rn.quadrature_penalty(random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=6), NO_WEIGHTS, (2.9, 4, 4)),
], ids=["per-tile", "per-tile-nan", "quadrature"])
def test_samples_per_tile_must_be_whole(make):
    """A per-tile sample count that is not a whole number is rejected by name,
    not truncated (4.5 sampled 4 per tile, and 2.9 passed quadrature's check
    of at least 2 as 2); integral floats and numpy integers become ints."""
    assert rn.SamplingSpec.per_tile((4.0, np.int32(4), 5)).samples_per_tile == (4, 4, 5)
    with pytest.raises(ValueError, match="samples_per_tile"):
        make()


@pytest.mark.parametrize("flag", [True, False])
def test_fd_penalty_rejects_boolean_terms(flag):
    """terms=[True] computed S2 and terms=[False] S1."""
    grid = random_grid((3, 3, 3), (12.0, 12.0, 12.0), seed=5)
    with pytest.raises(ValueError, match="terms"):
        rn.fd_penalty(grid, NO_WEIGHTS, rn.SamplingSpec.voxel_grid((3.0, 3.0, 3.0)), terms=[flag])


def test_sample_axes_stay_inside_extent():
    geom = core.GridGeometry((3, 3, 3), (10.0, 10.0, 10.0), origin=(5.0, 0.0, -5.0))
    axes, steps = rn.sample_axes(geom, rn.SamplingSpec.voxel_grid((2.0, 3.0, 4.0)))
    for d in range(3):
        assert axes[d][0] > geom.origin[d]
        assert axes[d][-1] < geom.origin[d] + geom.extent[d]
        assert steps[d] == pytest.approx((2.0, 3.0, 4.0)[d])


# ---------------------------------------------------------------------------
# dense_field
# ---------------------------------------------------------------------------

def test_dense_field_zero_grid():
    grid = core.ControlPointGrid.zeros(core.GridGeometry((2, 2, 2), (10, 10, 10)))
    vol = rn.dense_field(grid, rn.SamplingSpec.per_tile((4, 4, 4)))
    np.testing.assert_array_equal(vol.data, 0.0)
    assert vol.components == 3


def test_dense_field_constant_grid():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    coeffs = np.zeros((3,) + geom.lattice_shape)
    coeffs[0], coeffs[1], coeffs[2] = 1.0, -2.0, 0.5
    grid = core.ControlPointGrid(geom, coeffs)
    vol = rn.dense_field(grid, rn.SamplingSpec.voxel_grid((2.5, 2.5, 2.5)))
    np.testing.assert_allclose(vol.data[..., 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(vol.data[..., 1], -2.0, atol=1e-13)
    np.testing.assert_allclose(vol.data[..., 2], 0.5, atol=1e-13)


def test_dense_field_matches_pointwise_eval():
    grid = random_grid((3, 3, 3), (9.0, 10.0, 11.0), seed=0)
    vol = rn.dense_field(grid, rn.SamplingSpec.per_tile((3, 3, 3)))
    rng = np.random.default_rng(1)
    for _ in range(25):
        idx = tuple(rng.integers(0, s) for s in vol.dims)
        p = [vol.origin[d] + idx[d] * vol.spacing[d] for d in range(3)]
        np.testing.assert_allclose(
            vol.data[idx], core.eval_displacement(grid, p), atol=1e-12
        )


# ---------------------------------------------------------------------------
# fd_penalty
# ---------------------------------------------------------------------------

def test_fd_penalty_zero_grid():
    grid = core.ControlPointGrid.zeros(core.GridGeometry((2, 2, 2), (12, 12, 12)))
    bd = rn.fd_penalty(grid, NO_WEIGHTS, rn.SamplingSpec.voxel_grid((2, 2, 2)))
    np.testing.assert_array_equal(bd.terms, 0.0)
    assert bd.value == 0.0


def test_fd_penalty_insufficient_sampling_rejected():
    grid = random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=2)
    with pytest.raises(ValueError):
        rn.fd_penalty(grid, NO_WEIGHTS, rn.SamplingSpec.voxel_grid((4.0, 4.0, 4.0)))


def test_fd_penalty_linear_field_diffusion():
    """nu1 = a x1: S1 integrand is a^2; the interior sum converges to it O(h^2)."""
    geom = core.GridGeometry((4, 4, 4), (10.0, 10.0, 10.0))
    a = 0.3
    grid = core.linear_field_grid(geom, matrix=[[a, 0, 0], [0, 0, 0], [0, 0, 0]])
    errors = []
    for h in (2.5, 1.25):
        spec = rn.SamplingSpec.voxel_grid((h, h, h))
        bd = rn.fd_penalty(grid, NO_WEIGHTS, spec)
        axes, steps = rn.sample_axes(geom, spec)
        margin = 1
        covered = np.prod([(len(ax) - 2 * margin) * st for ax, st in zip(axes, steps)])
        expected = a * a * covered
        errors.append(abs(bd.terms[0] - expected) / expected)
    # derivative of a linear field is exact under central differences
    assert errors[0] < 1e-12 and errors[1] < 1e-12


def test_fd_penalty_converges_to_analytic():
    """With skip-boundary the dominant error is the excluded margin band,
    whose width is proportional to h, so every term converges roughly O(h)."""
    geom = core.GridGeometry((4, 4, 4), (12.0, 12.0, 12.0))
    grid = make_smooth_grid(geom, amplitude=5.0, smoothness=24.0, seed=3)
    bank = build_vbank(geom.tile_spacing)
    exact = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms
    rels = []
    for h in (3.0, 1.5, 0.75):
        bd = rn.fd_penalty(grid, NO_WEIGHTS, rn.SamplingSpec.voxel_grid((h, h, h)))
        rels.append(np.abs(bd.terms - exact) / np.abs(exact))
    for coarse, fine in zip(rels, rels[1:]):
        assert np.all(fine < coarse / 1.5)
    assert np.all(rels[-1] < np.array([0.1, 0.1, 0.1, 0.25, 1e-3]))


def test_fd_penalty_clamp_policy_uses_all_samples():
    grid = random_grid((3, 3, 3), (12.0, 12.0, 12.0), seed=4)
    spec_skip = rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0), "skip-boundary")
    spec_clamp = rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0), "clamp")
    skip = rn.fd_penalty(grid, NO_WEIGHTS, spec_skip)
    clamp = rn.fd_penalty(grid, NO_WEIGHTS, spec_clamp)
    # the magnitude sum has no stencil, so the policies agree exactly there
    assert clamp.terms[4] == skip.terms[4]
    # edge replication kinks the field at the faces, inflating curvature terms
    assert clamp.terms[1] > skip.terms[1]
    assert np.all(clamp.terms > 0) and np.all(np.isfinite(clamp.terms))


def test_fd_penalty_terms_subset():
    grid = random_grid((3, 3, 3), (12.0, 12.0, 12.0), seed=5)
    spec = rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0))
    full = rn.fd_penalty(grid, NO_WEIGHTS, spec)
    only2 = rn.fd_penalty(grid, NO_WEIGHTS, spec, terms=[1])
    assert only2.terms[1] == full.terms[1]
    assert only2.terms[0] == 0.0 and only2.terms[3] == 0.0
    for bad in (-1, 5, 1.7):  # out of range, and a float that int() would truncate
        with pytest.raises(ValueError, match=f"got {bad}"):
            rn.fd_penalty(grid, NO_WEIGHTS, spec, terms=[bad])


# ---------------------------------------------------------------------------
# The whole-volume formulation that fd_penalty's slabs replaced, frozen here as
# the reference so that it shares no code with the library: zero-filled
# stencils over the whole volume, the depth-first walk over the axes and the
# ordered sums with each distinct derivative's multiplicity.
# ---------------------------------------------------------------------------

_FROZEN_MARGINS = (1, 1, 1, 2, 0)  # S1..S5: widest per-axis stencil half-width


def _frozen_central(arr, axis, h, order):
    out = np.zeros_like(arr)
    mid = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo = [slice(None)] * 3
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    if order == 1:
        out[tuple(mid)] = (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)
    else:
        out[tuple(mid)] = (arr[tuple(hi)] - 2.0 * arr[tuple(mid)] + arr[tuple(lo)]) / (h * h)
    return out


def _frozen_derivatives(samples, deltas, steps):
    """(delta, volume) for the wanted multi-indices, depth first over the axes."""

    def walk(arr, axis, prefix):
        if axis == 3:
            yield prefix, arr
            return
        for o in sorted({d[axis] for d in deltas if d[:axis] == prefix}):
            out = arr
            if o == 1:
                out = _frozen_central(arr, axis, steps[axis], 1)
            elif o >= 2:
                out = _frozen_central(arr, axis, steps[axis], 2)
                if o == 3:
                    out = _frozen_central(out, axis, steps[axis], 1)
            yield from walk(out, axis + 1, prefix + (o,))

    yield from walk(samples, 0, ())


def _frozen_sums(wanted, regions, derivatives):
    uses = {}
    for n, order in ((0, 1), (1, 2), (2, 1), (3, 3), (4, 0)):
        if n in wanted:
            counts = {}
            for dirs in itertools.product(range(3), repeat=order):
                delta = tuple(dirs.count(a) for a in range(3))
                counts[delta] = counts.get(delta, 0) + 1
            for delta, mult in counts.items():
                uses.setdefault(delta, []).append((n, mult))
    out = np.zeros(5)
    diag = []
    for c in range(3):
        first_c = tuple(1 if a == c else 0 for a in range(3))
        for delta, d in derivatives(c, tuple(uses)):
            for n, mult in uses[delta]:
                out[n] += mult * np.sum(d[regions[n]] ** 2)
            if 2 in wanted and delta == first_c:
                diag.append(d)
    if 2 in wanted:
        for a in range(3):
            for b in range(a + 1, 3):
                out[2] += np.sum((diag[a] * diag[b])[regions[2]])
    return out


def _ordered_sum_reference(grid, spec):
    """S1..S4 as the explicit ordered sums over components and directions,
    every ordered derivative taken from scratch with the frozen stencils."""
    axes, steps = rn.sample_axes(grid.geometry, spec)
    field = core.sample_displacement(grid, axes)

    def deriv(samples, dirs):
        out = samples
        for axis in range(3):
            o = dirs.count(axis)
            if o == 1:
                out = _frozen_central(out, axis, steps[axis], 1)
            elif o >= 2:
                out = _frozen_central(out, axis, steps[axis], 2)
                if o == 3:
                    out = _frozen_central(out, axis, steps[axis], 1)
        return out

    inner1, inner2 = (slice(1, -1),) * 3, (slice(2, -2),) * 3
    terms = np.zeros(4)
    for c in range(3):
        f = field[..., c]
        for j in range(3):
            terms[0] += np.sum(deriv(f, (j,))[inner1] ** 2)
            for k in range(3):
                terms[1] += np.sum(deriv(f, (j, k))[inner1] ** 2)
                for q in range(3):
                    terms[3] += np.sum(deriv(f, (j, k, q))[inner2] ** 2)
    diag = [deriv(field[..., c], (c,)) for c in range(3)]
    cross = sum(np.sum((diag[a] * diag[b])[inner1]) for a in range(3) for b in range(a + 1, 3))
    terms[2] = terms[0] + cross
    return terms * float(np.prod(steps))


def test_fd_penalty_matches_explicit_ordered_sums():
    """Folding each distinct derivative's ordered-sum multiplicity (S2 mixed
    x2, S4 1/3/6) changes only the summation order."""
    grid = random_grid((3, 2, 3), (12.0, 10.0, 9.0), seed=6)
    spec = rn.SamplingSpec.voxel_grid((2.0, 2.5, 1.5))
    got = rn.fd_penalty(grid, NO_WEIGHTS, spec).terms[:4]
    np.testing.assert_allclose(got, _ordered_sum_reference(grid, spec), rtol=1e-12)


def _interleaved_fd_terms(grid, spec, terms):
    """fd_penalty as formulated on the interleaved (S1, S2, S3, 3) field,
    padded as one 4-D array under clamp and differentiated whole, on stride-3
    views, by the frozen walk."""
    wanted = frozenset(terms)
    axes, steps = rn.sample_axes(grid.geometry, spec)
    field = np.ascontiguousarray(core.sample_displacement(grid, axes))
    if spec.boundary_policy == "clamp":
        field = np.pad(field, ((2, 2), (2, 2), (2, 2), (0, 0)), mode="edge")
        regions = dict.fromkeys(wanted, (slice(2, -2),) * 3)
    else:
        regions = {n: (slice(_FROZEN_MARGINS[n], field.shape[0] - _FROZEN_MARGINS[n]),
                       slice(_FROZEN_MARGINS[n], field.shape[1] - _FROZEN_MARGINS[n]),
                       slice(_FROZEN_MARGINS[n], field.shape[2] - _FROZEN_MARGINS[n])) for n in wanted}
    out = _frozen_sums(wanted, regions, lambda c, deltas: _frozen_derivatives(field[..., c], deltas, steps))
    return out * float(np.prod(steps))


@pytest.mark.parametrize("policy", ["skip-boundary", "clamp"])
def test_fd_penalty_bitwise_equals_interleaved_formulation(policy):
    """The slabbed flat-offset evaluation moves no bit against the whole-volume
    formulation on the interleaved field, for all terms and each term alone:
    on a block inside one slab, and on 64x40x38 samples, whose interiors span
    three or four slabs and end in a short one (one row for margin 0 and clamp)."""
    blocks = [
        (random_grid((3, 2, 4), (12.0, 10.0, 9.0), seed=9, origin=(-3.0, 4.0, 0.5)), (2.0, 2.5, 1.5)),
        (random_grid((8, 5, 6), (16.0, 16.0, 16.0), seed=10, origin=(1.0, -2.0, 3.0)), (2.0, 2.0, 2.5)),
    ]
    for grid, voxels in blocks:
        spec = rn.SamplingSpec.voxel_grid(voxels, policy)
        for terms in [range(5)] + [[n] for n in range(5)]:
            got = rn.fd_penalty(grid, NO_WEIGHTS, spec, terms=terms)
            assert got.gradient is None
            np.testing.assert_array_equal(got.terms, _interleaved_fd_terms(grid, spec, terms))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_flat_offset_stencils_match_whole_volume_formulas(axis):
    """Off the one-sample margin normal to `axis`, the flat-offset stencils are
    bitwise equal to the whole-volume formulas on a non-cubic volume."""
    arr = np.random.default_rng(axis).normal(size=(7, 9, 11))
    inner = [slice(None)] * 3
    inner[axis] = slice(1, -1)
    inner = tuple(inner)
    for order in (1, 2):
        got = rn._derivative(arr, axis, order, 0.7)
        assert got.shape == arr.shape and np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[inner], _frozen_central(arr, axis, 0.7, order)[inner])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_row_window_stencil_bitwise_equals_whole_volume_stencil(order):
    """The axis-0 stencil on a window of rows keeps the bits of the
    whole-volume stencil on every window a slab asks for: the first and the
    last kept row of a block, a one-row window (a short last slab) and a whole
    interior, at the margins of skip-boundary ((order + 1) // 2) and clamp (2)."""
    samples = np.random.default_rng(order).normal(size=(12, 7, 9))
    whole = rn._derivative(samples, 0, order, 0.7)
    for margin in sorted({(order + 1) // 2, 2}):
        end = samples.shape[0] - margin  # one past the last kept row
        for lo, rows in ((margin, 1), (margin, 3), (end - 1, 1), (end - 4, 4), (margin, end - margin)):
            got = rn._row_derivative(samples, lo, rows, order, 0.7)
            assert got.shape == (rows,) + samples.shape[1:]
            np.testing.assert_array_equal(got, whole[lo:lo + rows])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_square_sum_in_place_bitwise_equals_whole_volume_stencil(axis, monkeypatch):
    """The slab walk run in place leaves S3's diagonal first derivative on the
    interior with the bits of the whole-volume stencil, and returns the sum of
    its squares over the contiguous interior, as the walk does when not in
    place: at the skip-boundary (1) and clamp (2) margins, for walks of
    one-row blocks, of blocks that end in a short one (one row, at margin 1
    and three-row blocks) and of one block. What lies off the interior stays
    finite."""
    samples = np.random.default_rng(10 + axis).normal(size=(12, 7, 9))
    steps = tuple(0.7 if a == axis else 1.3 for a in range(3))
    delta = tuple(int(a == axis) for a in range(3))
    whole = rn._derivative(samples, axis, 1, 0.7)
    for margin in (1, 2):
        region = (slice(margin, -margin),) * 3
        inner = [n - 2 * margin for n in samples.shape]
        want = np.sum(np.square(np.ascontiguousarray(whole[region])))
        for rows in (1, 3, 4, inner[0]):
            monkeypatch.setattr(rn, "_WALK_POINTS", rows * inner[1] * inner[2])
            squares = np.empty(samples.size)
            assert rn._square_sum(samples, delta, steps, margin, squares) == want
            got = samples.copy()
            assert rn._square_sum(got, delta, steps, margin, squares, in_place=True) == want
            assert np.all(np.isfinite(got))
            np.testing.assert_array_equal(got[region], whole[region])


@pytest.mark.parametrize("delta", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)])
def test_square_sum_transform_only_bitwise_equals_whole_volume_stencil(delta, monkeypatch):
    """The walk run in place with no squares buffer, as S3 re-samples each
    diagonal and S4 takes its axis-0 second difference, leaves the derivative
    on the interior with the bits of the whole-volume stencil and returns
    None: at margins 1 and 2, for walks of one-row blocks, of blocks that end
    in a short one and of one block. What lies off the interior stays finite."""
    samples = np.random.default_rng(20).normal(size=(12, 7, 9))
    axis, order = next((a, d) for a, d in enumerate(delta) if d)
    steps = tuple(0.7 if a == axis else 1.3 for a in range(3))
    whole = rn._derivative(samples, axis, order, 0.7)
    for margin in (1, 2):
        region = (slice(margin, -margin),) * 3
        inner = [n - 2 * margin for n in samples.shape]
        for rows in (1, 3, 4, inner[0]):
            monkeypatch.setattr(rn, "_WALK_POINTS", rows * inner[1] * inner[2])
            got = samples.copy()
            assert rn._square_sum(got, delta, steps, margin, None, in_place=True) is None
            assert np.all(np.isfinite(got))
            np.testing.assert_array_equal(got[region], whole[region])


@pytest.mark.parametrize("policy", ["skip-boundary", "clamp"])
def test_fd_penalty_second_rows_bitwise_equal_interleaved_formulation(policy):
    """S4 reads (3, 0, 0), (2, 1, 0) and (2, 0, 1) off the axis-0 second
    difference taken in place; with S2 beside it and no S3 that difference's
    own sum is S2's (kept at skip-boundary's margin 1, taken apart under
    clamp). No bit moves against the whole-volume formulation, on blocks in
    one slab and over several."""
    blocks = [
        (random_grid((3, 2, 4), (12.0, 10.0, 9.0), seed=9, origin=(-3.0, 4.0, 0.5)), (2.0, 2.5, 1.5)),
        (random_grid((8, 5, 6), (16.0, 16.0, 16.0), seed=10, origin=(1.0, -2.0, 3.0)), (2.0, 2.0, 2.5)),
    ]
    for grid, voxels in blocks:
        spec = rn.SamplingSpec.voxel_grid(voxels, policy)
        for terms in ([1, 3], [0, 1, 3, 4], [2, 3]):
            got = rn.fd_penalty(grid, NO_WEIGHTS, spec, terms=terms).terms
            np.testing.assert_array_equal(got, _interleaved_fd_terms(grid, spec, terms))


def test_edge_pad_equals_numpy_edge_pad():
    """clamp's padding written into a spent buffer equals np.pad's, also on
    one-sample axes."""
    rng = np.random.default_rng(12)
    for shape in ((5, 6, 7), (1, 3, 1)):
        raw = rng.normal(size=shape)
        spent = rng.normal(size=tuple(n + 4 for n in shape))
        assert rn._edge_pad(raw, spent) is spent
        np.testing.assert_array_equal(spent, np.pad(raw, 2, mode="edge"))


def _peak_volumes(grid, spec, terms=None):
    """tracemalloc peak of one fd_penalty call, in 64^3 float64 volumes."""
    tracemalloc.start()
    try:
        rn.fd_penalty(grid, NO_WEIGHTS, spec, terms=terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (64 ** 3 * 8)


@pytest.mark.parametrize("policy, bound", [("skip-boundary", 3.75), ("clamp", 4.4)])
def test_fd_penalty_memory_stays_bounded(policy, bound):
    """All five terms at 64^3 samples hold at most three whole sample blocks
    (68^3 under clamp) beside slab-sized stencil temporaries: one block of
    samples, each diagonal taken in place of its component's samples, and
    the squares buffer, which clamp's cross products cannot borrow. They read
    2.48 and 3.70 volumes (3.48 and 4.08 while two diagonals sat beside the
    squares buffer); 8.04 and 9.63 when every derivative was a whole volume."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0), policy))
    assert peak <= bound, f"peak {peak:.2f} volumes"


def test_fd_penalty_third_order_memory_stays_bounded():
    """The third-order sum at 64^3 samples holds one component's samples and
    one squares buffer, not whole-volume derivatives (5.04 volumes when it did)."""
    geom = core.GridGeometry((4, 4, 4), (16.0, 16.0, 16.0))
    grid = make_smooth_grid(geom, amplitude=3.0, smoothness=32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.per_tile((16, 16, 16)), terms=[3])
    assert peak <= 3.5, f"peak {peak:.2f} volumes"


def test_fd_penalty_curvature_memory_stays_bounded():
    """As the third-order sum, for the curvature sum (4.04 volumes before)."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0)), terms=[1])
    assert peak <= 3.5, f"peak {peak:.2f} volumes"


@pytest.mark.parametrize("term", [0, 1, 3, 4])
def test_fd_penalty_holds_one_component_at_a_time(term):
    """One term alone at 64^3 samples holds one component's samples, its
    squares buffer and slab temporaries: 2.04-2.17 volumes, against
    3.21-3.38 when two components' samples are alive at once."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0)), terms=[term])
    assert peak <= 2.75, f"peak {peak:.2f} volumes"


def test_fd_penalty_linear_elastic_holds_three_blocks():
    """S3 alone at 64^3 samples holds at most three whole sample blocks (each
    diagonal first derivative taken in place of its component's samples, and
    the squares buffer) and slab temporaries: 2.29 volumes with two blocks,
    3.29 with three, where holding all three diagonals beside the samples
    read 4.94."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0)), terms=[2])
    assert peak <= 3.5, f"peak {peak:.2f} volumes"


@pytest.mark.parametrize("terms", [[2], None], ids=["S3", "all"])
def test_fd_penalty_linear_elastic_holds_two_blocks(terms):
    """S3 alone and all five terms at 64^3 samples hold at most two whole
    sample blocks, the samples and the squares buffer, beside slab
    temporaries: each diagonal the cross products read is re-sampled into
    whichever block is spent. 2.29 and 2.48 volumes, where holding two
    diagonals beside the squares buffer read 3.29 and 3.48."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0)), terms=terms)
    assert peak <= 2.5, f"peak {peak:.2f} volumes"


def test_fd_penalty_clamp_all_terms_memory_does_not_rise():
    """All five terms under clamp at 64^3 samples (68^3-sample padded blocks)
    stay at or below the 5.84 volumes they read while S3 held three whole
    diagonals and each padding copied fresh samples (3.70 now)."""
    grid = make_smooth_grid(core.GridGeometry((8, 8, 8), (16.0, 16.0, 16.0)), 3.0, 32.0, seed=7)
    peak = _peak_volumes(grid, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.0), "clamp"))
    assert peak <= 5.84, f"peak {peak:.2f} volumes"


# ---------------------------------------------------------------------------
# quadrature_penalty
# ---------------------------------------------------------------------------

def test_quadrature_constant_field_total_displacement_exact():
    geom = core.GridGeometry((2, 2, 2), (5.0, 6.0, 7.0))
    coeffs = np.zeros((3,) + geom.lattice_shape)
    coeffs[2] = 1.5
    grid = core.ControlPointGrid(geom, coeffs)
    for spt in ((2, 2, 2), (5, 5, 5)):
        bd = rn.quadrature_penalty(grid, NO_WEIGHTS, spt)
        volume = np.prod(geom.extent)
        assert bd.terms[4] == pytest.approx(1.5 ** 2 * volume, rel=1e-12)
        np.testing.assert_allclose(bd.terms[:4], 0.0, atol=1e-18)


def test_quadrature_requires_two_samples_per_axis():
    grid = random_grid((2, 2, 2), (10.0, 10.0, 10.0), seed=6)
    with pytest.raises(ValueError):
        rn.quadrature_penalty(grid, NO_WEIGHTS, (1, 4, 4))


def _tile_midpoint_terms(grid, samples):
    """S1..S5 as explicit ordered sums, over tiles, components and directions,
    of midpoint-rule quadratic forms p_a' V p_b on each tile's coefficients."""
    spacing = grid.geometry.tile_spacing
    unit = [tuple(1 if a == j else 0 for a in range(3)) for j in range(3)]
    ops = {}

    def total(*deltas):
        return tuple(int(sum(v)) for v in zip((0, 0, 0), *deltas))

    def form(delta_a, p_a, delta_b, p_b):
        """Midpoint integral of d^delta_a v_a times d^delta_b v_b over one tile."""
        pair, swapped = DerivPair.canonical(delta_a, delta_b)
        if pair not in ops:
            ops[pair] = midpoint_v_integral(spacing, pair, samples)
        return p_b @ ops[pair] @ p_a if swapped else p_a @ ops[pair] @ p_b

    terms = np.zeros(5)
    cross = 0.0
    for tile in np.ndindex(*grid.geometry.tile_counts):
        p = core.tile_coefficients(grid, tile)
        for c in range(3):
            terms[4] += form(total(), p[c], total(), p[c])
            for j in range(3):
                terms[0] += form(unit[j], p[c], unit[j], p[c])
                for k in range(3):
                    d2 = total(unit[j], unit[k])
                    terms[1] += form(d2, p[c], d2, p[c])
                    for q in range(3):
                        d3 = total(unit[j], unit[k], unit[q])
                        terms[3] += form(d3, p[c], d3, p[c])
        for a in range(3):
            for b in range(a + 1, 3):
                cross += form(unit[a], p[a], unit[b], p[b])
    terms[2] = terms[0] + cross
    return terms


@pytest.mark.parametrize("tiles, spacing", [((1, 1, 1), (7.0, 11.0, 13.0)), ((2, 1, 3), (9.0, 6.0, 12.5))])
def test_quadrature_matches_explicit_tile_midpoint_rule(tiles, spacing):
    """The separable sampled sums equal the per-tile midpoint rule written out
    term by term, for all five regularizers."""
    grid = random_grid(tiles, spacing, seed=17, scale=2.0, origin=(-4.0, 3.5, 1.25))
    for samples in (2, 5):
        got = rn.quadrature_penalty(grid, NO_WEIGHTS, (samples,) * 3).terms
        np.testing.assert_allclose(got, _tile_midpoint_terms(grid, samples), rtol=1e-12)


def test_quadrature_memory_stays_bounded():
    """At 8^3 tiles x 16^3 samples one call holds slab-sized derivatives, not
    full-size derivative volumes."""
    grid = random_grid((8, 8, 8), (11.0, 13.0, 17.0), seed=5, scale=3.0)
    volume = 128 ** 3 * 8
    tracemalloc.start()
    try:
        rn.quadrature_penalty(grid, NO_WEIGHTS, (16, 16, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * volume, f"peak {peak / volume:.1f} volumes"


def test_quadrature_converges_second_order_to_analytic():
    """Refinement halves h and should cut every term's error about 4x."""
    grid = random_grid((3, 3, 3), (14.0, 9.0, 21.0), seed=7, scale=3.0)
    bank = build_vbank(grid.geometry.tile_spacing)
    exact = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms
    rel = {}
    for s in (8, 16, 32):
        bd = rn.quadrature_penalty(grid, NO_WEIGHTS, (s, s, s))
        rel[s] = np.abs(bd.terms - exact) / np.abs(exact)
    for n in range(5):
        assert rel[16][n] / rel[32][n] == pytest.approx(4.0, rel=0.35)
    # measured accuracy ceilings at 16^3: the smooth-integrand terms sit well
    # under 1e-4; the second/third-derivative terms carry larger constants
    assert rel[16][0] < 1e-4 and rel[16][2] < 1e-4 and rel[16][4] < 1e-4
    assert rel[16][1] < 5e-3 and rel[16][3] < 2.5e-3
    assert rel[32][0] < 2.5e-5 and rel[32][2] < 2.5e-5 and rel[32][4] < 2.5e-5
    assert rel[32][1] < 1.5e-3 and rel[32][3] < 8e-4


def test_fd_agreement_on_tapered_field_small():
    """Scaled-down version of the coarse-sampling comparison: a smooth field
    that decays toward the volume boundary keeps the skip-boundary deficit
    within the few-percent range."""
    geom = core.GridGeometry((8, 8, 6), (20.0, 20.0, 20.0))
    grid = make_smooth_grid(geom, amplitude=6.0, smoothness=40.0, seed=8)
    bank = build_vbank(geom.tile_spacing)
    exact = penalty(grid, NO_WEIGHTS, bank, with_gradient=False).terms
    bd = rn.fd_penalty(grid, NO_WEIGHTS, rn.SamplingSpec.voxel_grid((2.0, 2.0, 2.5)))
    rel = np.abs(bd.terms - exact) / np.abs(exact)
    assert np.all(rel <= 0.08)
