"""Volume/grid file formats, synthetic generators, and resampling."""

import tracemalloc

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg import volume_io as vio
from splinereg.field_metrics import jacobian_map, mls, warp_landmarks
from splinereg.regularizers_numeric import SamplingSpec


def test_volume_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(5, 4, 3)).astype(np.float32).astype(np.float64)
    vol = vio.Volume(data=data, spacing=(0.92, 0.92, 2.5), origin=(1.0, -2.0, 3.5))
    path = tmp_path / "vol.vol"
    vio.write_volume(vol, path)
    loaded = vio.read_volume(path)
    np.testing.assert_array_equal(loaded.data, vol.data)
    assert loaded.spacing == (0.92, 0.92, 2.5)
    assert loaded.origin == (1.0, -2.0, 3.5)


def test_vector_volume_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.normal(size=(2, 2, 2, 3)).astype(np.float32).astype(np.float64)
    vol = vio.Volume(data=data, spacing=(1.0, 1.0, 1.0))
    path = tmp_path / "vec.vol"
    vio.write_volume(vol, path)
    loaded = vio.read_volume(path)
    assert loaded.components == 3
    np.testing.assert_array_equal(loaded.data, vol.data)


def test_volume_write_narrows_to_float32(tmp_path):
    vol = vio.Volume(data=np.full((2, 2, 2), np.pi), spacing=(1, 1, 1))
    path = tmp_path / "pi.vol"
    vio.write_volume(vol, path)
    loaded = vio.read_volume(path)
    assert loaded.data[0, 0, 0] == np.float32(np.pi)


def test_volume_errors(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"WHAT\n")
    with pytest.raises(vio.FormatError):
        vio.read_volume(path)

    good = tmp_path / "good.vol"
    vio.write_volume(vio.Volume(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1)), good)
    data = good.read_bytes()
    truncated = tmp_path / "trunc.vol"
    truncated.write_bytes(data[:-4])
    with pytest.raises(vio.FormatError):
        vio.read_volume(truncated)

    wrong_dtype = data.replace(b"dtype float32", b"dtype float16")
    bad_dtype = tmp_path / "dtype.vol"
    bad_dtype.write_bytes(wrong_dtype)
    with pytest.raises(vio.FormatError):
        vio.read_volume(bad_dtype)


def test_volume_with_non_finite_values_is_rejected(tmp_path):
    data = np.zeros((3, 4, 5))
    data[1, 2, 3] = np.nan
    data[2, 0, 0] = np.inf
    path = tmp_path / "nan.vol"
    vio.write_volume(vio.Volume(data=data, spacing=(1, 1, 1)), path)
    with pytest.raises(vio.FormatError, match="2 of 60 values are not finite"):
        vio.read_volume(path)


def test_grid_round_trip(tmp_path):
    geom = core.GridGeometry((3, 2, 4), (10.0, 12.5, 8.0), origin=(0.5, -1.0, 2.0))
    rng = np.random.default_rng(2)
    grid = core.ControlPointGrid(geom, rng.normal(size=(3,) + geom.lattice_shape))
    path = tmp_path / "grid.bspg"
    vio.write_grid(grid, path)
    loaded = vio.read_grid(path)
    assert loaded.geometry == geom
    np.testing.assert_array_equal(loaded.coefficients, grid.coefficients)


def test_grid_truncation_error(tmp_path):
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    grid = core.ControlPointGrid.zeros(geom)
    path = tmp_path / "grid.bspg"
    vio.write_grid(grid, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(vio.FormatError):
        vio.read_grid(path)


# ---------------------------------------------------------------------------
# phantoms and synthetic fields
# ---------------------------------------------------------------------------

def test_phantom_determinism():
    a = vio.make_phantom("blobs", (16, 16, 16), (2, 2, 2), seed=7)
    b = vio.make_phantom("blobs", (16, 16, 16), (2, 2, 2), seed=7)
    np.testing.assert_array_equal(a.data, b.data)
    c = vio.make_phantom("blobs", (16, 16, 16), (2, 2, 2), seed=8)
    assert not np.array_equal(a.data, c.data)


def test_phantom_gradient_kind():
    vol = vio.make_phantom("gradient", (4, 3, 2), (2.5, 1.0, 1.0), origin=(1.0, 0, 0))
    for i in range(4):
        np.testing.assert_allclose(vol.data[i], 1.0 + 2.5 * i)


def test_phantom_blobs_have_texture():
    vol = vio.make_phantom("blobs", (24, 24, 24), (2, 2, 2), seed=3)
    assert np.all(np.isfinite(vol.data))
    assert vol.data.var() > 0


def test_phantom_checker_values():
    vol = vio.make_phantom("checker", (8, 8, 8), (10, 10, 10))
    assert set(np.unique(vol.data)) == {0.0, 1.0}


def test_phantom_unknown_kind():
    with pytest.raises(ValueError):
        vio.make_phantom("mystery", (4, 4, 4), (1, 1, 1))


def test_ground_truth_zero_amplitude_is_identity():
    geom = core.GridGeometry((4, 4, 4), (10, 10, 10))
    grid, fixed, warped = vio.make_ground_truth_field(
        geom, amplitude=0.0, smoothness=20.0, seed=1, n_landmarks=50
    )
    np.testing.assert_array_equal(grid.coefficients, 0.0)
    assert mls(fixed, warped) == 0.0


def test_ground_truth_field_is_fold_free_and_consistent():
    geom = core.GridGeometry((5, 5, 5), (10, 10, 10))
    grid, fixed, warped = vio.make_ground_truth_field(
        geom, amplitude=3.0, smoothness=25.0, seed=2, n_landmarks=40
    )
    _, min_j = jacobian_map(grid, SamplingSpec.per_tile((4, 4, 4)))
    assert min_j > 0.0
    rewarp = warp_landmarks(grid, fixed)
    np.testing.assert_array_equal(rewarp.points, warped.points)
    assert mls(fixed, warped) > 0.0


def test_ground_truth_determinism():
    geom = core.GridGeometry((4, 4, 4), (10, 10, 10))
    a = vio.make_ground_truth_field(geom, 2.0, 20.0, seed=5, n_landmarks=10)
    b = vio.make_ground_truth_field(geom, 2.0, 20.0, seed=5, n_landmarks=10)
    np.testing.assert_array_equal(a[0].coefficients, b[0].coefficients)
    np.testing.assert_array_equal(a[1].points, b[1].points)


def test_ground_truth_amplitude_precondition():
    geom = core.GridGeometry((4, 4, 4), (10, 10, 10))
    with pytest.raises(ValueError):
        vio.make_ground_truth_field(geom, amplitude=10.0, smoothness=20.0)


# Coefficient lattices (tiles + 3 per axis) and blur sigmas (smoothness over
# tile spacing) that the benchmark workloads, `splinereg bench` and the
# acceptance suite's registration draw.
WORKLOAD_BLURS = [
    ((6, 7, 8), 2.0), ((19, 19, 19), 2.0), ((35, 35, 35), 2.0),  # penalty_eval
    ((15, 15, 15), 3.75),  # register: 48^3 voxels, 8 mm tiles
    ((11, 11, 11), 2.0),  # paper_compare, bench defaults
    ((19, 19, 19), 20.0 / 8.0),  # criterion 8
]


def _blur_cases(count, seed):
    """Seeded random (array, sigmas) cases: shapes 1..40 per axis, sigma up to 9,
    with one-voxel axes, zero sigmas and radii longer than the axis forced in."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        ndim = 1 + k % 3
        shape = [int(v) for v in rng.integers(1, 41, size=ndim)]
        sigmas = [float(v) for v in rng.uniform(0.0, 9.0, size=ndim)]
        axis = int(rng.integers(ndim))
        if k % 5 == 0:
            shape[axis] = 1
        if k % 7 == 0:
            sigmas[axis] = 0.0
        if k % 4 == 1:  # radius int(4 sigma + 0.5) >= 12 reaches past a <= 8 axis
            shape[axis] = int(rng.integers(1, 9))
            sigmas[axis] = float(rng.uniform(3.0, 9.0))
        yield rng.normal(size=shape), sigmas


def test_gaussian_blur_matches_scipy_bitwise():
    ndimage = pytest.importorskip("scipy.ndimage")
    cases = list(_blur_cases(150, seed=2024))
    cases += [(np.random.default_rng(i).normal(size=shape), [s] * 3)
              for i, (shape, s) in enumerate(WORKLOAD_BLURS)]
    seen = {"one_voxel": 0, "zero_sigma": 0, "long_radius": 0}
    for x, sigmas in cases:
        got = vio._gaussian_blur(x, sigmas)
        want = ndimage.gaussian_filter(x, sigmas, mode="constant")
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got, want), (x.shape, sigmas)
        seen["one_voxel"] += 1 in x.shape
        seen["zero_sigma"] += 0.0 in sigmas
        seen["long_radius"] += any(int(4 * s + 0.5) >= n for n, s in zip(x.shape, sigmas) if s > 0)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# interpolation and resampling
# ---------------------------------------------------------------------------

def test_trilinear_reproduces_linear_functions():
    rng = np.random.default_rng(4)
    # (8, 1, 6) has a one-voxel axis, where the flat gather's stride is 0
    for dims in ((8, 8, 8), (8, 1, 6)):
        vol = vio.make_phantom("gradient", dims, (2, 2, 2))
        vol.data += 0.25 * vol.axis_coords(2)
        pts = rng.uniform(0.0, 2.0 * (np.array(dims) - 1), size=(50, 3))
        values, inside = vio.trilinear_sample(vol, pts)
        assert np.all(inside)
        np.testing.assert_allclose(values, pts[:, 0] + 0.25 * pts[:, 2], atol=1e-12)


def test_trilinear_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    # on the one-voxel axis of (8, 1, 6) the interpolant is constant and the
    # points sit on the axis's only voxel, so the derivative there is 0
    for dims in ((12, 12, 12), (8, 1, 6)):
        vol = vio.make_phantom("blobs", dims, (2, 2, 2), seed=5)
        single = np.array(dims) == 1
        lo = np.where(single, 0.0, 1.0)
        hi = np.where(single, 0.0, 2.0 * (np.array(dims) - 1) - 1.0)
        pts = rng.uniform(lo, hi, size=(30, 3))
        _, grads, inside = vio.trilinear_sample(vol, pts, gradient=True)
        assert np.all(inside)
        h = 1e-6
        for axis in range(3):
            if single[axis]:
                np.testing.assert_array_equal(grads[:, axis], 0.0)
                continue
            shifted_p = pts.copy()
            shifted_p[:, axis] += h
            shifted_m = pts.copy()
            shifted_m[:, axis] -= h
            vp, _ = vio.trilinear_sample(vol, shifted_p)
            vm, _ = vio.trilinear_sample(vol, shifted_m)
            fd = (vp - vm) / (2 * h)
            np.testing.assert_allclose(grads[:, axis], fd, atol=1e-6)


def test_trilinear_strided_points_match_contiguous_copy():
    """A non-contiguous (..., 3) view, planar or strided, samples bitwise like
    its contiguous copy."""
    rng = np.random.default_rng(8)
    vol = vio.Volume(data=rng.normal(size=(5, 1, 6)), spacing=(0.7, 1.3, 2.1), origin=(-3.0, 1.5, 4.25))
    planes = rng.uniform((-4.0, 0.5, 3.0), (1.0, 2.5, 16.0), size=(4, 6, 3)).transpose(2, 0, 1).copy()
    planes[1, ::2] = 1.5  # on the one-voxel axis's plane, so these rows can be inside
    for view in (np.moveaxis(planes, 0, -1), np.moveaxis(planes, 0, -1)[::2, ::-1]):
        assert not view.flags.c_contiguous
        for gradient in (False, True):
            got = vio.trilinear_sample(vol, view, gradient=gradient)
            want = vio.trilinear_sample(vol, np.ascontiguousarray(view), gradient=gradient)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_trilinear_single_point_matches_batch():
    vol = vio.make_phantom("blobs", (6, 5, 4), (2, 2, 2), seed=1)
    for point in ([3.1, 2.2, 1.7], [30.0, 1.0, 1.0]):
        single = vio.trilinear_sample(vol, np.array(point), gradient=True)
        batch = vio.trilinear_sample(vol, np.array([point]), gradient=True)
        for s, b in zip(single, batch):
            assert s.shape == b.shape[1:] and s.tobytes() == b[0].tobytes()


def test_trilinear_outside_is_masked():
    vol = vio.make_phantom("gradient", (4, 4, 4), (1, 1, 1))
    values, inside = vio.trilinear_sample(vol, np.array([[10.0, 0.0, 0.0]]))
    assert not inside[0]
    assert values[0] == 0.0


def test_warp_volume_identity():
    vol = vio.make_phantom("blobs", (10, 10, 10), (2, 2, 2), seed=7)
    geom = vio.covering_geometry(vol, (10.0, 10.0, 10.0))
    zero = core.ControlPointGrid.zeros(geom)
    warped = vio.warp_volume(vol, zero, vol)
    np.testing.assert_allclose(warped.data, vol.data, atol=1e-12)


@pytest.mark.parametrize("dims", [(37, 38, 35), (3, 200, 200), (20, 1, 24)])
def test_warp_volume_slabs_match_one_call(dims):
    """Slab boundaries change nothing: a first axis that is no multiple of the
    slab's rows, a single row above the slab's point budget, a one-voxel axis."""
    rows = core._SLAB_POINTS // (dims[1] * dims[2])
    assert rows == 0 or dims[0] % rows != 0
    moving = vio.make_phantom("blobs", dims, (2.0, 2.0, 2.0), seed=21)
    geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
    grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=20.0, seed=5)
    grid.coefficients[np.array(dims) == 1] = 0.0  # keep points on a one-voxel axis's plane
    want, inside = vio.trilinear_sample(moving, vio.warped_voxel_centers(grid, moving))
    assert inside.any()
    warped = vio.warp_volume(moving, grid, moving)
    assert warped.data.tobytes() == want.tobytes()


def test_warp_volume_memory_stays_bounded():
    """At 64^3 one call holds the warped grid and the output plus cache-sized
    slab temporaries, not full-volume temporaries for every interpolation term."""
    moving = vio.make_phantom("blobs", (64, 64, 64), (2.0, 2.0, 2.0), seed=21)
    geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
    grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=20.0, seed=5)
    volume = 64 ** 3 * 8
    vio.warp_volume(moving, grid, moving)
    tracemalloc.start()
    try:
        vio.warp_volume(moving, grid, moving)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * volume, f"peak {peak / volume:.1f} volumes"


def test_warped_voxel_centers_memory_stays_bounded():
    """At 64^3 the (3, S1, S2, S3) result is written in place, one component's
    contraction at a time, not stacked from three full-size temporaries."""
    moving = vio.make_phantom("blobs", (64, 64, 64), (2.0, 2.0, 2.0), seed=21)
    geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
    grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=20.0, seed=5)
    volume = 64 ** 3 * 8
    vio.warped_voxel_centers(grid, moving)
    tracemalloc.start()
    try:
        vio.warped_voxel_centers(grid, moving)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * volume, f"peak {peak / volume:.1f} volumes"


def test_box_downsample():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(6, 6, 7))
    vol = vio.Volume(data=data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))
    down = vio.box_downsample(vol, 2)
    assert down.dims == (3, 3, 3)
    assert down.spacing == (2.0, 2.0, 2.0)
    assert down.origin == (0.5, 0.5, 0.5)
    np.testing.assert_allclose(down.data[0, 0, 0], data[:2, :2, :2].mean(), rtol=1e-12)


def test_covering_geometry_covers_all_centers():
    vol = vio.Volume(data=np.zeros((20, 10, 5)), spacing=(2.0, 3.0, 4.0), origin=(1.0, 1.0, 1.0))
    geom = vio.covering_geometry(vol, (7.0, 7.0, 7.0))
    assert geom.origin == (1.0, 1.0, 1.0)
    for d in range(3):
        span = (vol.dims[d] - 1) * vol.spacing[d]
        assert geom.extent[d] >= span - 1e-12
        assert geom.extent[d] - span < 7.0
