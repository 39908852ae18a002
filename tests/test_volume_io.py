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


@pytest.mark.parametrize("origin", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf)])
def test_volume_rejects_a_non_finite_origin(origin):
    """A Volume that write_volume could write but read_volume would reject is
    never made: its origin must be finite, as a GridGeometry's must."""
    with pytest.raises(ValueError, match="origin must be finite"):
        vio.Volume(np.zeros((2, 2, 2)), (1, 1, 1), origin)


def _format_files(tmp_path):
    """Format name to (path, reader) of one valid VOL1, BSPG1 and VBANK1 file."""
    from splinereg import regularizers_analytic as ra

    vol, grid, bank = tmp_path / "v.vol", tmp_path / "g.bspg", tmp_path / "b.vbank"
    vio.write_volume(vio.Volume(data=np.zeros((2, 3, 2)), spacing=(1, 1, 1)), vol)
    vio.write_grid(core.ControlPointGrid.zeros(core.GridGeometry((2, 1, 1), (10, 10, 10))), grid)
    ra.write_vbank(ra.build_vbank((1.0, 2.0, 3.0)), bank)
    return {"VOL1": (vol, vio.read_volume), "BSPG1": (grid, vio.read_grid), "VBANK1": (bank, ra.read_vbank)}


@pytest.mark.parametrize("fmt", ["VOL1", "BSPG1", "VBANK1"])
def test_header_line_errors(tmp_path, fmt):
    """Every format reads its header lines alike: the file ending inside one,
    a line of more than 512 bytes and a line that is not ASCII are format
    errors; a line of 512 bytes is read."""
    path, read = _format_files(tmp_path)[fmt]
    data = path.read_bytes()
    magic, rest = data.split(b"\n", 1)
    second = rest.split(b"\n", 1)[0]
    bad = [(data[:len(magic) + 4], "end of file inside header"),
           (magic + b"\n" + second + b" " * 520 + b"\n" + rest, "too long"),
           (magic + b"\n" + second + b" \xe9\n" + rest, "not ASCII")]
    for content, message in bad:
        path.write_bytes(content)
        with pytest.raises(vio.FormatError, match=message):
            read(path)
    path.write_bytes(magic + b"\n" + second.ljust(512) + b"\n" + rest.split(b"\n", 1)[1])
    read(path)  # the padded line is within bounds, and its fields parse as before


def _read_edited(tmp_path, fmt, line, edited, match):
    """Read the valid `fmt` file with its header line `line` replaced by `edited`;
    the reader must raise FormatError matching `match`."""
    path, read = _format_files(tmp_path)[fmt]
    data = path.read_bytes()
    assert data.count(line + b"\n") == 1
    path.write_bytes(data.replace(line + b"\n", edited + b"\n"))
    with pytest.raises(vio.FormatError, match=match):
        read(path)


def test_repeated_vbank_pair_is_rejected(tmp_path):
    _read_edited(tmp_path, "VBANK1", b"pair 100 100", b"pair 000 000", "repeats a pair: its 23 pair lines name 22")


@pytest.mark.parametrize("edited", [b"pair 100 000", b"pair 400 400", b"pair 10 100", b"pair 1x0 1x0"])
def test_vbank_pair_naming_no_canonical_pair_is_rejected(tmp_path, edited):
    _read_edited(tmp_path, "VBANK1", b"pair 100 100", edited, "names no canonical derivative pair")


@pytest.mark.parametrize("fmt, line, edited", [
    ("VBANK1", b"spacing 1.0 2.0 3.0", b"spacing -1.0 nan 0.0"),
    ("VBANK1", b"spacing 1.0 2.0 3.0", b"spacing 1.0 inf 3.0"),
    ("VBANK1", b"spacing 1.0 2.0 3.0", b"spacing 1.0 2.0 1e-07"),  # below MIN_TILE_SPACING
    ("BSPG1", b"spacing 10.0 10.0 10.0", b"spacing 10.0 nan 10.0"),
    ("VOL1", b"spacing 1.0 1.0 1.0", b"spacing 1.0 1.0 -inf"),
    ("VOL1", b"spacing 1.0 1.0 1.0", b"spacing 1.0 0.0 1.0"),
    ("BSPG1", b"spacing 10.0 10.0 10.0", b"spacing 10.0 ten 10.0"),  # not a number
])
def test_header_spacing_out_of_range_is_rejected(tmp_path, fmt, line, edited):
    _read_edited(tmp_path, fmt, line, edited, f"header field '{edited.decode()}'")


@pytest.mark.parametrize("fmt, edited", [
    ("VOL1", b"origin nan 0.0 0.0"), ("VOL1", b"origin 0.0 inf 0.0"), ("BSPG1", b"origin 0.0 0.0 -inf")])
def test_header_origin_not_finite_is_rejected(tmp_path, fmt, edited):
    _read_edited(tmp_path, fmt, b"origin 0.0 0.0 0.0", edited, f"header field '{edited.decode()}'")


@pytest.mark.parametrize("fmt, line, edited", [
    ("VOL1", b"dims 2 3 2", b"dims -2 -2 2"),
    ("VOL1", b"dims 2 3 2", b"dims -1 2 2"),
    ("VOL1", b"dims 2 3 2", b"dims 2 0 2"),
    ("VOL1", b"dims 2 3 2", b"dims 2 3 2.0"),  # not an integer
    ("BSPG1", b"tiles 2 1 1", b"tiles 2 0 1"),
    ("VBANK1", b"pairs 23", b"pairs 0"),
    ("VBANK1", b"pairs 23", b"pairs -23"),
])
def test_header_count_not_positive_is_rejected(tmp_path, fmt, line, edited):
    _read_edited(tmp_path, fmt, line, edited, f"header field '{edited.decode()}'")


_VBANK1_PAIRS = ("000 000", "100 100", "010 010", "001 001", "010 100", "001 100", "001 010",
                 "200 200", "020 020", "002 002", "110 110", "101 101", "011 011", "300 300", "030 030",
                 "003 003", "210 210", "201 201", "120 120", "021 021", "102 102", "012 012", "111 111")


def _written_files(tmp_path):
    """File name to (header bytes, payload element type, payload values) of
    each writer's output, the header as README's File formats section gives it."""
    from splinereg import regularizers_analytic as ra

    rng = np.random.default_rng(5)
    scalar = vio.Volume(rng.normal(size=(2, 3, 4)), spacing=(0.92, 0.92, 2.5), origin=(1.0, -2.0, 3.5))
    vector = vio.Volume(rng.normal(size=(3, 1, 2, 3)), spacing=(1, 2, 3))
    geom = core.GridGeometry((2, 1, 3), (10.0, 7.5, 8.0), origin=(-12.5, 0.25, -3.75))
    grid = core.ControlPointGrid(geom, rng.normal(size=(3,) + geom.lattice_shape))
    bank = ra.build_vbank((1.0, 2.0, 3.0))
    vio.write_volume(scalar, tmp_path / "scalar.vol")
    vio.write_volume(vector, tmp_path / "vector.vol")
    vio.write_grid(grid, tmp_path / "grid.bspg")
    ra.write_vbank(bank, tmp_path / "bank.vbank")
    return {
        "scalar.vol": (b"VOL1\ndims 2 3 4\nspacing 0.92 0.92 2.5\norigin 1.0 -2.0 3.5\n"
                       b"dtype float32\ncomponents 1\n", "<f4", scalar.data),
        "vector.vol": (b"VOL1\ndims 3 1 2\nspacing 1.0 2.0 3.0\norigin 0.0 0.0 0.0\n"
                       b"dtype float32\ncomponents 3\n", "<f4", vector.data),
        "grid.bspg": (b"BSPG1\ntiles 2 1 3\nspacing 10.0 7.5 8.0\norigin -12.5 0.25 -3.75\n",
                      "<f8", grid.coefficients),
        "bank.vbank": (b"VBANK1\nspacing 1.0 2.0 3.0\npairs 23\n"
                       + b"".join(b"pair %s\n" % p.encode() for p in _VBANK1_PAIRS),
                       "<f8", np.stack([bank.get(p) for p in bank.pairs])),
    }


@pytest.mark.parametrize("name", ["scalar.vol", "vector.vol", "grid.bspg", "bank.vbank"])
def test_written_bytes(tmp_path, name):
    """Each writer puts the documented header on disk, byte for byte, then
    the payload in C order as raw little-endian values of its element type."""
    header, dtype, values = _written_files(tmp_path)[name]
    data = (tmp_path / name).read_bytes()
    assert data[:len(header)] == header
    payload = data[len(header):]
    assert len(payload) == values.size * np.dtype(dtype).itemsize
    np.testing.assert_array_equal(np.frombuffer(payload, dtype=dtype),
                                  np.ascontiguousarray(values, dtype=dtype).ravel())


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


@pytest.mark.parametrize("smoothness", [np.inf, np.nan, -1.0])
def test_smooth_grid_rejects_bad_smoothness(smoothness):
    geom = core.GridGeometry((4, 4, 4), (10, 10, 10))
    with pytest.raises(ValueError):
        vio.make_smooth_grid(geom, amplitude=1.0, smoothness=smoothness)


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

    def trilinear(x1, x2, x3):  # all eight monomials, x1 x2 x3 included
        return 0.5 + x1 - 0.3 * x2 + 0.25 * x3 + (0.02 * x2 - 0.03 * x3 + 0.002 * x2 * x3) * x1 + 0.04 * x2 * x3

    # (8, 1, 6) has a one-voxel axis, where the flat gather's stride is 0; the
    # trilinear polynomial is reproduced only if each cell coefficient
    # a4..a7 takes its differences from the right corners
    for dims in ((8, 8, 8), (8, 1, 6)):
        for field in (lambda x1, x2, x3: x1 + 0.25 * x3, trilinear):
            vol = vio.Volume(np.zeros(dims), (2, 2, 2))
            vol.data[:] = field(*np.meshgrid(*(vol.axis_coords(d) for d in range(3)), indexing="ij"))
            pts = rng.uniform(0.0, 2.0 * (np.array(dims) - 1), size=(50, 3))
            values, inside = vio.trilinear_sample(vol, pts)
            assert np.all(inside)
            np.testing.assert_allclose(values, field(*pts.T), atol=1e-12)


def _voxel_index(vol, points):
    return [(points[..., d] - vol.origin[d]) / vol.spacing[d] for d in range(3)]


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
        _, inside = vio.trilinear_sample(vol, pts)
        assert np.all(inside)
        _, grads = vio._cell_sample(vol, _voxel_index(vol, pts), True)
        h = 1e-6
        for axis in range(3):
            if single[axis]:
                np.testing.assert_array_equal(grads[axis], 0.0)
                continue
            shifted_p = pts.copy()
            shifted_p[:, axis] += h
            shifted_m = pts.copy()
            shifted_m[:, axis] -= h
            vp, _ = vio.trilinear_sample(vol, shifted_p)
            vm, _ = vio.trilinear_sample(vol, shifted_m)
            fd = (vp - vm) / (2 * h)
            np.testing.assert_allclose(grads[axis], fd, atol=1e-6)


def test_trilinear_strided_points_match_contiguous_copy():
    """A non-contiguous (..., 3) view, planar or strided, samples bitwise like
    its contiguous copy, and so do strided voxel-index planes in the kernel."""
    rng = np.random.default_rng(8)
    vol = vio.Volume(data=rng.normal(size=(5, 1, 6)), spacing=(0.7, 1.3, 2.1), origin=(-3.0, 1.5, 4.25))
    planes = rng.uniform((-4.0, 0.5, 3.0), (1.0, 2.5, 16.0), size=(4, 6, 3)).transpose(2, 0, 1).copy()
    planes[1, ::2] = 1.5  # on the one-voxel axis's plane, so these rows can be inside
    for view in (np.moveaxis(planes, 0, -1), np.moveaxis(planes, 0, -1)[::2, ::-1]):
        assert not view.flags.c_contiguous
        got = vio.trilinear_sample(vol, view)
        want = vio.trilinear_sample(vol, np.ascontiguousarray(view))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    index = np.array(_voxel_index(vol, np.moveaxis(planes, 0, -1)))
    for view in (index[:, ::2, ::-1], index[:, :, ::3]):
        assert not view[0].flags.c_contiguous
        got_values, got_grads = vio._cell_sample(vol, list(view), True)
        want_values, want_grads = vio._cell_sample(vol, list(np.ascontiguousarray(view)), True)
        for g, w in zip([got_values, *got_grads], [want_values, *want_grads]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_trilinear_single_point_matches_batch():
    vol = vio.make_phantom("blobs", (6, 5, 4), (2, 2, 2), seed=1)
    for point in ([3.1, 2.2, 1.7], [30.0, 1.0, 1.0]):
        single, batch = [], []
        for out, pts in ((single, np.array(point)), (batch, np.array([point]))):
            out += vio.trilinear_sample(vol, pts)
            values, grads = vio._cell_sample(vol, _voxel_index(vol, pts), True)
            out += [values, *grads]
        for s, b in zip(single, batch):
            assert s.shape == b.shape[1:] and s.tobytes() == b[0].tobytes()


def test_trilinear_outside_is_masked():
    vol = vio.make_phantom("gradient", (4, 4, 4), (1, 1, 1))
    values, inside = vio.trilinear_sample(vol, np.array([[10.0, 0.0, 0.0]]))
    assert not inside[0]
    assert values[0] == 0.0


def _forward_differences(vol):
    """(8, N) reference coefficients a0..a7 of every voxel's cell polynomial,
    N voxels in C order: each a_k a forward difference along the axes of its
    f's, 0 at an axis's last voxel, so a one-voxel axis has no variation."""
    table = np.empty((8,) + vol.dims)
    table[0] = vol.data
    for row, src, axis in ((1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 1, 1), (5, 1, 2), (6, 2, 2), (7, 4, 2)):
        lower, out = np.moveaxis(table[src], axis, 0), np.moveaxis(table[row], axis, 0)
        np.subtract(lower[1:], lower[:-1], out=out[:-1])
        out[-1] = 0.0
    return table.reshape(8, -1)


@pytest.mark.parametrize("dims", [(9, 8, 7), (1, 6, 5), (7, 2, 1), (2, 1, 2)])
def test_corner_coefficients_are_forward_differences(dims):
    """The coefficients taken from each cell's corners are, bit for bit, the
    forward differences of the image: inside it, exactly on its faces and
    beyond them, on axes of one and two voxels too. Values alone equal the
    values of the gradient route."""
    rng = np.random.default_rng(sum(dims))
    vol = vio.Volume(rng.normal(size=dims), spacing=(1.5, 2.0, 0.75), origin=(-3.0, 1.0, 2.5))
    idx = []
    for n in dims:
        faces = np.array([0.0, n - 1.0, 0.0, n - 1.0])
        beyond = np.array([-1.5, -0.25, n - 0.75, n + 0.7])
        idx.append(np.concatenate([rng.uniform(0.0, n - 1.0, 300), rng.permutation(faces), rng.permutation(beyond)]))
    idx = [rng.permuted(np.tile(i, 5))[:1000].reshape(10, 100) for i in idx]  # mixes faces, beyond, inside
    i000, _ = vio._cell_of(vol.dims, idx)
    want = _forward_differences(vol)[:, i000.ravel()]
    got = vio._corner_coefficients(vol, i000.ravel())
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
    values, grads = vio._cell_sample(vol, idx, True)
    only, none = vio._cell_sample(vol, idx, False)
    assert none is None and len(grads) == 3
    assert only.shape == values.shape == (10, 100) and only.tobytes() == values.tobytes()


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


@pytest.mark.parametrize("factor", [2.5, np.float64(1.5), np.nan, "2"])
def test_box_downsample_takes_only_whole_factors(factor):
    """A factor that is not a whole number is rejected by name, not truncated
    (2.5 downsampled by 2); integral floats and numpy integers are taken."""
    vol = vio.Volume(data=np.random.default_rng(8).normal(size=(6, 6, 7)), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))
    for whole in (2.0, np.int64(2)):
        np.testing.assert_array_equal(vio.box_downsample(vol, whole).data, vio.box_downsample(vol, 2).data)
    with pytest.raises(ValueError, match="factor"):
        vio.box_downsample(vol, factor)


def test_covering_geometry_covers_all_centers():
    vol = vio.Volume(data=np.zeros((20, 10, 5)), spacing=(2.0, 3.0, 4.0), origin=(1.0, 1.0, 1.0))
    geom = vio.covering_geometry(vol, (7.0, 7.0, 7.0))
    assert geom.origin == (1.0, 1.0, 1.0)
    for d in range(3):
        span = (vol.dims[d] - 1) * vol.spacing[d]
        assert geom.extent[d] >= span - 1e-12
        assert geom.extent[d] - span < 7.0
