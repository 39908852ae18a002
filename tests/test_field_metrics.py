"""Jacobian maps, landmark warping, and mean landmark separation."""

import tracemalloc

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg import field_metrics as fm
from splinereg.regularizers_numeric import SamplingSpec, sample_axes
from splinereg.volume_io import make_smooth_grid
from tests.conftest import random_grid


def test_jacobian_of_zero_field_is_one():
    grid = core.ControlPointGrid.zeros(core.GridGeometry((2, 2, 2), (10, 10, 10)))
    vol, min_j = fm.jacobian_map(grid, SamplingSpec.per_tile((4, 4, 4)))
    np.testing.assert_allclose(vol.data, 1.0, atol=1e-14)
    assert min_j == pytest.approx(1.0, abs=1e-14)


def test_jacobian_of_constant_field_is_one():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    coeffs = np.full((3,) + geom.lattice_shape, 2.5)
    grid = core.ControlPointGrid(geom, coeffs)
    _, min_j = fm.jacobian_map(grid, SamplingSpec.per_tile((3, 3, 3)))
    assert min_j == pytest.approx(1.0, abs=1e-12)


def test_jacobian_of_uniform_scaling():
    geom = core.GridGeometry((3, 3, 3), (10, 10, 10))
    grid = core.linear_field_grid(geom, matrix=np.diag([0.1, 0.1, 0.1]))
    vol, min_j = fm.jacobian_map(grid, SamplingSpec.per_tile((4, 4, 4)))
    np.testing.assert_allclose(vol.data, 1.1 ** 3, rtol=1e-12)
    assert min_j == pytest.approx(1.331, rel=1e-12)


def test_regularization_raises_min_jacobian():
    """A rough random field folds; smoothing the same amplitude unfolds it."""
    geom = core.GridGeometry((5, 5, 5), (10.0, 10.0, 10.0))
    rng = np.random.default_rng(0)
    rough = core.ControlPointGrid(
        geom, rng.normal(0.0, 4.0, size=(3,) + geom.lattice_shape)
    )
    smooth = make_smooth_grid(geom, amplitude=4.0, smoothness=30.0, seed=0)
    spec = SamplingSpec.per_tile((4, 4, 4))
    _, min_rough = fm.jacobian_map(rough, spec)
    _, min_smooth = fm.jacobian_map(smooth, spec)
    assert min_rough < 1.0
    assert min_smooth > min_rough


def _jacobian_reference(grid, spec):
    """det(I + grad v) from a (S, 3, 3) array of the nine whole-grid partials
    that core.sample_partial gives."""
    axes, _ = sample_axes(grid.geometry, spec)
    jac = np.empty(tuple(len(a) for a in axes) + (3, 3))
    for c in range(3):
        for d in range(3):
            orders = tuple(1 if a == d else 0 for a in range(3))
            jac[..., c, d] = core.sample_partial(grid, axes, c + 1, orders)
    for c in range(3):
        jac[..., c, c] += 1.0
    return (
        jac[..., 0, 0] * (jac[..., 1, 1] * jac[..., 2, 2] - jac[..., 1, 2] * jac[..., 2, 1])
        - jac[..., 0, 1] * (jac[..., 1, 0] * jac[..., 2, 2] - jac[..., 1, 2] * jac[..., 2, 0])
        + jac[..., 0, 2] * (jac[..., 1, 0] * jac[..., 2, 1] - jac[..., 1, 1] * jac[..., 2, 0])
    )


@pytest.mark.parametrize("tiles, samples", [((13, 12, 11), 4), ((1, 3, 2), 1)])
def test_jacobian_slabs_match_whole_grid_reference(tiles, samples):
    """Slab boundaries change nothing: 52 first-axis samples are no multiple
    of the 7-row slab, and a grid of 1 x 3 x 2 samples is one partial slab."""
    spec = SamplingSpec.per_tile((samples,) * 3)
    shape = tuple(t * samples for t in tiles)
    rows = core._SLAB_POINTS // (shape[1] * shape[2])
    assert shape[0] % rows != 0
    geom = core.GridGeometry(tiles, (7.0, 8.5, 9.25), (-13.5, 4.25, 21.0))
    grid = make_smooth_grid(geom, amplitude=2.0, smoothness=20.0, seed=4)
    vol, min_j = fm.jacobian_map(grid, spec)
    want = _jacobian_reference(grid, spec)
    assert vol.data.tobytes() == want.tobytes()
    assert min_j == float(want.min())


def test_jacobian_map_memory_stays_bounded():
    """At 32^3 tiles x 4^3 samples one call holds the output volume and one
    row block's partials, not a (S, 3, 3) array."""
    geom = core.GridGeometry((32, 32, 32), (8.0, 8.0, 8.0))
    grid = make_smooth_grid(geom, amplitude=2.0, smoothness=20.0, seed=3)
    spec = SamplingSpec.per_tile((4, 4, 4))
    volume = 128 ** 3 * 8
    fm.jacobian_map(grid, spec)
    tracemalloc.start()
    try:
        fm.jacobian_map(grid, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * volume, f"peak {peak / volume:.1f} volumes"


def test_warp_identity_and_translation():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    pts = fm.LandmarkSet(points=[[5.0, 5.0, 5.0], [12.0, 3.0, 18.0]])
    zero = core.ControlPointGrid.zeros(geom)
    np.testing.assert_array_equal(fm.warp_landmarks(zero, pts).points, pts.points)

    coeffs = np.zeros((3,) + geom.lattice_shape)
    coeffs[0], coeffs[1], coeffs[2] = 1.0, -2.0, 3.0
    const = core.ControlPointGrid(geom, coeffs)
    warped = fm.warp_landmarks(const, pts)
    np.testing.assert_allclose(warped.points, pts.points + [1.0, -2.0, 3.0], atol=1e-12)


def test_warp_linear_field_matches_closed_form():
    geom = core.GridGeometry((3, 3, 3), (10, 10, 10))
    mat = np.array([[0.05, 0.01, 0.0], [0.0, -0.04, 0.02], [0.01, 0.0, 0.03]])
    off = np.array([1.0, 0.5, -0.25])
    grid = core.linear_field_grid(geom, mat, off)
    rng = np.random.default_rng(1)
    pts = fm.LandmarkSet(points=rng.uniform(2, 28, size=(40, 3)))
    warped = fm.warp_landmarks(grid, pts)
    expected = pts.points + pts.points @ mat.T + off
    assert np.abs(warped.points - expected).max() <= 1e-9


def test_warp_reports_out_of_extent_indices():
    geom = core.GridGeometry((2, 2, 2), (10, 10, 10))
    grid = core.ControlPointGrid.zeros(geom)
    pts = fm.LandmarkSet(points=[[5.0, 5.0, 5.0], [25.0, 5.0, 5.0], [5.0, 5.0, 40.0]])
    with pytest.raises(ValueError) as err:
        fm.warp_landmarks(grid, pts)
    assert "1" in str(err.value) and "2" in str(err.value)
    mask = fm.extent_mask(geom, pts)
    np.testing.assert_array_equal(mask, [True, False, False])
    kept = fm.warp_landmarks(grid, pts.select(mask))
    assert len(kept) == 1


def test_extent_mask_keeps_exactly_what_evaluation_accepts_far_from_the_origin():
    # far from the origin a slack in mm and one in tile units disagree by
    # ~5e-7 mm; both checks must apply the same rule
    grid = random_grid((3, 2, 4), (10.0, 12.0, 8.0), seed=16, origin=(-500.0, -500.0, -500.0))
    geom = grid.geometry
    lo, hi = np.array(geom.origin), np.array(geom.far_corner())
    pts = []
    for axis in range(3):
        for face in (lo[axis], hi[axis]):
            for offset in (1e-8, 1e-7, 3e-7, 1e-6):
                for sign in (-1.0, 1.0):
                    p = 0.5 * (lo + hi)
                    p[axis] = face + sign * offset
                    pts.append(p)
    landmarks = fm.LandmarkSet(points=np.array(pts))

    def accepted(p):
        try:
            core.eval_displacement(grid, p)
        except ValueError:
            return False
        return True

    mask = fm.extent_mask(geom, landmarks)
    np.testing.assert_array_equal(mask, [accepted(p) for p in landmarks.points])
    assert 0 < mask.sum() < len(mask)
    assert len(fm.warp_landmarks(grid, landmarks.select(mask))) == mask.sum()


def test_mls_basics():
    a = fm.LandmarkSet(points=[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert fm.mls(a, a) == 0.0
    b = fm.LandmarkSet(points=a.points + [3.0, 4.0, 0.0])
    assert fm.mls(a, b) == pytest.approx(5.0, abs=1e-15)
    assert fm.mls(b, a) == fm.mls(a, b)


def test_mls_matches_brute_force():
    rng = np.random.default_rng(2)
    a = fm.LandmarkSet(points=rng.normal(size=(100, 3)))
    b = fm.LandmarkSet(points=rng.normal(size=(100, 3)))
    brute = sum(
        float(np.sqrt(np.sum((pa - pb) ** 2))) for pa, pb in zip(a.points, b.points)
    ) / 100.0
    assert fm.mls(a, b) == pytest.approx(brute, abs=1e-12)
    assert fm.mls(a, b) >= 0.0


def test_mls_length_mismatch():
    a = fm.LandmarkSet(points=[[0.0, 0.0, 0.0]])
    b = fm.LandmarkSet(points=[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        fm.mls(a, b)


def test_warp_agrees_with_dense_field_at_landmarks():
    grid = random_grid((3, 3, 3), (10.0, 10.0, 10.0), seed=3)
    rng = np.random.default_rng(4)
    interior = rng.uniform(1, 29, size=(30, 3))
    # points on the far faces and corners close onto the last tile at u = 1
    faces = interior[:6].copy()
    faces[[0, 1], 0], faces[[2, 3], 1], faces[[4, 5], 2] = 30.0, 30.0, 30.0
    corners = np.array([[a, b, c] for a in (0.0, 30.0) for b in (0.0, 30.0) for c in (0.0, 30.0)])
    pts = fm.LandmarkSet(points=np.vstack([interior, faces, corners]))
    warped = fm.warp_landmarks(grid, pts)
    for p, w in zip(pts.points, warped.points):
        np.testing.assert_allclose(w, p + core.eval_displacement(grid, p), atol=1e-12)
        dense = core.sample_displacement(grid, [p[:1], p[1:2], p[2:]])[0, 0, 0]
        np.testing.assert_allclose(w, p + dense, atol=1e-12)


def test_landmark_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    lms = fm.LandmarkSet(points=rng.normal(scale=40.0, size=(17, 3)), label="fixture")
    path = tmp_path / "pts.lmk"
    fm.write_landmarks(lms, path)
    loaded = fm.read_landmarks(path)
    np.testing.assert_array_equal(loaded.points, lms.points)


def test_landmark_file_parsing(tmp_path):
    path = tmp_path / "pts.lmk"
    path.write_text("# a comment\n1 2 3\n4 5 6  # trailing comment\n\n")
    lms = fm.read_landmarks(path)
    np.testing.assert_array_equal(lms.points, [[1, 2, 3], [4, 5, 6]])
    path.write_text("1 2\n")
    with pytest.raises(ValueError):
        fm.read_landmarks(path)
