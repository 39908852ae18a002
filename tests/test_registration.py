"""MSE cost/gradient, grid refitting, the quasi-Newton loop, and the driver."""

import tracemalloc

import numpy as np
import pytest

from splinereg import bspline_core as core
from splinereg import registration as reg
from splinereg import regularizers_analytic as ra
from splinereg import volume_io as vio
from splinereg.field_metrics import jacobian_map, mls, warp_landmarks
from splinereg.regularizers_analytic import RegularizerWeights
from splinereg.regularizers_numeric import SamplingSpec
from tests.conftest import random_grid


def blob_volume(dims=(24, 24, 24), spacing=(2.0, 2.0, 2.0), seed=0):
    return vio.make_phantom("blobs", dims, spacing, seed=seed)


def test_identical_images_zero_grid_cost_is_zero():
    vol = blob_volume()
    geom = vio.covering_geometry(vol, (12.0, 12.0, 12.0))
    grid = core.ControlPointGrid.zeros(geom)
    value, gradient = reg.mse_cost_grad(vol, vol, grid)
    assert value == 0.0
    np.testing.assert_array_equal(gradient, 0.0)


def test_translated_gradient_image_exact_alignment():
    """M linear in x1, F its exact translate: the translating field zeroes the
    cost at every in-bounds sample."""
    moving = vio.make_phantom("gradient", (16, 16, 16), (2.0, 2.0, 2.0))
    t = np.array([3.0, 0.0, 0.0])
    fixed = vio.Volume(data=moving.data + t[0], spacing=moving.spacing, origin=moving.origin)
    geom = vio.covering_geometry(fixed, (10.0, 10.0, 10.0))
    coeffs = np.zeros((3,) + geom.lattice_shape)
    coeffs[0] = t[0]
    grid = core.ControlPointGrid(geom, coeffs)
    value, _ = reg.mse_cost_grad(fixed, moving, grid)
    # only samples whose warped position stays inside contribute; those match exactly
    assert value <= 1e-18


def test_mse_gradient_matches_finite_differences():
    moving = blob_volume(seed=1)
    fixed = blob_volume(seed=2)
    geom = vio.covering_geometry(fixed, (12.0, 12.0, 12.0))
    grid = random_grid(geom.tile_counts, geom.tile_spacing, seed=3, scale=1.5)
    value, gradient = reg.mse_cost_grad(fixed, moving, grid)
    assert value > 0
    rng = np.random.default_rng(4)
    # the cost is piecewise quadratic in each coefficient, so the central
    # difference is exact away from interpolation-cell boundaries; h trades
    # f64 cancellation noise against the chance of straddling a cell face
    h = 1e-4
    floor = 1e-4 * np.abs(gradient).max()  # entries near zero measure against scale
    checked = 0
    for _ in range(50):
        c = rng.integers(0, 3)
        ijk = tuple(rng.integers(0, s) for s in geom.lattice_shape)
        plus = grid.copy()
        plus.coefficients[(c,) + ijk] += h
        minus = grid.copy()
        minus.coefficients[(c,) + ijk] -= h
        fp, _ = reg.mse_cost_grad(fixed, moving, plus)
        fmn, _ = reg.mse_cost_grad(fixed, moving, minus)
        fd = (fp - fmn) / (2 * h)
        got = gradient[(c,) + ijk]
        denom = max(abs(fd), abs(got), floor)
        assert abs(fd - got) / denom <= 1e-4
        checked += 1
    assert checked == 50


def _unsliced_mse(fixed, moving, grid):
    """mse_cost_grad's value and gradient from the definition, on the whole
    volume at once: the trilinear interpolant M and its gradient at the
    interleaved (..., 3) grid of warped voxel centres p, residual
    r = M(p) - F(x), hull fade w = w1 w2 w3 with
    w_d = clip(min(i_d, n_d - 1 - i_d), 0, 1) at voxel index i_d (on an axis
    of one or two voxels, 1 on and between its planes and 0 off them),
    C = sum w r^2, dC/dp = 2 w r grad M + r^2 grad w."""
    axes = [fixed.axis_coords(d) for d in range(3)]
    ws = [core.axis_weight_matrix(grid.geometry, d, axes[d], 0) for d in range(3)]
    points = np.ascontiguousarray(vio.warped_voxel_centers(grid, fixed))
    index = [(points[..., d] - moving.origin[d]) / moving.spacing[d] for d in range(3)]
    m_vals, m_grads = vio._cell_sample(moving, index, True)
    diff = m_vals - fixed.data
    fades, slopes = [], []  # w_d and dw_d / dp_d
    for d, (i, n) in enumerate(zip(index, moving.dims)):
        if n <= 2:
            fades.append(((0.0 <= i) & (i <= n - 1)).astype(float))
            slopes.append(np.zeros(fixed.dims))
            continue
        fades.append(np.clip(np.minimum(i, (n - 1) - i), 0.0, 1.0))
        rising, falling = (0.0 < i) & (i < 1.0), (n - 2 < i) & (i < n - 1)
        slopes.append(np.where(rising, 1.0, np.where(falling, -1.0, 0.0)) / moving.spacing[d])
    w = fades[0] * fades[1] * fades[2]
    dw = [slopes[0] * fades[1] * fades[2], slopes[1] * fades[0] * fades[2], slopes[2] * fades[0] * fades[1]]
    gradient = np.stack([
        core.scatter_separable(2.0 * (w * diff) * m_grads[c] + diff * diff * dw[c], *ws) for c in range(3)
    ])
    return float(np.sum(w * diff * diff)), gradient


@pytest.mark.parametrize("dims", [(37, 38, 35), (20, 1, 24), (3, 200, 200)])
def test_mse_slabs_match_unsliced_reference(dims):
    """Slab boundaries change nothing: a first axis that is no multiple of the
    slab's rows, a one-voxel axis, a single row above the slab's point budget."""
    rows = core._SLAB_POINTS // (dims[1] * dims[2])
    assert rows == 0 or dims[0] % rows != 0
    moving = blob_volume(dims=dims, seed=21)
    fixed = blob_volume(dims=dims, seed=22)
    geom = vio.covering_geometry(fixed, (8.0, 8.0, 8.0))
    grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=20.0, seed=5)
    grid.coefficients[np.array(dims) == 1] = 0.0  # keep points on a one-voxel axis's plane
    value, gradient = reg.mse_cost_grad(fixed, moving, grid)
    ref_value, ref_gradient = _unsliced_mse(fixed, moving, grid)
    assert value > 0 and value == ref_value
    assert gradient.tobytes() == ref_gradient.tobytes()


def test_mse_cost_continuous_across_the_hull():
    """A uniform translation that carries the outermost voxel centres across the
    moving image's hull changes the cost continuously: the fade takes a sample
    out over one voxel cell instead of dropping it at the face."""
    moving = blob_volume(dims=(20, 20, 20), seed=1)
    fixed = blob_volume(dims=(20, 20, 20), seed=2)
    geom = vio.covering_geometry(fixed, (10.0, 10.0, 10.0))

    def cost(t):
        coeffs = np.zeros((3,) + geom.lattice_shape)
        coeffs[0] = t
        return reg.mse_cost_grad(fixed, moving, core.ControlPointGrid(geom, coeffs))[0]

    assert abs(cost(1e-6) - cost(-1e-6)) / cost(0.0) <= 1e-6


def test_mse_gradient_matches_finite_differences_at_the_hull():
    """Coefficients in the lattice's two outer shells on each axis move the
    samples on the fade ramp, where the r^2 grad w term of the gradient acts."""
    moving = blob_volume(seed=1)
    fixed = blob_volume(seed=2)
    geom = vio.covering_geometry(fixed, (12.0, 12.0, 12.0))
    grid = random_grid(geom.tile_counts, geom.tile_spacing, seed=3, scale=1.5)
    _, gradient = reg.mse_cost_grad(fixed, moving, grid)
    rng = np.random.default_rng(6)
    h = 1e-4
    floor = 1e-4 * np.abs(gradient).max()
    shape = geom.lattice_shape
    for axis in range(3):
        for shell in (0, 1, shape[axis] - 2, shape[axis] - 1):
            for c in range(3):
                ijk = [int(rng.integers(0, s)) for s in shape]
                ijk[axis] = shell
                idx = (c,) + tuple(ijk)
                plus = grid.copy()
                plus.coefficients[idx] += h
                minus = grid.copy()
                minus.coefficients[idx] -= h
                fd = (reg.mse_cost_grad(fixed, moving, plus)[0] - reg.mse_cost_grad(fixed, moving, minus)[0]) / (2 * h)
                got = gradient[idx]
                assert abs(fd - got) / max(abs(fd), abs(got), floor) <= 1e-4, idx


def test_mse_builds_axis_weights_once(monkeypatch):
    """One evaluation builds the three per-axis weight matrices once and shares
    them between the warped grid and the gradient scatter."""
    calls = []
    build = core.axis_weight_matrix

    def counted(geometry, axis, coords, order=0):
        calls.append(axis)
        return build(geometry, axis, coords, order)

    monkeypatch.setattr(core, "axis_weight_matrix", counted)
    vol = blob_volume(dims=(12, 10, 8))
    grid = core.ControlPointGrid.zeros(vio.covering_geometry(vol, (8.0, 8.0, 8.0)))
    reg.mse_cost_grad(vol, vol, grid)
    assert sorted(calls) == [0, 1, 2]


def test_optimize_builds_axis_weights_once_per_stage(monkeypatch):
    """The data term's per-axis weight matrices depend only on the stage's
    geometry and image, so a stage builds them once, however many evaluations
    it makes, and shares them read-only."""
    calls = []
    build = core.axis_weight_matrix

    def counted(geometry, axis, coords, order=0):
        calls.append(axis)
        return build(geometry, axis, coords, order)

    monkeypatch.setattr(core, "axis_weight_matrix", counted)
    moving = blob_volume(dims=(20, 20, 20), seed=11)
    fixed = blob_volume(dims=(20, 20, 20), seed=12)
    built, evaluations = [], []
    for cap in (1, 5):
        monkeypatch.setattr(vio, "_weights_memo", (None, None))
        calls.clear()
        config = reg.RegistrationConfig(
            stages=(reg.RegistrationStage((20.0,) * 3, cap, 2), reg.RegistrationStage((10.0,) * 3, cap)),
            weights=RegularizerWeights(curvature=1e-2))
        _, history = reg.optimize(fixed, moving, config)
        built.append(len(calls))
        evaluations.append(sum(h.evaluations for h in history))
    assert built[0] == built[1] and evaluations[0] < evaluations[1]
    ws = vio._voxel_weights(vio.covering_geometry(fixed, (10.0,) * 3), fixed)
    assert ws is vio._voxel_weights(vio.covering_geometry(fixed, (10.0,) * 3), fixed)
    assert not any(w.flags.writeable for w in ws)


def test_mse_cost_grad_memory_stays_bounded():
    """One evaluation holds the cost as its only whole volume, plus one row
    block's temporaries and the lattice-sized gradient. So in volumes the
    peak falls as the image grows (2.8 at 64^3, 1.3 at 128^3), where whole
    warped planes and weighted gradient planes held 8.5 and 7.7."""
    for n, bound in ((64, 4.0), (128, 2.0)):
        moving = blob_volume(dims=(n, n, n), seed=21)
        fixed = blob_volume(dims=(n, n, n), seed=22)
        geom = vio.covering_geometry(fixed, (8.0, 8.0, 8.0))
        grid = vio.make_smooth_grid(geom, amplitude=3.0, smoothness=20.0, seed=5)
        volume = n ** 3 * 8
        reg.mse_cost_grad(fixed, moving, grid)
        tracemalloc.start()
        try:
            reg.mse_cost_grad(fixed, moving, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * volume, f"peak {peak / volume:.1f} volumes at {n}^3"


def test_mse_geometry_mismatch_rejected():
    a = blob_volume()
    b = vio.Volume(data=a.data, spacing=(1.0, 2.0, 2.0))
    geom = vio.covering_geometry(a, (12.0, 12.0, 12.0))
    grid = core.ControlPointGrid.zeros(geom)
    with pytest.raises(ValueError):
        reg.mse_cost_grad(a, b, grid)


def test_fit_grid_recovers_representable_fields():
    coarse_geom = core.GridGeometry((2, 2, 2), (16.0, 16.0, 16.0))
    fine_geom = core.GridGeometry((4, 4, 4), (8.0, 8.0, 8.0))
    source = random_grid(coarse_geom.tile_counts, coarse_geom.tile_spacing, seed=8, scale=2.0)
    axes = [np.linspace(0.0, 32.0, 24) for _ in range(3)]
    samples = core.sample_displacement(source, axes)
    fitted = reg.fit_grid_to_field(fine_geom, axes, samples)
    # a coarse-grid cubic field is exactly representable on the halved grid
    check_axes = [np.linspace(0.5, 31.5, 9) for _ in range(3)]
    np.testing.assert_allclose(
        core.sample_displacement(fitted, check_axes),
        core.sample_displacement(source, check_axes),
        atol=1e-9,
    )


@pytest.mark.parametrize("axes, message", [
    ([np.linspace(0.0, 32.0, 6), np.linspace(0.0, 32.0, 24), np.linspace(0.0, 32.0, 24)],
     "axis 1: 6 samples determine only 6 of 7 control points"),
    ([np.linspace(0.0, 32.0, 24), np.linspace(0.0, 32.0, 24), np.linspace(0.0, 6.0, 24)],
     "axis 3: 24 samples determine only 4 of 7 control points"),  # the far tiles hold no sample
], ids=["fewer-samples", "rank-deficient"])
def test_fit_grid_rejects_an_undetermined_axis(axes, message):
    geometry = core.GridGeometry((4, 4, 4), (8.0, 8.0, 8.0))
    samples = np.zeros(tuple(len(a) for a in axes) + (3,))
    with pytest.raises(ValueError, match=message):
        reg.fit_grid_to_field(geometry, axes, samples)


def test_fit_grid_rejects_clustered_samples():
    """Enough samples, but no column of the middle tile's run can be matched
    to its own site: 24 samples in the first and last of six tiles leave the
    middle control point undetermined (Schoenberg-Whitney)."""
    geometry = core.GridGeometry((6, 4, 4), (8.0, 8.0, 8.0))
    ends = np.concatenate([np.linspace(0.0, 7.5, 12), np.linspace(40.5, 48.0, 12)])
    axes = [ends, np.linspace(0.0, 32.0, 24), np.linspace(0.0, 32.0, 24)]
    assert len(ends) >= geometry.lattice_shape[0]
    assert np.linalg.matrix_rank(core.axis_weight_matrix(geometry, 0, ends, 0)) == 8
    with pytest.raises(ValueError, match="axis 1: 24 samples determine only 8 of 9 control points"):
        reg.fit_grid_to_field(geometry, axes, np.zeros((24, 24, 24, 3)))


def test_collocation_rank_agrees_with_matrix_rank():
    """The matching rank equals the SVD rank on randomized axes: uniform,
    clustered, on knots with repeats, and split between the two ends, over
    one to eight tiles of random size and origin, unsorted."""
    rng = np.random.default_rng(23)
    kinds = ["uniform", "clustered", "knots", "ends"]
    for trial in range(400):
        n = int(rng.integers(1, 9))
        geometry = core.GridGeometry((n, 1, 1), (rng.uniform(1.0, 20.0), 1.0, 1.0), (rng.uniform(-5.0, 5.0), 0, 0))
        lo, extent, m = geometry.origin[0], geometry.extent[0], int(rng.integers(1, 3 * (n + 3)))
        kind = kinds[trial % 4]
        if kind == "uniform":
            coords = rng.uniform(lo, lo + extent, m)
        elif kind == "clustered":
            a, b = np.sort(rng.uniform(lo, lo + extent, 2))
            coords = rng.uniform(a, b, m)
        elif kind == "knots":
            coords = lo + geometry.tile_spacing[0] * rng.integers(0, n + 1, m)
        else:
            coords = np.concatenate([rng.uniform(lo, lo + 0.2 * extent, m), rng.uniform(lo + 0.8 * extent, lo + extent, m)])
        w = core.axis_weight_matrix(geometry, 0, coords, 0)
        assert reg._collocation_rank(w, coords) == np.linalg.matrix_rank(w), (kind, n, m)


@pytest.mark.parametrize("dims, stages, message", [
    ((32, 32, 32), ((16.0, 4), (8.0, 4)), "stage 2: its image has 8 voxels on axis 1, fewer than the 11 control points"),
    ((40, 1, 40), ((16.0, 1), (8.0, 1)), "stage 2: its image has 1 voxels on axis 2, fewer than the 4 control points"),
    ((20, 20, 6), ((16.0, 8),), "stage 1: image_downsample 8 leaves no voxel of the 6 on axis 3"),
], ids=["downsampled-below-lattice", "thin-axis", "no-voxel"])
def test_optimize_rejects_undetermined_stages_before_any_evaluation(monkeypatch, dims, stages, message):
    evaluated = []
    monkeypatch.setattr(reg, "mse_cost_grad", lambda *args: evaluated.append(args) or (0.0, None))
    vol = blob_volume(dims=dims, seed=13)
    config = reg.RegistrationConfig(
        stages=tuple(reg.RegistrationStage((s,) * 3, max_iterations=2, image_downsample=f) for s, f in stages))
    with pytest.raises(ValueError, match=message):
        reg.optimize(vol, vol, config)
    assert evaluated == []


def test_lbfgs_minimizes_quadratic():
    rng = np.random.default_rng(9)
    n = 40
    m = rng.normal(size=(n, n))
    a = m.T @ m + np.eye(n)
    b = rng.normal(size=n)

    def fun(x):
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    settings = reg.OptimizerSettings(gradient_tolerance=1e-5, step_tolerance=1e-16)
    x, costs, reason = reg._lbfgs(fun, np.zeros(n), 300, settings)
    assert reason == "gradient_tolerance"
    np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-4)
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_lbfgs_rejects_nonfinite_start():
    def fun(x):
        return float("nan"), x

    with pytest.raises(RuntimeError):
        reg._lbfgs(fun, np.zeros(3), 10, reg.OptimizerSettings())


def test_config_validation():
    with pytest.raises(ValueError):
        reg.RegistrationConfig(stages=())
    with pytest.raises(ValueError):
        reg.RegistrationConfig(
            stages=(
                reg.RegistrationStage((10.0, 10.0, 10.0)),
                reg.RegistrationStage((20.0, 20.0, 20.0)),
            )
        )
    with pytest.raises(ValueError):
        reg.RegistrationStage((0.0, 1.0, 1.0))


@pytest.mark.parametrize("make", [
    lambda: reg.RegistrationStage((np.nan, 8.0, 8.0)),
    lambda: reg.RegistrationStage((np.inf,) * 3),
    lambda: reg.OptimizerSettings(gradient_tolerance=np.nan),
    lambda: reg.OptimizerSettings(step_tolerance=-5.0),
    lambda: reg.OptimizerSettings(gradient_tolerance=np.inf),
], ids=["stage-nan", "stage-inf", "gradient-nan", "step-negative", "gradient-inf"])
def test_stage_and_optimizer_settings_reject_non_finite_or_negative(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 2.5), ("max_iterations", "3"), ("image_downsample", 1.5), ("image_downsample", np.nan),
])
def test_stage_counts_must_be_whole(field, value):
    """A stage count that is not a whole number is rejected by name when the
    stage is built (max_iterations=2.5 passed and then failed inside the
    optimizer, after the first cost evaluation); integral floats and numpy
    integers become ints."""
    stage = reg.RegistrationStage((8.0, 8.0, 8.0), max_iterations=np.int64(3), image_downsample=2.0)
    assert (stage.max_iterations, stage.image_downsample) == (3, 2)
    assert type(stage.max_iterations) is int and type(stage.image_downsample) is int
    with pytest.raises(ValueError, match=field):
        reg.RegistrationStage((8.0, 8.0, 8.0), **{field: value})


def test_optimize_identical_images_stays_near_identity():
    vol = blob_volume(dims=(20, 20, 20), seed=10)
    config = reg.RegistrationConfig(
        stages=(reg.RegistrationStage((16.0, 16.0, 16.0), max_iterations=20),),
        weights=RegularizerWeights(curvature=1e-3),
    )
    grid, history = reg.optimize(vol, vol, config)
    assert history[0].costs[0] == 0.0
    assert history[0].costs[-1] <= 1e-18
    assert np.abs(grid.coefficients).max() <= 1e-9


def test_stage_evaluations_count_cost_calls(monkeypatch):
    """StageHistory.evaluations is the number of cost-and-gradient calls the
    optimizer made in that stage."""
    calls = []
    mse = reg.mse_cost_grad

    def counted(fixed, moving, grid):
        calls.append(grid.geometry.tile_spacing)
        return mse(fixed, moving, grid)

    monkeypatch.setattr(reg, "mse_cost_grad", counted)
    moving = blob_volume(dims=(20, 20, 20), seed=11)
    fixed = blob_volume(dims=(20, 20, 20), seed=12)
    config = reg.RegistrationConfig(
        stages=(
            reg.RegistrationStage((20.0,) * 3, max_iterations=4, image_downsample=2),
            reg.RegistrationStage((10.0,) * 3, max_iterations=4),
        ),
        weights=RegularizerWeights(curvature=1e-2),
    )
    _, history = reg.optimize(fixed, moving, config)
    assert [h.evaluations for h in history] == [calls.count(h.grid_spacing) for h in history]
    assert all(h.evaluations >= h.iterations + 1 for h in history)


def test_optimize_copies_only_downsampled_stages(monkeypatch):
    """Only a downsampled stage copies the images: the full-resolution stage
    evaluates the caller's moving image itself, and no stage builds a V bank."""
    downsampled, evaluated = [], []
    down, mse = reg.box_downsample, reg.mse_cost_grad

    def counted(fixed, moving, grid):
        evaluated.append(moving)
        return mse(fixed, moving, grid)

    def no_bank(*args):
        raise AssertionError("optimize built a V bank")

    monkeypatch.setattr(reg, "box_downsample", lambda volume, factor: downsampled.append(factor) or down(volume, factor))
    monkeypatch.setattr(reg, "mse_cost_grad", counted)
    monkeypatch.setattr(ra, "build_vbank", no_bank)
    monkeypatch.setattr(reg, "build_vbank", no_bank, raising=False)
    moving = blob_volume(dims=(20, 20, 20), seed=11)
    fixed = blob_volume(dims=(20, 20, 20), seed=12)
    config = reg.RegistrationConfig(
        stages=(
            reg.RegistrationStage((20.0,) * 3, max_iterations=2, image_downsample=2),
            reg.RegistrationStage((10.0,) * 3, max_iterations=2),
        ),
        weights=RegularizerWeights(curvature=1e-2),
    )
    _, history = reg.optimize(fixed, moving, config)
    assert downsampled == [2, 2]
    assert len(evaluated) == sum(h.evaluations for h in history)
    first = history[0].evaluations
    assert all(m.dims == (10, 10, 10) for m in evaluated[:first])
    assert all(m is moving for m in evaluated[first:])


def test_optimize_line_search_rarely_backtracks():
    """On a cost continuous at the hull, each stage makes at most two
    cost-and-gradient evaluations per accepted iteration, plus its first."""
    moving = blob_volume(dims=(24, 24, 24), seed=13)
    geom = vio.covering_geometry(moving, (8.0, 8.0, 8.0))
    truth, _, _ = vio.make_ground_truth_field(geom, 3.0, 24.0, seed=14, n_landmarks=10)
    fixed = vio.warp_volume(moving, truth, moving)
    config = reg.RegistrationConfig(
        stages=(
            reg.RegistrationStage((16.0,) * 3, max_iterations=12, image_downsample=2),
            reg.RegistrationStage((8.0,) * 3, max_iterations=12),
        ),
        weights=RegularizerWeights(curvature=1e-2),
    )
    _, history = reg.optimize(fixed, moving, config)
    counts = [(h.evaluations, h.iterations) for h in history]
    assert all(evals <= 2 * its + 1 for evals, its in counts), counts


@pytest.mark.parametrize("dims, downsample", [((20, 2, 24), 1), ((20, 5, 24), 2)])
def test_optimize_registers_across_a_two_voxel_axis(dims, downsample):
    """An axis of two voxels, given or left by a coarse stage's downsampling,
    has no room for the one-cell fade: its samples still count, so the stage
    iterates and cuts its cost by at least a tenth."""
    moving = blob_volume(dims=dims, seed=1)
    fixed = vio.Volume(data=np.roll(moving.data, 1, axis=0), spacing=moving.spacing, origin=moving.origin)
    config = reg.RegistrationConfig(
        stages=(reg.RegistrationStage((8.0,) * 3, max_iterations=10, image_downsample=downsample),),
        weights=RegularizerWeights(curvature=1e-2),
    )
    _, history = reg.optimize(fixed, moving, config)
    assert history[0].iterations > 0
    assert history[0].costs[-1] < 0.9 * history[0].costs[0]


def test_costs_monotone_during_registration():
    moving = blob_volume(dims=(20, 20, 20), seed=11)
    geom = vio.covering_geometry(moving, (40.0, 40.0, 40.0))
    truth, _, _ = vio.make_ground_truth_field(geom, 2.0, 25.0, seed=12, n_landmarks=10)
    fixed = vio.warp_volume(moving, truth, moving)
    config = reg.RegistrationConfig(
        stages=(reg.RegistrationStage((20.0, 20.0, 20.0), max_iterations=15),),
        weights=RegularizerWeights(curvature=1e-2),
    )
    _, history = reg.optimize(fixed, moving, config)
    costs = history[0].costs
    assert len(costs) >= 2
    assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


def test_total_cost_gradient_is_sum_of_parts():
    """FD of MSE + penalty matches the summed analytic gradients end to end."""
    from splinereg.regularizers_analytic import build_vbank, penalty

    moving = blob_volume(seed=15)
    fixed = blob_volume(seed=16)
    geom = vio.covering_geometry(fixed, (12.0, 12.0, 12.0))
    grid = random_grid(geom.tile_counts, geom.tile_spacing, seed=17, scale=1.0)
    weights = RegularizerWeights(curvature=1e-2, diffusion=1e-3)
    bank = build_vbank(geom.tile_spacing)

    def total(g):
        mse_val, mse_grad = reg.mse_cost_grad(fixed, moving, g)
        pen = penalty(g, weights, bank)
        return mse_val + pen.value, mse_grad + pen.gradient

    value, gradient = total(grid)
    rng = np.random.default_rng(18)
    h = 1e-4
    floor = 1e-4 * np.abs(gradient).max()
    for _ in range(20):
        c = int(rng.integers(0, 3))
        ijk = tuple(int(rng.integers(0, s)) for s in geom.lattice_shape)
        plus = grid.copy()
        plus.coefficients[(c,) + ijk] += h
        minus = grid.copy()
        minus.coefficients[(c,) + ijk] -= h
        fd = (total(plus)[0] - total(minus)[0]) / (2 * h)
        got = gradient[(c,) + ijk]
        assert abs(fd - got) / max(abs(fd), abs(got), floor) <= 1e-4


def test_huge_weight_suppresses_deformation():
    """With an enormous curvature weight the optimizer returns an essentially
    rigid field: landmark separation stays at its pre-registration value and
    the recovered field's own curvature penalty is tiny."""
    from splinereg.regularizers_analytic import build_vbank, penalty

    moving = blob_volume(dims=(24, 24, 24), seed=19)
    geom = vio.covering_geometry(moving, (24.0, 24.0, 24.0))
    truth, fixed_lms, moving_lms = vio.make_ground_truth_field(
        geom, amplitude=2.0, smoothness=24.0, seed=20, n_landmarks=30
    )
    fixed = vio.warp_volume(moving, truth, moving)
    config = reg.RegistrationConfig(
        stages=(reg.RegistrationStage((24.0,) * 3, max_iterations=25),),
        weights=RegularizerWeights(curvature=1e6),
    )
    recovered, _ = reg.optimize(fixed, moving, config)
    before = mls(fixed_lms, moving_lms)
    after = mls(warp_landmarks(recovered, fixed_lms), moving_lms)
    assert after >= 0.8 * before  # essentially no registration happened
    bank = build_vbank(recovered.geometry.tile_spacing)
    s2 = penalty(recovered, RegularizerWeights(), bank, with_gradient=False).terms[1]
    truth_s2 = penalty(truth, RegularizerWeights(), bank, with_gradient=False).terms[1]
    assert s2 < 1e-3 * truth_s2


def test_small_synthetic_recovery():
    """Scaled-down ground-truth experiment: the field must be recovered well
    enough to cut landmark separation by at least half."""
    moving = blob_volume(dims=(32, 32, 32), spacing=(2.0, 2.0, 2.0), seed=13)
    geom = vio.covering_geometry(moving, (16.0, 16.0, 16.0))
    truth, fixed_lms, moving_lms = vio.make_ground_truth_field(
        geom, amplitude=3.0, smoothness=28.0, seed=14, n_landmarks=60
    )
    fixed = vio.warp_volume(moving, truth, moving)
    config = reg.RegistrationConfig(
        stages=(
            reg.RegistrationStage((32.0, 32.0, 32.0), max_iterations=30, image_downsample=2),
            reg.RegistrationStage((16.0, 16.0, 16.0), max_iterations=50),
        ),
        weights=RegularizerWeights(curvature=1e-2),
    )
    recovered, _ = reg.optimize(fixed, moving, config)
    before = mls(fixed_lms, moving_lms)
    after = mls(warp_landmarks(recovered, fixed_lms), moving_lms)
    assert after < 0.5 * before
    _, min_j = jacobian_map(recovered, SamplingSpec.per_tile((3, 3, 3)))
    assert min_j > 0.0
